package powerdrill

import (
	"fmt"
	"testing"

	"powerdrill/internal/colstore"
)

// TestDerivedTablesBuiltOnce: what a query derives from a chunk alone — a
// group column's counts, a SUM or AVG argument's values, a COUNT(DISTINCT)
// argument's hash order — is built by the first query that needs it and
// kept. The click benchmark's unrestricted click, run twice on a resident
// store in the bench layout, builds tables in its first run and none in its
// second, and Memory reports what they hold as a layer of its own.
func TestDerivedTablesBuiltOnce(t *testing.T) {
	s, err := Build(GenerateQueryLogs(20000, 1), Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true})
	if err != nil {
		t.Fatal(err)
	}
	cols := s.Columns() // the virtual columns the click materializes aside
	fresh, err := s.Memory(cols...)
	if err != nil {
		t.Fatal(err)
	}
	click := func() int64 {
		before := colstore.DerivedBuilds()
		for i, chart := range benchCharts {
			q := fmt.Sprintf(chart, "")
			if i == len(benchCharts)-1 {
				q = fmt.Sprintf(chart, " WHERE latency > 20000")
			}
			if _, err := s.Query(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		return colstore.DerivedBuilds() - before
	}
	first, second := click(), click()
	t.Logf("tables built: %d by the first click, %d by the second", first, second)
	if first == 0 || second != 0 {
		t.Fatalf("the click built %d tables, and %d when run again: want some, then none", first, second)
	}
	mem, err := s.Memory(cols...)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Derived != 0 || mem.Derived == 0 || mem.Total()-mem.Derived != fresh.Total() {
		t.Fatalf("Memory: %+v before the clicks, %+v after: want derived bytes after only", fresh, mem)
	}
}
