package partition

import (
	"testing"
	"testing/quick"

	"powerdrill/internal/table"
	"powerdrill/internal/workload"
)

func logs(rows int) *table.Table {
	return workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 42})
}

func TestPartitionBasicInvariants(t *testing.T) {
	tbl := logs(20_000)
	res, err := partitionTable(tbl, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Perm is a permutation.
	if len(res.Perm) != tbl.NumRows() {
		t.Fatalf("perm has %d entries", len(res.Perm))
	}
	seen := make([]bool, tbl.NumRows())
	for _, p := range res.Perm {
		if seen[p] {
			t.Fatal("duplicate row in permutation")
		}
		seen[p] = true
	}
	// Bounds are monotone and cover everything.
	if res.Bounds[0] != 0 || res.Bounds[len(res.Bounds)-1] != tbl.NumRows() {
		t.Fatalf("bounds do not cover the table: %v", res.Bounds[:3])
	}
	for i := 1; i < len(res.Bounds); i++ {
		if res.Bounds[i] <= res.Bounds[i-1] {
			t.Fatal("empty or inverted chunk")
		}
	}
	// Threshold respected, except for chunks that are constant on the whole
	// key (splitting stops when no field has two distinct values left).
	countries := tbl.Column("country").Strs
	names := tbl.Column("table_name").Strs
	for c := 0; c < res.NumChunks(); c++ {
		size := res.Bounds[c+1] - res.Bounds[c]
		if size <= 1000 {
			continue
		}
		rows := res.Perm[res.Bounds[c]:res.Bounds[c+1]]
		for _, r := range rows[1:] {
			if countries[r] != countries[rows[0]] || names[r] != names[rows[0]] {
				t.Errorf("chunk %d has %d rows and is splittable, threshold 1000", c, size)
				break
			}
		}
	}
}

func TestHeaviestFirstBalance(t *testing.T) {
	tbl := logs(50_000)
	res, err := partitionTable(tbl, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// "Heaviest first" should produce fairly even chunks: no chunk smaller
	// than ~5% of the threshold, and a chunk count near rows/threshold.
	chunks := res.NumChunks()
	if chunks < 25 || chunks > 150 {
		t.Errorf("chunk count %d outside the expected range for 50K/2K", chunks)
	}
	small := 0
	for c := 0; c < chunks; c++ {
		if res.Bounds[c+1]-res.Bounds[c] < 100 {
			small++
		}
	}
	if small > chunks/3 {
		t.Errorf("%d/%d chunks are tiny; splitting is unbalanced", small, chunks)
	}
}

// TestPartitionFieldLocality verifies the property the Section 3 "Chunks"
// experiment relies on: fields used in the partition order have few
// distinct values per chunk.
func TestPartitionFieldLocality(t *testing.T) {
	tbl := logs(30_000)
	res, err := partitionTable(tbl, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	countries := tbl.Column("country").Strs
	totalDistinct := 0
	for c := 0; c < res.NumChunks(); c++ {
		set := map[string]bool{}
		for _, r := range res.Perm[res.Bounds[c]:res.Bounds[c+1]] {
			set[countries[r]] = true
		}
		totalDistinct += len(set)
	}
	avg := float64(totalDistinct) / float64(res.NumChunks())
	if avg > 3 {
		t.Errorf("average %.1f distinct countries per chunk, want ≤3 (25 overall)", avg)
	}
}

func TestPartitionSmallTable(t *testing.T) {
	tbl := logs(100)
	res, err := partitionTable(tbl, Spec{Fields: []string{"country"}, MaxChunkRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChunks() != 1 {
		t.Errorf("small table split into %d chunks", res.NumChunks())
	}
}

func TestPartitionEmptyTable(t *testing.T) {
	tbl := table.New("empty")
	tbl.AddStringColumn("a", nil)
	res, err := partitionTable(tbl, Spec{Fields: []string{"a"}, MaxChunkRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Perm) != 0 {
		t.Error("empty table produced rows")
	}
}

func TestPartitionUnknownField(t *testing.T) {
	if _, err := partitionTable(logs(100), Spec{Fields: []string{"nope"}}); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestPartitionConstantKey(t *testing.T) {
	// All rows identical on the key: unsplittable, must terminate with one
	// oversized chunk rather than loop.
	tbl := table.New("const")
	vals := make([]string, 5000)
	for i := range vals {
		vals[i] = "same"
	}
	tbl.AddStringColumn("k", vals)
	res, err := partitionTable(tbl, Spec{Fields: []string{"k"}, MaxChunkRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChunks() != 1 || res.Bounds[1] != 5000 {
		t.Errorf("constant key: chunks=%d", res.NumChunks())
	}
}

func TestPartitionFallsToSecondField(t *testing.T) {
	// First field constant; second must drive the splits.
	tbl := table.New("t")
	k1 := make([]string, 4000)
	k2 := make([]int64, 4000)
	for i := range k1 {
		k1[i] = "c"
		k2[i] = int64(i % 40)
	}
	tbl.AddStringColumn("k1", k1)
	tbl.AddInt64Column("k2", k2)
	res, err := partitionTable(tbl, Spec{Fields: []string{"k1", "k2"}, MaxChunkRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChunks() < 8 {
		t.Errorf("second field not used: %d chunks", res.NumChunks())
	}
	for c := 0; c < res.NumChunks(); c++ {
		if res.Bounds[c+1]-res.Bounds[c] > 500 {
			t.Errorf("chunk %d exceeds threshold", c)
		}
	}
}

func TestChunkOrderFollowsFieldRanges(t *testing.T) {
	tbl := logs(20_000)
	res, err := partitionTable(tbl, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	countries := tbl.Column("country").Strs
	// The minimum country of each chunk must be non-decreasing across the
	// chunk sequence (chunks sorted by their key ranges).
	prev := ""
	for c := 0; c < res.NumChunks(); c++ {
		min := countries[res.Perm[res.Bounds[c]]]
		for _, r := range res.Perm[res.Bounds[c]:res.Bounds[c+1]] {
			if countries[r] < min {
				min = countries[r]
			}
		}
		if min < prev {
			t.Fatalf("chunk %d min country %q < previous %q", c, min, prev)
		}
		prev = min
	}
}

func TestQuickPartitionAlwaysPermutation(t *testing.T) {
	f := func(seed int64, sizes uint8) bool {
		rows := int(sizes)%500 + 1
		tbl := workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: seed})
		res, err := partitionTable(tbl, Spec{Fields: []string{"country", "user"}, MaxChunkRows: 50})
		if err != nil {
			return false
		}
		if len(res.Perm) != rows {
			return false
		}
		seen := make([]bool, rows)
		for _, p := range res.Perm {
			if p < 0 || p >= rows || seen[p] {
				return false
			}
			seen[p] = true
		}
		return res.Bounds[len(res.Bounds)-1] == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPartition(b *testing.B) {
	tbl := logs(100_000)
	keys := [][]uint32{rankOf(tbl, "country"), rankOf(tbl, "table_name")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(keys, tbl.NumRows(), 5000)
	}
}
