package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// TestRetainedRowsDoNotPinDictionaries: a string in a result row is the
// caller's own copy, so rows kept after their query never keep a
// dictionary block alive — not even one the memory manager has evicted.
// A lazy store on the bench layout (partitioned on country and table_name,
// 2 000-row chunks, zippy, a quarter of its resident size as the budget)
// answers two drill-down sessions while every row is kept, and
// table_name's dictionary is evicted and reloaded between queries. After
// each query the test records the block of the table_name dictionary the
// query rendered from, and holds it so that its addresses are not reused;
// afterwards, no kept string lies inside any recorded block.
func TestRetainedRowsDoNotPinDictionaries(t *testing.T) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 50000, Seed: 1})
	built, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     2000,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := built.MemoryFor(built.Columns()...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := colstore.Save(built, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	store, _, err := colstore.OpenLazy(dir, memmgr.New(mem.Total()/4, "2q"))
	if err != nil {
		t.Fatal(err)
	}
	e := New(store, Options{})

	type block struct {
		lo, hi uintptr
		hold   string // a string inside the block, which keeps it allocated
	}
	var blocks []block
	seen := map[uintptr]bool{}
	record := func() {
		ps := store.NewPinSet()
		defer ps.Release()
		col, err := ps.ColumnDict("table_name")
		if err != nil {
			t.Fatal(err)
		}
		d := col.Dict.(dict.StringDict)
		first, last := d.StringAt(0), d.StringAt(uint32(d.Len()-1))
		lo := uintptr(unsafe.Pointer(unsafe.StringData(first)))
		if !seen[lo] {
			seen[lo] = true
			blocks = append(blocks, block{lo, uintptr(unsafe.Pointer(unsafe.StringData(last))) + uintptr(len(last)), first})
		}
	}

	var kept [][]value.Value
	for seed := int64(1); seed <= 2; seed++ {
		for _, click := range workload.DrillDownSession(tbl, workload.SessionSpec{Seed: seed, Clicks: 8, QueriesPerClick: 20}) {
			for _, q := range click.Queries {
				res, err := e.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				kept = append(kept, res.Rows...)
				record()
			}
		}
	}
	if len(blocks) < 2 {
		t.Fatalf("table_name's dictionary was loaded into %d block(s); the budget must evict and reload it", len(blocks))
	}
	runtime.GC()
	strs := 0
	for _, row := range kept {
		for _, v := range row {
			if v.Kind() != value.KindString || v.Str() == "" {
				continue
			}
			strs++
			p := uintptr(unsafe.Pointer(unsafe.StringData(v.Str())))
			for i, b := range blocks {
				if p >= b.lo && p < b.hi {
					t.Fatalf("kept value %q lies in dictionary block %d of %d", v.Str(), i, len(blocks))
				}
			}
		}
	}
	if strs == 0 {
		t.Fatal("no kept row holds a string")
	}
	t.Logf("%d kept strings, %d table_name dictionary blocks", strs, len(blocks))
	runtime.KeepAlive(blocks)
}
