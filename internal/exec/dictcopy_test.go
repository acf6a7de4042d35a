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
// table_name's dictionary frames are evicted and reloaded between queries.
// After each query the test records the blocks of the table_name
// dictionary — one per frame — and holds them so that their addresses are
// not reused; afterwards, no kept string lies inside any recorded block.
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
	store, _, err := colstore.OpenLazy(dir, memmgr.New(mem.Total()/4, ""))
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
		// The dictionary's values lie end to end in one block per frame:
		// a run of values each starting where the one before ends.
		d := col.Dict.(dict.StringDict)
		var cur *block
		for id := 0; id < d.Len(); id++ {
			s := d.StringAt(uint32(id))
			lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if cur == nil || lo != cur.hi || len(s) == 0 {
				if cur != nil && !seen[cur.lo] {
					seen[cur.lo] = true
					blocks = append(blocks, *cur)
				}
				cur = &block{lo, lo, s}
			}
			cur.hi = lo + uintptr(len(s))
		}
		if cur != nil && !seen[cur.lo] {
			seen[cur.lo] = true
			blocks = append(blocks, *cur)
		}
	}

	var kept [][]value.Value
	for seed := int64(1); seed <= 2; seed++ {
		for _, click := range workload.DrillDownSession(tbl, workload.SessionSpec{Seed: seed, Clicks: 8, QueriesPerClick: 20}) {
			for _, q := range click.Queries {
				res, err := query(e, q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				kept = append(kept, res.Rows...)
				record()
			}
		}
	}
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, frames, _, err := r.ColumnRecords("table_name"); err != nil || len(blocks) <= len(frames) {
		t.Fatalf("table_name's %d dictionary frames were loaded into %d block(s) (%v); the budget must evict and reload them", len(frames), len(blocks), err)
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
