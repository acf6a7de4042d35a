package colstore

import (
	"math"
	"testing"
	"testing/quick"

	"powerdrill/internal/dict"
	"powerdrill/internal/enc"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// valueColumn gathers per-row values into the column AddVirtualColumn takes.
func valueColumn(name string, kind value.Kind, vals []value.Value) *table.Column {
	col := table.NewColumn(name, kind, len(vals))
	for i, v := range vals {
		col.Set(i, v)
	}
	return col
}

func logs(rows int) *table.Table {
	return workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 21})
}

// variants are the paper's step-wise layout configurations.
func variants() map[string]Options {
	part := []string{"country", "table_name"}
	return map[string]Options{
		"basic":    {},
		"chunks":   {PartitionFields: part, MaxChunkRows: 500},
		"optcols":  {PartitionFields: part, MaxChunkRows: 500, OptimizeElements: true},
		"optdicts": {PartitionFields: part, MaxChunkRows: 500, OptimizeElements: true, StringDict: StringDictTrie},
		"reorder":  {PartitionFields: part, MaxChunkRows: 500, OptimizeElements: true, StringDict: StringDictTrie, Reorder: true},
	}
}

// reconstruct verifies the fundamental double-dictionary invariant: for all
// columns, dereferencing elements through chunk- and global-dictionaries
// yields the original multiset of rows, in a single consistent order across
// columns.
func reconstruct(t *testing.T, s *Store, src *table.Table) {
	t.Helper()
	if s.NumRows() != src.NumRows() {
		t.Fatalf("store has %d rows, source %d", s.NumRows(), src.NumRows())
	}
	// Build multiset of source rows and of reconstructed rows.
	key := func(vals []value.Value) string {
		out := ""
		for _, v := range vals {
			out += v.String() + "\x1f"
		}
		return out
	}
	want := map[string]int{}
	for i := 0; i < src.NumRows(); i++ {
		want[key(src.Row(i))]++
	}
	names := src.ColumnNames()
	got := map[string]int{}
	for c := 0; c < s.NumChunks(); c++ {
		for r := 0; r < s.ChunkRows(c); r++ {
			vals := make([]value.Value, len(names))
			for j, n := range names {
				vals[j] = s.Column(n).ValueAt(c, r)
			}
			got[key(vals)]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct row count differs: got %d, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q count %d, want %d", k, got[k], n)
		}
	}
}

func TestBuildAndReconstructAllVariants(t *testing.T) {
	src := logs(3000)
	for name, opts := range variants() {
		t.Run(name, func(t *testing.T) {
			s, err := FromTable(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			reconstruct(t, s, src)
		})
	}
}

func TestChunkDictionariesSortedAndDense(t *testing.T) {
	s, err := FromTable(logs(5000), variants()["optcols"])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.Columns() {
		col := s.Column(name)
		for ci, ch := range col.Chunks {
			for i := 1; i < len(ch.GlobalIDs); i++ {
				if ch.GlobalIDs[i-1] >= ch.GlobalIDs[i] {
					t.Fatalf("%s chunk %d: chunk-dict not strictly sorted", name, ci)
				}
			}
			// Every element must be a valid chunk-id.
			for r := 0; r < ch.Rows(); r++ {
				if int(ch.Elems.At(r)) >= len(ch.GlobalIDs) {
					t.Fatalf("%s chunk %d row %d: element out of range", name, ci, r)
				}
			}
			// Every chunk-dict entry must be referenced by some element
			// (the dictionary holds only occurring values).
			used := make([]bool, len(ch.GlobalIDs))
			for r := 0; r < ch.Rows(); r++ {
				used[ch.Elems.At(r)] = true
			}
			for i, u := range used {
				if !u {
					t.Fatalf("%s chunk %d: chunk-id %d unused", name, ci, i)
				}
			}
		}
	}
}

func TestChunkIDAndSkippingProbes(t *testing.T) {
	s, err := FromTable(logs(5000), variants()["chunks"])
	if err != nil {
		t.Fatal(err)
	}
	col := s.Column("country")
	for _, ch := range col.Chunks {
		for i, g := range ch.GlobalIDs {
			id, ok := ch.ChunkID(g)
			if !ok || id != uint32(i) {
				t.Fatalf("ChunkID(%d) = %d, %v", g, id, ok)
			}
		}
		if _, ok := ch.ChunkID(uint32(col.Dict.Len() + 5)); ok {
			t.Fatal("ChunkID hit for absent gid")
		}
		// ContainsAny / AllWithin against the chunk's own ids.
		if !ch.ContainsAny(ch.GlobalIDs) {
			t.Fatal("ContainsAny(own ids) = false")
		}
		if !ch.AllWithin(ch.GlobalIDs) {
			t.Fatal("AllWithin(own ids) = false")
		}
		if ch.ContainsAny([]uint32{uint32(col.Dict.Len() + 7)}) {
			t.Fatal("ContainsAny(absent) = true")
		}
		if len(ch.GlobalIDs) > 1 {
			if ch.AllWithin(ch.GlobalIDs[:1]) {
				t.Fatal("AllWithin(subset) = true")
			}
		}
		if ch.ContainsAny(nil) {
			t.Fatal("ContainsAny(nil) = true")
		}
	}
}

// TestElementWidthsAfterPartitioning is the Section 3 OptCols effect: the
// country column is first in the partition order, so most chunks hold one
// or two distinct countries and encode elements in 0 or 1 bits.
func TestElementWidthsAfterPartitioning(t *testing.T) {
	s, err := FromTable(logs(20_000), Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     1000,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := s.Column("country")
	narrow := 0
	for _, ch := range col.Chunks {
		if w := ch.Elems.Width(); w == enc.Width0 || w == enc.Width1 {
			narrow++
		}
	}
	if frac := float64(narrow) / float64(len(col.Chunks)); frac < 0.8 {
		t.Errorf("only %.0f%% of country chunks are ≤1-bit, want ≥80%%", frac*100)
	}
}

// TestMemoryOrdering verifies the relationships of the paper's Table 2/4:
// optimized elements shrink the footprint, the trie shrinks the
// high-cardinality dictionary, partitioning slightly grows chunk-dicts.
func TestMemoryOrdering(t *testing.T) {
	src := logs(20_000)
	mem := map[string]MemoryBreakdown{}
	for name, opts := range variants() {
		s, err := FromTable(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.MemoryFor("table_name")
		if err != nil {
			t.Fatal(err)
		}
		mem[name] = m
	}
	if mem["chunks"].ChunkDicts < mem["basic"].ChunkDicts {
		t.Errorf("partitioning should grow chunk-dicts: %d < %d",
			mem["chunks"].ChunkDicts, mem["basic"].ChunkDicts)
	}
	if mem["optcols"].Elements >= mem["chunks"].Elements {
		t.Errorf("OptCols did not shrink elements: %d >= %d",
			mem["optcols"].Elements, mem["chunks"].Elements)
	}
	if mem["optdicts"].GlobalDict >= mem["optcols"].GlobalDict {
		t.Errorf("trie did not shrink the table_name dictionary: %d >= %d",
			mem["optdicts"].GlobalDict, mem["optcols"].GlobalDict)
	}
	t.Logf("table_name totals: basic=%d chunks=%d optcols=%d optdicts=%d",
		mem["basic"].Total(), mem["chunks"].Total(), mem["optcols"].Total(), mem["optdicts"].Total())
}

func TestMemoryForUnknownColumn(t *testing.T) {
	s, _ := FromTable(logs(100), Options{})
	if _, err := s.MemoryFor("nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestVirtualColumn(t *testing.T) {
	src := logs(2000)
	s, err := FromTable(src, variants()["optcols"])
	if err != nil {
		t.Fatal(err)
	}
	// Materialize date(timestamp) by hand in store row order.
	tsCol := s.Column("timestamp")
	vals := make([]value.Value, 0, s.NumRows())
	for c := 0; c < s.NumChunks(); c++ {
		for r := 0; r < s.ChunkRows(c); r++ {
			vals = append(vals, value.Int64(tsCol.ValueAt(c, r).Int()/86_400_000_000))
		}
	}
	col, err := s.AddVirtualColumn(valueColumn("date(timestamp)", value.KindInt64, vals))
	if err != nil {
		t.Fatal(err)
	}
	if !col.Virtual {
		t.Error("virtual flag not set")
	}
	// The virtual column supports everything a physical one does.
	i := 0
	for c := 0; c < s.NumChunks(); c++ {
		for r := 0; r < s.ChunkRows(c); r++ {
			if got := s.Column("date(timestamp)").ValueAt(c, r).Int(); got != vals[i].Int() {
				t.Fatalf("virtual value at %d/%d = %d, want %d", c, r, got, vals[i].Int())
			}
			i++
		}
	}
	if _, err := s.AddVirtualColumn(valueColumn("date(timestamp)", value.KindInt64, vals)); err == nil {
		t.Error("duplicate virtual column accepted")
	}
	if _, err := s.AddVirtualColumn(valueColumn("short", value.KindInt64, vals[:5])); err == nil {
		t.Error("misaligned virtual column accepted")
	}
}

func TestCompressedBreakdownShapes(t *testing.T) {
	src := logs(10_000)
	basic, _ := FromTable(src, Options{})
	chunked, _ := FromTable(src, variants()["chunks"])
	name := "country"
	zb := compressedTotal(t, basic, name)
	zc := compressedTotal(t, chunked, name)
	// Partitioning improves compression for partition-order fields
	// (Table 3: Query 1 drops 3.02 → 0.28 MB with chunks).
	if zc >= zb {
		t.Errorf("compressed country: chunked %d >= basic %d", zc, zb)
	}
}

func compressedTotal(t *testing.T, s *Store, col string) int64 {
	t.Helper()
	c := s.Column(col)
	if c == nil {
		t.Fatalf("no column %q", col)
	}
	codec, err := compressByName(t)
	if err != nil {
		t.Fatal(err)
	}
	return c.Compressed(codec).Total()
}

func TestStoreColumnsOrder(t *testing.T) {
	s, _ := FromTable(logs(100), Options{})
	want := []string{"timestamp", "table_name", "latency", "country", "user"}
	got := s.Columns()
	if len(got) != len(want) {
		t.Fatalf("Columns = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Columns[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEmptyTableStore(t *testing.T) {
	tbl := table.New("empty")
	tbl.AddStringColumn("a", nil)
	s, err := FromTable(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 0 {
		t.Errorf("NumRows = %d", s.NumRows())
	}
}

func TestNaNRejected(t *testing.T) {
	tbl := table.New("bad")
	tbl.AddFloat64Column("f", []float64{1, nan()})
	if _, err := FromTable(tbl, Options{}); err == nil {
		t.Error("NaN accepted")
	}
}

// TestNaNRejectedBeforePartitioning: a NaN anywhere fails the import with
// the column's own error before any ranking or partitioning — here before
// the unknown partition field would have failed it.
func TestNaNRejectedBeforePartitioning(t *testing.T) {
	for _, fields := range [][]string{{"nope"}, {"f", "nope"}, {"g"}} {
		tbl := table.New("bad")
		tbl.AddFloat64Column("g", []float64{3, 2, 1})
		tbl.AddFloat64Column("f", []float64{1, 0, nan()})
		_, err := FromTable(tbl, Options{PartitionFields: fields, MaxChunkRows: 1})
		if err == nil || err.Error() != `colstore: column "f" contains NaN` {
			t.Errorf("fields %v: error %v, want the NaN error", fields, err)
		}
	}
}

func TestUnknownPartitionField(t *testing.T) {
	_, err := FromTable(logs(100), Options{PartitionFields: []string{"country", "nope"}})
	if err == nil || err.Error() != `colstore: unknown partition field "nope"` {
		t.Errorf("error %v, want the unknown-field error", err)
	}
}

// TestSignedZeroKeepsLastSign: −0 and +0 are one global-id, and the
// dictionary keeps the zero of the last such row in store order.
func TestSignedZeroKeepsLastSign(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		vals []float64
		neg  bool
	}{
		{[]float64{negZero, 1, 0}, false},
		{[]float64{0, 1, negZero}, true},
	} {
		tbl := table.New("z")
		tbl.AddFloat64Column("f", tc.vals)
		s, err := FromTable(tbl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := s.Column("f").Dict.(*dict.Float64s).Values()
		if len(d) != 2 || d[0] != 0 || math.Signbit(d[0]) != tc.neg {
			t.Errorf("%v: dictionary %v, want one zero with sign bit %v", tc.vals, d, tc.neg)
		}
	}
}

// TestBuiltStoreHoldsNoSlack: a built store keeps no spare capacity in its
// chunk-dictionaries or numeric dictionaries, which would count against
// the heap for the store's whole life.
func TestBuiltStoreHoldsNoSlack(t *testing.T) {
	tbl := logs(20_000)
	lat := tbl.Column("latency").Ints
	score := make([]float64, len(lat))
	for i, l := range lat {
		score[i] = float64(l) / 3
	}
	tbl.AddFloat64Column("score", score)
	for name, opts := range variants() {
		s, err := FromTable(tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]value.Value, s.NumRows())
		for i := range vals {
			vals[i] = value.Int64(int64(i % 777))
		}
		if _, err := s.AddVirtualColumn(valueColumn("v", value.KindInt64, vals)); err != nil {
			t.Fatal(err)
		}
		for _, cn := range s.Columns() {
			col := s.Column(cn)
			for c, ch := range col.Chunks {
				if cap(ch.GlobalIDs) != len(ch.GlobalIDs) {
					t.Fatalf("%s: %s chunk %d GlobalIDs len %d cap %d", name, cn, c, len(ch.GlobalIDs), cap(ch.GlobalIDs))
				}
			}
			switch d := col.Dict.(type) {
			case *dict.Int64s:
				if v := d.Values(); cap(v) != len(v) {
					t.Fatalf("%s: %s dictionary len %d cap %d", name, cn, len(v), cap(v))
				}
			case *dict.Float64s:
				if v := d.Values(); cap(v) != len(v) {
					t.Fatalf("%s: %s dictionary len %d cap %d", name, cn, len(v), cap(v))
				}
			}
		}
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestQuickDoubleDictionaryInvariant drives the fundamental layout
// equation value = dict[chunkDict[elements[row]]] over random tables.
func TestQuickDoubleDictionaryInvariant(t *testing.T) {
	f := func(strs []string, nums []int64, seed int64) bool {
		n := len(strs)
		if n == 0 || n > 300 {
			return true
		}
		ints := make([]int64, n)
		for i := range ints {
			if len(nums) > 0 {
				ints[i] = nums[i%len(nums)]
			}
		}
		tbl := table.New("q")
		tbl.AddStringColumn("s", strs)
		tbl.AddInt64Column("n", ints)
		s, err := FromTable(tbl, Options{
			PartitionFields:  []string{"s"},
			MaxChunkRows:     16,
			OptimizeElements: true,
		})
		if err != nil {
			return false
		}
		// Reconstructed multiset must equal the input multiset.
		want := map[string]int{}
		for i := 0; i < n; i++ {
			want[strs[i]+"\x1f"+value.Int64(ints[i]).String()]++
		}
		got := map[string]int{}
		for c := 0; c < s.NumChunks(); c++ {
			for r := 0; r < s.ChunkRows(c); r++ {
				got[s.Column("s").ValueAt(c, r).Str()+"\x1f"+s.Column("n").ValueAt(c, r).String()]++
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
