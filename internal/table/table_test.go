package table

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"powerdrill/internal/value"
)

func sample() *Table {
	t := New("t")
	t.AddStringColumn("country", []string{"de", "us", "de", "fr"})
	t.AddInt64Column("latency", []int64{10, 20, 30, 40})
	t.AddFloat64Column("score", []float64{0.1, 0.2, 0.3, 0.4})
	return t
}

func TestBasics(t *testing.T) {
	tbl := sample()
	if tbl.NumRows() != 4 || len(tbl.Cols) != 3 {
		t.Fatalf("NumRows=%d Cols=%d", tbl.NumRows(), len(tbl.Cols))
	}
	if c := tbl.Column("latency"); c == nil || c.Kind != value.KindInt64 {
		t.Fatal("Column(latency) wrong")
	}
	if tbl.Column("nope") != nil {
		t.Fatal("Column(nope) should be nil")
	}
	names := tbl.ColumnNames()
	if len(names) != 3 || names[0] != "country" || names[2] != "score" {
		t.Fatalf("ColumnNames = %v", names)
	}
	row := tbl.Row(1)
	if row[0].Str() != "us" || row[1].Int() != 20 || row[2].Float() != 0.2 {
		t.Fatalf("Row(1) = %v", row)
	}
}

func TestColumnValue(t *testing.T) {
	tbl := sample()
	if v := tbl.Column("country").Value(3); v.Str() != "fr" {
		t.Errorf("Value = %v", v)
	}
	if v := tbl.Column("latency").Value(0); v.Int() != 10 {
		t.Errorf("Value = %v", v)
	}
	if v := tbl.Column("score").Value(2); v.Float() != 0.3 {
		t.Errorf("Value = %v", v)
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := New("empty")
	if tbl.NumRows() != 0 {
		t.Error("empty table has rows")
	}
}

func TestAddColumnPanics(t *testing.T) {
	tbl := sample()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched length accepted")
			}
		}()
		tbl.AddInt64Column("bad", []int64{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate column accepted")
			}
		}()
		tbl.AddStringColumn("country", []string{"a", "b", "c", "d"})
	}()
}

func TestPermute(t *testing.T) {
	tbl := sample()
	out := tbl.Permute([]int{3, 2, 1, 0})
	if got := out.Column("country").Strs; got[0] != "fr" || got[3] != "de" {
		t.Errorf("permuted strings = %v", got)
	}
	if got := out.Column("latency").Ints; got[0] != 40 || got[3] != 10 {
		t.Errorf("permuted ints = %v", got)
	}
	if got := out.Column("score").Floats; got[1] != 0.3 {
		t.Errorf("permuted floats = %v", got)
	}
	// Original untouched.
	if tbl.Column("country").Strs[0] != "de" {
		t.Error("Permute mutated the source")
	}
}

func TestPermuteRejectsInvalid(t *testing.T) {
	tbl := sample()
	for _, perm := range [][]int{
		{0, 1, 2},          // short
		{0, 1, 2, 2},       // duplicate
		{0, 1, 2, 4},       // out of range
		{0, 1, 2, -1},      // negative
		{0, 1, 2, 3, 3, 3}, // long
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) accepted", perm)
				}
			}()
			tbl.Permute(perm)
		}()
	}
}

func TestSelect(t *testing.T) {
	tbl := sample()
	out := tbl.Select([]int{1, 1, 3})
	if out.NumRows() != 3 {
		t.Fatalf("NumRows = %d", out.NumRows())
	}
	if got := out.Column("country").Strs; got[0] != "us" || got[1] != "us" || got[2] != "fr" {
		t.Errorf("selected = %v", got)
	}
}

func TestShard(t *testing.T) {
	tbl := New("big")
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	tbl.AddInt64Column("id", vals)
	shards := tbl.Shard(7)
	if len(shards) != 7 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	seen := map[int64]bool{}
	for _, s := range shards {
		total += s.NumRows()
		for _, v := range s.Column("id").Ints {
			if seen[v] {
				t.Fatalf("row %d in two shards", v)
			}
			seen[v] = true
		}
	}
	if total != 10_000 {
		t.Errorf("shards hold %d rows, want 10000", total)
	}
	// Quasi-random sharding should be roughly balanced (within 3x of even).
	for i, s := range shards {
		if s.NumRows() < 10_000/7/3 || s.NumRows() > 3*10_000/7 {
			t.Errorf("shard %d badly balanced: %d rows", i, s.NumRows())
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Shard(0) accepted")
			}
		}()
		tbl.Shard(0)
	}()
}

// TestRank: ids compare as value.Compare compares the values, distinct is
// ascending with no spare capacity, and Compare-equal values (−0 and +0,
// all NaNs) share one id.
func TestRank(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	tbl := New("r")
	tbl.AddStringColumn("s", []string{"b", "a", "c", "a", "", "b"})
	tbl.AddInt64Column("i", []int64{5, -3, math.MaxInt64, -3, math.MinInt64, 0})
	tbl.AddFloat64Column("f", []float64{2.5, negZero, nan, 0, math.Inf(-1), nan})
	for _, col := range tbl.Cols {
		ids, distinct := col.Rank()
		if distinct.Kind != col.Kind || distinct.Len() == 0 {
			t.Fatalf("%s: distinct %+v", col.Name, distinct)
		}
		for a := range ids {
			if int(ids[a]) >= distinct.Len() || distinct.Value(int(ids[a])).Compare(col.Value(a)) != 0 {
				t.Errorf("%s: row %d id %d does not hold %v", col.Name, a, ids[a], col.Value(a))
			}
			for b := range ids {
				va, vb := col.Value(a), col.Value(b)
				if va.Kind() == value.KindFloat64 && (math.IsNaN(va.Float()) || math.IsNaN(vb.Float())) {
					continue
				}
				if got, want := cmp.Compare(ids[a], ids[b]), va.Compare(vb); got != want {
					t.Errorf("%s: rows %d, %d: ids compare %d, values %d", col.Name, a, b, got, want)
				}
			}
		}
		for i := 1; i < distinct.Len(); i++ {
			if distinct.Value(i-1).Compare(distinct.Value(i)) >= 0 && col.Kind != value.KindFloat64 {
				t.Errorf("%s: distinct not ascending at %d", col.Name, i)
			}
		}
	}
	ids, distinct := tbl.Column("f").Rank()
	if want := []uint32{3, 2, 0, 2, 1, 0}; !slices.Equal(ids, want) {
		t.Errorf("float ids %v, want %v (NaNs lowest, zeros one id)", ids, want)
	}
	if !math.Signbit(distinct.Floats[2]) || cap(distinct.Floats) != len(distinct.Floats) {
		t.Errorf("float distinct %v (cap %d): want the first row's −0, no spare capacity", distinct.Floats, cap(distinct.Floats))
	}
	empty := &Column{Name: "e", Kind: value.KindInt64}
	if ids, distinct := empty.Rank(); len(ids) != 0 || distinct.Len() != 0 {
		t.Errorf("empty column ranked to %v, %v", ids, distinct.Ints)
	}
}
