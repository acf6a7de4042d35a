package partition

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"powerdrill/internal/table"
	"powerdrill/internal/value"
	"powerdrill/internal/workload"
)

// Spec names a partitioning run over a raw table.
type Spec struct {
	Fields       []string
	MaxChunkRows int
}

// partitionTable ranks spec's fields of tbl and partitions on the ids, the
// way the column store does.
func partitionTable(tbl *table.Table, spec Spec) (*Result, error) {
	keys := make([][]uint32, len(spec.Fields))
	for i, f := range spec.Fields {
		if tbl.Column(f) == nil {
			return nil, fmt.Errorf("partition: unknown field %q", f)
		}
		keys[i] = rankOf(tbl, f)
	}
	return Partition(keys, tbl.NumRows(), spec.MaxChunkRows), nil
}

func rankOf(tbl *table.Table, field string) []uint32 {
	ids, _ := tbl.Column(field).Rank()
	return ids
}

// referencePartition is the partitioner over boxed values that Partition
// replaced, kept as its oracle: every split and every chunk comparison
// reads value.Values. Its distinct key is the Value itself, so values that
// Compare calls equal (−0 and +0) are one value, as they are one id.
func referencePartition(tbl *table.Table, spec Spec) (*Result, error) {
	cols := make([]*table.Column, len(spec.Fields))
	for i, f := range spec.Fields {
		if cols[i] = tbl.Column(f); cols[i] == nil {
			return nil, fmt.Errorf("partition: unknown field %q", f)
		}
	}
	n := tbl.NumRows()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if n == 0 {
		return &Result{Perm: all, Bounds: []int{0, 0}}, nil
	}
	h := &refHeap{{rows: all}}
	seq := 1
	var done []*refChunk
	for h.Len() > 0 {
		c := heap.Pop(h).(*refChunk)
		if len(c.rows) <= spec.MaxChunkRows {
			done = append(done, c)
			continue
		}
		left, right, ok := refSplit(c.rows, cols)
		if !ok {
			done = append(done, c)
			continue
		}
		heap.Push(h, &refChunk{rows: left, seq: seq})
		heap.Push(h, &refChunk{rows: right, seq: seq + 1})
		seq += 2
	}
	sort.Slice(done, func(i, j int) bool { return refCompareChunks(done[i], done[j], cols) < 0 })
	res := &Result{Bounds: []int{0}}
	for _, c := range done {
		res.Perm = append(res.Perm, c.rows...)
		res.Bounds = append(res.Bounds, len(res.Perm))
	}
	return res, nil
}

type refChunk struct {
	rows []int
	seq  int
}

type refHeap []*refChunk

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if len(h[i].rows) != len(h[j].rows) {
		return len(h[i].rows) > len(h[j].rows)
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refChunk)) }
func (h *refHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

func refSplit(rows []int, cols []*table.Column) (left, right []int, ok bool) {
	for _, col := range cols {
		distinct := refDistinct(rows, col)
		if len(distinct) < 2 {
			continue
		}
		pivot := refPivot(rows, col, distinct)
		for _, r := range rows {
			if col.Value(r).Compare(pivot) < 0 {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		return left, right, true
	}
	return nil, nil, false
}

// refDistinct returns the sorted distinct values among the first 4 097
// met in row order.
func refDistinct(rows []int, col *table.Column) []value.Value {
	seen := make(map[value.Value]value.Value)
	for _, r := range rows {
		v := col.Value(r)
		seen[v] = v
		if len(seen) > 4096 {
			break
		}
	}
	out := make([]value.Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func refPivot(rows []int, col *table.Column, distinct []value.Value) value.Value {
	counts := make([]int, len(distinct))
	for _, r := range rows {
		v := col.Value(r)
		i := sort.Search(len(distinct), func(i int) bool { return distinct[i].Compare(v) >= 0 })
		if i < len(distinct) && distinct[i].Compare(v) == 0 {
			counts[i]++
		}
	}
	half := len(rows) / 2
	acc, best, bestDiff := 0, 1, len(rows)
	for i := 0; i < len(distinct)-1; i++ {
		acc += counts[i]
		diff := acc - half
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = i + 1
		}
	}
	return distinct[best]
}

func refCompareChunks(a, b *refChunk, cols []*table.Column) int {
	for _, col := range cols {
		if c := refMin(a.rows, col).Compare(refMin(b.rows, col)); c != 0 {
			return c
		}
	}
	switch {
	case a.rows[0] < b.rows[0]:
		return -1
	case a.rows[0] > b.rows[0]:
		return 1
	}
	return 0
}

func refMin(rows []int, col *table.Column) value.Value {
	m := col.Value(rows[0])
	for _, r := range rows[1:] {
		if v := col.Value(r); v.Compare(m) < 0 {
			m = v
		}
	}
	return m
}

// checkVsReference partitions tbl both ways and fails on any difference
// in Perm or Bounds.
func checkVsReference(t *testing.T, tbl *table.Table, spec Spec) {
	t.Helper()
	got, err := partitionTable(tbl, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referencePartition(tbl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Bounds, want.Bounds) {
		t.Fatalf("%+v: bounds %v, reference %v", spec, got.Bounds, want.Bounds)
	}
	if !slices.Equal(got.Perm, want.Perm) {
		t.Fatalf("%+v: permutations differ", spec)
	}
}

// TestPartitionMatchesReference runs the id partitioner and the oracle on
// the tables and specs the other tests in this package use, plus keys led
// by a field with more distinct values than a split weighs.
func TestPartitionMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		rows int
		seed int64
		spec Spec
	}{
		{20_000, 42, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 1000}},
		{50_000, 42, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 2000}},
		{30_000, 42, Spec{Fields: []string{"country", "table_name"}, MaxChunkRows: 1500}},
		{100, 42, Spec{Fields: []string{"country"}, MaxChunkRows: 1000}},
		{500, 7, Spec{Fields: []string{"country", "user"}, MaxChunkRows: 50}},
		{30_000, 1, Spec{Fields: []string{"user", "country"}, MaxChunkRows: 700}},
		{30_000, 2, Spec{Fields: []string{"timestamp"}, MaxChunkRows: 2000}},
		{20_000, 3, Spec{Fields: []string{"latency", "table_name", "country"}, MaxChunkRows: 300}},
	} {
		checkVsReference(t, workload.QueryLogs(workload.LogsSpec{Rows: tc.rows, Seed: tc.seed}), tc.spec)
	}
}

// fuzzTable builds a table of rows rows from seed: a string, an int64 and
// a float64 field whose distinct-value counts are drawn from card (from a
// single value to more than a split weighs), plus a constant field. The
// floats include both zeros.
func fuzzTable(seed int64, rows int, card uint8) *table.Table {
	r := rand.New(rand.NewSource(seed))
	cards := []int{1, 2, 7, 60, 5000, 100_000}
	pick := func(shift uint) int { return cards[int(card>>shift)%len(cards)] }
	sc, ic, fc := pick(0), pick(2), pick(4)
	strs := make([]string, rows)
	ints := make([]int64, rows)
	flts := make([]float64, rows)
	one := make([]string, rows)
	for i := 0; i < rows; i++ {
		strs[i] = fmt.Sprintf("s%05d", r.Intn(sc))
		ints[i] = int64(r.Intn(ic)) - int64(ic/2)
		switch k := r.Intn(fc + 2); k {
		case 0:
			flts[i] = math.Copysign(0, -1)
		case 1:
			flts[i] = 0
		default:
			flts[i] = float64(k-fc/2) / 4
		}
		one[i] = "x"
	}
	tbl := table.New("fuzz")
	tbl.AddStringColumn("s", strs)
	tbl.AddInt64Column("i", ints)
	tbl.AddFloat64Column("f", flts)
	tbl.AddStringColumn("one", one)
	return tbl
}

// FuzzPartitionVsReference checks the id partitioner against the boxed
// oracle on random tables: 1–3 partition fields of every kind, ties,
// constant fields, fields wider than 4 096 distinct values, thresholds
// from one row to past the row count, and empty tables.
func FuzzPartitionVsReference(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint16(5), uint8(0))
	f.Add(int64(2), uint16(300), uint8(0x15), uint16(0), uint8(1))
	f.Add(int64(3), uint16(2000), uint8(0x2a), uint16(40), uint8(6))
	f.Add(int64(4), uint16(9000), uint8(0x14), uint16(500), uint8(5))
	f.Add(int64(5), uint16(6000), uint8(0x04), uint16(6100), uint8(8))
	f.Add(int64(6), uint16(5000), uint8(0x30), uint16(1), uint8(10))
	f.Add(int64(7), uint16(8000), uint8(0x05), uint16(90), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, card uint8, maxRows uint16, fields uint8) {
		n := int(rows) % 10_000
		tbl := fuzzTable(seed, n, card)
		// fields picks where in the rotation the key starts (low two
		// bits) and how many fields it has.
		names := []string{"s", "i", "f", "one"}
		k := int(fields) % len(names)
		names = append(names[k:], names[:k]...)
		spec := Spec{
			Fields:       names[:1+int(fields>>2)%3],
			MaxChunkRows: 1 + int(maxRows)%(n+10),
		}
		checkVsReference(t, tbl, spec)
	})
}
