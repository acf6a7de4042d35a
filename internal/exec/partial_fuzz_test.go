package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"powerdrill/internal/sketch"
	"powerdrill/internal/value"
)

// hostilePayloads are version-2 payloads whose counts promise more than the
// payload holds: each must cost an error, not memory.
func hostilePayloads() map[string][]byte {
	huge := binary.AppendUvarint(nil, 1<<62)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := []byte{PartialWireVersion, 0, 0} // no columns, no counters
	oneAgg := cat(head, []byte{1, 0, 1})     // one group, no keys, one aggregate
	return map[string][]byte{
		"columns":  cat([]byte{PartialWireVersion}, huge),
		"counters": cat([]byte{PartialWireVersion, 0}, huge), // the panic at the parent commit
		"groups":   cat(head, huge),
		"keys":     cat(head, []byte{0}, huge),
		"aggs":     cat(head, []byte{0, 0}, huge),
		"ints":     cat(head, []byte{3, 1, byte(value.KindInt64), 0}),
		"string":   cat(head, []byte{1, 1, byte(value.KindString)}, huge),
		"parts":    cat(oneAgg, []byte{byte(arrCounts | arrParts), 2}, huge),
		"sketch":   cat(oneAgg, []byte{byte(arrSketch)}, binary.AppendUvarint(nil, 1<<30), binary.AppendUvarint(nil, 1<<29)),
		"sketch-m": cat(oneAgg, []byte{byte(arrSketch)}, huge, []byte{0}),
		"over-m":   cat(oneAgg, []byte{byte(arrSketch), 1, 2}, make([]byte, 16)),
		"unsorted": cat(oneAgg, []byte{byte(arrSketch), 4, 2}, make([]byte, 16)),
		"mask":     cat(oneAgg, []byte{byte(arrMin | arrMax), byte(value.KindInt64), 0, byte(value.KindInt64), 0}),
		"kind":     cat(head, []byte{1, 1, 9, 0}),
	}
}

func TestDecodePartialHostileCounts(t *testing.T) {
	for name, payload := range hostilePayloads() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodePartial(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %d groups; want an error", name, p.NumGroups())
		}
		// The counts ask for gigabytes; the allowance is for whatever else
		// the test binary's goroutines allocate meanwhile.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: decoding a %d byte payload allocated %d bytes", name, len(payload), got)
		}
	}
}

// FuzzDecodePartial feeds the decoder arbitrary bytes: it may refuse them,
// never panic; and what it accepts re-encodes to a payload that decodes to
// an equal partial, merges and finalizes.
func FuzzDecodePartial(f *testing.F) {
	enc := EncodePartial(samplePartial())
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(EncodePartial(&Partial{}))
	for _, payload := range hostilePayloads() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(data)
		if err != nil {
			return
		}
		enc := EncodePartial(p)
		q, err := DecodePartial(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if in, out := p.rowwise().String(), q.rowwise().String(); in != out || !bytes.Equal(EncodePartial(q), enc) {
			t.Fatalf("re-encoding changed the partial:\n in  %s\n out %s", in, out)
		}
		merged, err := MergeAll([]*Partial{p, q})
		if err != nil {
			t.Fatalf("merging a decoded partial with itself: %v", err)
		}
		if merged.n > p.n || !bytes.Equal(EncodePartial(p), enc) {
			t.Fatalf("merge of %d groups with themselves has %d, or wrote to a source", p.n, merged.n)
		}
	})
}

// TestMergeLeavesSourcesUntouched pins the merge's ownership rule: what a
// merge adopts from a source it copies, so a later merge into the same
// destination cannot write through into a partial the caller kept.
func TestMergeLeavesSourcesUntouched(t *testing.T) {
	leaf := func(sum float64, hashes ...uint64) *Partial {
		sk := sketch.NewKMV(8)
		for _, h := range hashes {
			sk.AddHash(h)
		}
		ref := &refPartial{Columns: []string{"k", "s", "d"}, Groups: []refGroup{
			{Keys: []value.Value{value.String("x")}, Cells: []refCell{{Count: 1, SumFParts: []float64{sum}}, {Sketch: sk}}},
			{Keys: []value.Value{value.String("y")}, Cells: []refCell{{Count: 2, SumFParts: []float64{-sum}}, {Sketch: sk}}},
		}}
		return ref.columnar([]aggArrays{arrCounts | arrParts, arrSketch}, []value.Kind{value.KindString}, []value.Kind{0, 0}, 8)
	}
	a, b := leaf(1.5, 3, 9), leaf(2.25, 1, 9, 27)
	before := EncodePartial(a)
	dst := &Partial{}
	for _, src := range []*Partial{a, b} {
		if err := MergePartials(dst, src); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(EncodePartial(a), before) {
		t.Fatalf("merging b into dst changed a:\n now  %s\n was  %s", a.rowwise(), leaf(1.5, 3, 9).rowwise())
	}
	want := "[x]: {n=2 i=0/false f=[0x1.8p+00 0x1.2p+01] min=<invalid> max=<invalid>} {n=0 i=0/false f=[] min=<invalid> max=<invalid> m=8 [1 3 9 1b]}\n"
	if got := dst.rowwise().String(); !strings.Contains(got, want) {
		t.Fatalf("merged partial:\n%s\nwant a line\n%s", got, want)
	}
}

// TestDecodePartialAllocations pins the decoder's cost model: allocations
// go with the number of columns, not the number of groups.
func TestDecodePartialAllocations(t *testing.T) {
	twoKey := func(n int) []byte {
		ref := &refPartial{Columns: []string{"k", "u", "v"}}
		for i := 0; i < n; i++ {
			ref.Groups = append(ref.Groups, refGroup{
				Keys:  []value.Value{value.String(fmt.Sprintf("c%02d", i%40)), value.String(fmt.Sprintf("user%d", i))},
				Cells: []refCell{{Count: int64(i)}},
			})
		}
		return EncodePartial(ref.columnar([]aggArrays{arrCounts}, []value.Kind{value.KindString, value.KindString}, []value.Kind{0}, 0))
	}
	allocs := func(payload []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodePartial(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(twoKey(40)), allocs(twoKey(4000))
	const columns = 3 + 2 + 1 // names, key columns, aggregate columns
	if large != small || large > 4*columns {
		t.Fatalf("decoding 4000 groups allocates %v times, 40 groups %v times; want equal and at most %d", large, small, 4*columns)
	}
}

// FuzzPartialColumnarVsReference pins the columnar merge and finalize to
// the row-wise code they replaced. Random children of one query — 0–3 key
// columns of mixed kinds (empty strings; the int 3, the float 3 and the
// string "3" side by side), 1–4 aggregates of every kind, float parts with
// NaN, ±0 and ±Inf, groups absent from some children, children without
// groups, sketches under and over m — are merged in a random tree shape,
// with or without an encode/decode hop at each edge, and finalized under a
// random ORDER BY / HAVING / LIMIT. Rows, stats and coverage must equal,
// bit for bit, the reference's flat merge in child order; and no leaf may
// have changed.
func FuzzPartialColumnarVsReference(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(diffColumnarVsReference)
}

// TestPartialColumnarVsReference runs 1 000 fixed seeds of the fuzz target.
func TestPartialColumnarVsReference(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		diffColumnarVsReference(t, seed)
	}
}

func diffColumnarVsReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sh := randomPartialShape(rng)
	stmt := mustParseStmt(t, sh.query)

	refs := make([]*refPartial, 2+rng.Intn(5))
	leaves := make([]*Partial, len(refs))
	encoded := make([][]byte, len(refs))
	for c := range refs {
		refs[c] = sh.randomChild(rng)
		leaves[c] = refs[c].columnar(sh.layouts, sh.keyKinds, sh.valKinds, sh.m)
		encoded[c] = EncodePartial(leaves[c])
	}
	want := referenceMergeFinalize(t, stmt, refs)

	hop := func(p *Partial) *Partial {
		if rng.Intn(2) == 0 {
			return p
		}
		q, err := DecodePartial(EncodePartial(p))
		if err != nil {
			t.Fatalf("seed %d: hop: %v", seed, err)
		}
		return q
	}
	var merge func(parts []*Partial) *Partial
	merge = func(parts []*Partial) *Partial {
		if len(parts) == 1 {
			return hop(parts[0])
		}
		// Cut the children into 2..len consecutive subtrees.
		var kids []*Partial
		for cuts := 1 + rng.Intn(len(parts)-1); len(parts) > 0; cuts-- {
			w := len(parts)
			if cuts > 0 {
				w = 1 + rng.Intn(len(parts)-cuts)
			}
			kids = append(kids, merge(parts[:w]))
			parts = parts[w:]
		}
		if rng.Intn(3) == 0 { // pairwise, as bench/ and older callers merge
			acc := &Partial{}
			for _, k := range kids {
				if err := MergePartials(acc, k); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			return hop(acc)
		}
		merged, err := MergeAll(kids)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return hop(merged)
	}
	got, err := FinalizePartial(stmt, merge(leaves))
	if err != nil {
		t.Fatalf("seed %d: FinalizePartial %q: %v", seed, sh.query, err)
	}
	requireSameRows(t, sh.query, fmt.Sprintf("seed %d", seed), got.Rows, want.Rows)
	if got.Stats != want.Stats || got.Coverage != want.Coverage || strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		t.Fatalf("seed %d: stats %+v coverage %v columns %q, want %+v, %v, %q",
			seed, got.Stats, got.Coverage, got.Columns, want.Stats, want.Coverage, want.Columns)
	}
	for c := range leaves {
		if !bytes.Equal(EncodePartial(leaves[c]), encoded[c]) {
			t.Fatalf("seed %d: the merges wrote to leaf %d", seed, c)
		}
	}
}

// partialShape is one random query's shape: what every child agrees on.
type partialShape struct {
	query    string
	columns  []string
	keyKinds []value.Kind
	fns      []aggFn
	layouts  []aggArrays
	valKinds []value.Kind
	m        int
}

func randomPartialShape(rng *rand.Rand) *partialShape {
	kinds := []value.Kind{value.KindString, value.KindInt64, value.KindFloat64}
	sh := &partialShape{m: []int{3, 8}[rng.Intn(2)]}
	var items, keys, outputs []string
	for k := rng.Intn(4); k > 0; k-- {
		name := fmt.Sprintf("k%d", len(keys))
		keys = append(keys, name)
		sh.keyKinds = append(sh.keyKinds, kinds[rng.Intn(3)])
	}
	// The select list may permute the keys (partialItems finds them by name).
	items = append(items, keys...)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	outputs = append(outputs, items...)
	calls := []struct {
		fn   aggFn
		call string
	}{{aggCount, "COUNT(*)"}, {aggSum, "SUM(x)"}, {aggAvg, "AVG(x)"}, {aggMin, "MIN(x)"}, {aggMax, "MAX(x)"}, {aggCountDistinct, "COUNT(DISTINCT x)"}}
	for j, na := 0, 1+rng.Intn(4); j < na; j++ {
		c := calls[rng.Intn(len(calls))]
		sh.fns = append(sh.fns, c.fn)
		sh.layouts = append(sh.layouts, aggLayout(c.fn, rng.Intn(2) == 0))
		sh.valKinds = append(sh.valKinds, kinds[rng.Intn(3)])
		items = append(items, fmt.Sprintf("%s AS a%d", c.call, j))
		outputs = append(outputs, fmt.Sprintf("a%d", j))
	}
	sh.columns = outputs
	q := "SELECT " + strings.Join(items, ", ") + " FROM data"
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(keys, ", ")
	}
	if rng.Intn(4) == 0 {
		switch minMax := sh.fns[0] == aggMin || sh.fns[0] == aggMax; {
		case minMax && sh.valKinds[0] == value.KindString:
			q += ` HAVING a0 >= "a"`
		case rng.Intn(2) == 0:
			q += " HAVING a0 > 1"
		default:
			q += " HAVING a0 <= 5"
		}
	}
	order := append([]string(nil), outputs...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	order = order[:rng.Intn(min(3, len(order))+1)]
	for i := range order {
		if rng.Intn(2) == 0 {
			order[i] += " DESC"
		}
	}
	if len(order) > 0 {
		q += " ORDER BY " + strings.Join(order, ", ")
	}
	if l := []int{-1, 0, 1, 3, 10, 1000}[rng.Intn(6)]; l >= 0 {
		q += fmt.Sprintf(" LIMIT %d", l)
	}
	sh.query = q + ";"
	return sh
}

// randomValue draws from small pools, so that children share keys and
// groups tie; the number 3 exists in every kind.
func randomValue(rng *rand.Rand, kind value.Kind) value.Value {
	switch kind {
	case value.KindInt64:
		return value.Int64([]int64{-3, 0, 3, 3, 12, math.MinInt64}[rng.Intn(6)])
	case value.KindFloat64:
		return value.Float64([]float64{0, math.Copysign(0, -1), 3, 1.5, -1.5, math.Inf(1), math.Inf(-1)}[rng.Intn(7)])
	}
	return value.String([]string{"", "3", "a", "ab", "b", "a\x00b"}[rng.Intn(6)])
}

// randomChild draws one child's partial: a leaf's, or an inner node's with
// several float parts per group.
func (sh *partialShape) randomChild(rng *rand.Rand) *refPartial {
	p := &refPartial{Columns: sh.columns}
	p.Stats.RowsTotal = int64(rng.Intn(1000))
	p.Stats.RowsCovered = int64(rng.Intn(int(p.Stats.RowsTotal) + 1))
	p.Stats.ChunksScanned, p.Stats.ShardsMissing = int64(rng.Intn(9)), int64(rng.Intn(2))
	n := rng.Intn(7) // groups wanted; 0 is a child nothing matched on
	if len(sh.keyKinds) == 0 {
		n = min(n, 1)
	}
	counts := []int64{0, 1, 1, 2, 3, 7}
	ints := []int64{-3, 0, 0, 5, 5, 12}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, 1.5, -1.5, math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300}
	seen := map[string]bool{}
	for ; n > 0; n-- {
		g := refGroup{Cells: make([]refCell, len(sh.layouts))}
		for _, kind := range sh.keyKinds {
			g.Keys = append(g.Keys, randomValue(rng, kind))
		}
		if key := refKeyString(g.Keys); seen[key] {
			continue
		} else {
			seen[key] = true
		}
		for j, has := range sh.layouts {
			c := &g.Cells[j]
			if has&arrCounts != 0 {
				c.Count = counts[rng.Intn(len(counts))]
			}
			if has&arrSumI != 0 {
				c.SumI, c.SumIsInt = ints[rng.Intn(len(ints))], true
			}
			if has&arrParts != 0 {
				for k := []int{1, 1, 1, 0, 2, 5}[rng.Intn(6)]; k > 0; k-- {
					c.SumFParts = append(c.SumFParts, floats[rng.Intn(len(floats))])
				}
			}
			if has&arrMin != 0 {
				c.Min = randomValue(rng, sh.valKinds[j])
			}
			if has&arrMax != 0 {
				c.Max = randomValue(rng, sh.valKinds[j])
			}
			if has&arrSketch != 0 && rng.Intn(5) > 0 {
				c.Sketch = sketch.NewKMV(sh.m)
				for k := rng.Intn(3 * sh.m); k > 0; k-- {
					c.Sketch.AddUint64(uint64(rng.Intn(4 * sh.m)))
				}
			}
		}
		p.Groups = append(p.Groups, g)
	}
	return p
}
