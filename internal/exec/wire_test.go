package exec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"powerdrill/internal/sketch"
	"powerdrill/internal/value"
)

// samplePartial holds every kind of key column and every aggregate array.
func samplePartial() *Partial {
	sk := sketch.NewKMV(4)
	for _, h := range []uint64{9, 3, 1 << 63} {
		sk.AddHash(h)
	}
	ref := &refPartial{
		Columns: []string{"country", "n", "f", "sum(n)", "avg(f)", "min(s)", "max(f)", "distinct"},
		Stats: QueryStats{
			ChunksTotal: 7, ChunksScanned: 3, RowsScanned: 1000,
			RowsTotal: 5000, RowsCovered: 5000, ShardsMissing: 1,
		},
		Groups: []refGroup{
			{
				Keys: []value.Value{value.String("ch"), value.Int64(3), value.Float64(math.Inf(-1))},
				Cells: []refCell{
					{Count: 12, SumI: -40, SumIsInt: true},
					{Count: 12, SumFParts: []float64{0.25, 1.25}},
					{Min: value.String("a")},
					{Max: value.Float64(math.NaN())},
					{Sketch: sk},
				},
			},
			{
				Keys: []value.Value{value.String(""), value.Int64(math.MinInt64), value.Float64(math.Copysign(0, -1))},
				Cells: []refCell{
					{Count: 1, SumI: math.MaxInt64, SumIsInt: true},
					{SumFParts: []float64{math.Copysign(0, -1)}},
					{Min: value.String("")},
					{Max: value.Float64(9)},
					{},
				},
			},
		},
	}
	return ref.columnar(
		[]aggArrays{arrCounts | arrSumI, arrCounts | arrParts, arrMin, arrMax, arrSketch},
		[]value.Kind{value.KindString, value.KindInt64, value.KindFloat64},
		[]value.Kind{0, 0, value.KindString, value.KindFloat64, 0}, 4)
}

// requireSamePartial demands equal partials: the same encoding (which
// covers every array) and the same row-wise rendering.
func requireSamePartial(t testing.TB, what string, got, want *Partial) {
	t.Helper()
	if !bytes.Equal(EncodePartial(got), EncodePartial(want)) {
		t.Fatalf("%s: partials differ:\n got %s\nwant %s", what, got.rowwise(), want.rowwise())
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := samplePartial()
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	requireSamePartial(t, "round trip", got, p)
	if in, out := p.rowwise().String(), got.rowwise().String(); in != out || got.NumGroups() != 2 {
		t.Fatalf("round trip mismatch:\n in  %s\n out %s", in, out)
	}
}

// TestWireStatsCoversEveryField fills every QueryStats field with a
// distinct value via reflection and asserts the codec carries all of
// them — a new counter added to QueryStats but not to
// statsCounters/setStatsCounters fails here.
func TestWireStatsCoversEveryField(t *testing.T) {
	var qs QueryStats
	v := reflect.ValueOf(&qs).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(100 + i))
	}
	p := &Partial{Stats: qs}
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Stats != qs {
		t.Fatalf("stats dropped in transit:\n in  %+v\n out %+v", qs, got.Stats)
	}
	if n := len(statsCounters(&qs)); n != v.NumField() {
		t.Fatalf("statsCounters lists %d counters, QueryStats has %d fields", n, v.NumField())
	}
}

// TestQueryStatsAddCoversEveryField fills every field of two QueryStats
// with distinct values via reflection and asserts Add sums all of them,
// and that each is an int64 with a json tag — the shape Add's walk, the
// wire and /statz rely on.
func TestQueryStatsAddCoversEveryField(t *testing.T) {
	var a, b QueryStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(100 + i))
		vb.Field(i).SetInt(int64(1000 + 7*i))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(1100+8*i); got != want {
			t.Errorf("Add dropped %s: got %d, want %d", va.Type().Field(i).Name, got, want)
		}
		if f := va.Type().Field(i); f.Type.Kind() != reflect.Int64 || f.Tag.Get("json") == "" {
			t.Errorf("%s is a %s tagged %q: every counter is an int64 with a json tag, its /statz name", f.Name, f.Type, f.Tag)
		}
	}
}

func TestWireVersionGate(t *testing.T) {
	enc := EncodePartial(samplePartial())
	enc[0] = PartialWireVersion + 1
	if _, err := DecodePartial(enc); err == nil {
		t.Fatal("decoding a future version succeeded; want loud failure")
	}
	// What the version-1 encoder wrote for an empty partial: version, no
	// columns, no counters, no groups.
	if _, err := DecodePartial([]byte{1, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), "wire version 1") {
		t.Fatalf("decoding a version-1 payload: %v; want a version error", err)
	}
	if _, err := DecodePartial(nil); err == nil {
		t.Fatal("decoding empty payload succeeded")
	}
}

// TestWireTruncationSafe decodes every strict prefix of a valid encoding:
// all must fail with an error, none may panic or succeed.
func TestWireTruncationSafe(t *testing.T) {
	enc := EncodePartial(samplePartial())
	for n := 1; n < len(enc); n++ {
		if _, err := DecodePartial(enc[:n]); err == nil {
			t.Fatalf("decoding %d/%d byte prefix succeeded", n, len(enc))
		}
	}
}

// TestSumFloatTopologyInvariant checks the canonical fold: however the
// per-leaf parts are grouped into intermediate merges, the root's float
// total is bit-for-bit identical.
func TestSumFloatTopologyInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	leaf := func(part float64) *Partial {
		ref := &refPartial{Columns: []string{"s"}, Groups: []refGroup{{Cells: []refCell{{Count: 1, SumFParts: []float64{part}}}}}}
		return ref.columnar([]aggArrays{arrCounts | arrParts}, nil, []value.Kind{0}, 0)
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		leaves := make([]*Partial, n)
		for i := range leaves {
			// Wide magnitude spread makes float addition visibly
			// non-associative, which is the point of the canonical fold.
			leaves[i] = leaf(math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40))
		}
		flat, err := MergeAll(leaves)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Float64bits(flat.aggs[0].sumFloat(0))

		// A random two-level tree over the same parts.
		tree := &Partial{}
		for i := 0; i < n; {
			w := min(1+rng.Intn(4), n-i)
			inner, err := MergeAll(leaves[i : i+w])
			if err != nil {
				t.Fatal(err)
			}
			if err := MergePartials(tree, inner); err != nil {
				t.Fatal(err)
			}
			i += w
		}
		if got := math.Float64bits(tree.aggs[0].sumFloat(0)); got != want || tree.aggs[0].counts[0] != int64(n) {
			t.Fatalf("trial %d: tree fold %x of %d != flat fold %x", trial, got, tree.aggs[0].counts[0], want)
		}
	}
}
