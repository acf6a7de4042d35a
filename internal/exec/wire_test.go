package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"powerdrill/internal/value"
)

func samplePartial() *Partial {
	return &Partial{
		Columns: []string{"country", "sum(f)", "cnt"},
		Stats: QueryStats{
			ChunksTotal: 7, ChunksScanned: 3, RowsScanned: 1000,
			RowsTotal: 5000, RowsCovered: 5000, ShardsMissing: 1,
		},
		Groups: []PartialGroup{
			{
				Keys: []value.Value{value.String("ch"), value.Int64(3)},
				Cells: []PartialCell{
					{Count: 12, SumI: 40, SumIsInt: true, Min: value.Int64(-3), Max: value.Int64(9)},
					{Count: 12, SumF: 1.5, SumFParts: []float64{0.25, 1.25}, Sketch: []byte{1, 2, 3}},
				},
			},
			{
				Keys: []value.Value{value.Float64(math.Inf(-1)), value.Value{}},
				Cells: []PartialCell{
					{Count: 1, SumF: math.Copysign(0, -1), SumFParts: []float64{math.Copysign(0, -1)}},
					{Min: value.String("a"), Max: value.String("z")},
				},
			},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := samplePartial()
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", p, got)
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
// with distinct values via reflection and asserts Add sums all of them —
// a new counter added to QueryStats but not to Add fails here, instead of
// silently under-reporting wherever per-unit stats are merged.
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
	}
}

func TestWireVersionGate(t *testing.T) {
	enc := EncodePartial(samplePartial())
	enc[0] = PartialWireVersion + 1
	if _, err := DecodePartial(enc); err == nil {
		t.Fatal("decoding a future version succeeded; want loud failure")
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
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		parts := make([]float64, n)
		for i := range parts {
			// Wide magnitude spread makes float addition visibly
			// non-associative, which is the point of the canonical fold.
			parts[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40)
		}
		flat := PartialCell{SumFParts: append([]float64(nil), parts...)}
		want := math.Float64bits(flat.sumFloat())

		// A random two-level tree over the same parts.
		tree := PartialCell{}
		for i := 0; i < n; {
			w := 1 + rng.Intn(4)
			if i+w > n {
				w = n - i
			}
			inner := PartialCell{SumFParts: append([]float64(nil), parts[i:i+w]...)}
			if err := tree.merge(&inner); err != nil {
				t.Fatal(err)
			}
			i += w
		}
		if got := math.Float64bits(tree.sumFloat()); got != want {
			t.Fatalf("trial %d: tree fold %x != flat fold %x", trial, got, want)
		}
	}
}
