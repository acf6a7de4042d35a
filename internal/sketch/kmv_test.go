package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactBelowM(t *testing.T) {
	k := NewKMV(1024)
	for i := 0; i < 500; i++ {
		k.AddString(fmt.Sprintf("v%d", i))
	}
	if got := k.Estimate(); got != 500 {
		t.Errorf("Estimate below m = %d, want exact 500", got)
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	k := NewKMV(256)
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 100; i++ {
			k.AddString(fmt.Sprintf("dup%d", i))
		}
	}
	if got := k.Estimate(); got != 100 {
		t.Errorf("Estimate with duplicates = %d, want 100", got)
	}
}

func TestApproximationErrorWithinBounds(t *testing.T) {
	// Standard error of KMV is about 1/sqrt(m-2). With m=2048 that is
	// ~2.2%; allow 5 sigma to keep the test deterministic-ish.
	const m = 2048
	for _, n := range []int{10_000, 100_000, 500_000} {
		k := NewKMV(m)
		for i := 0; i < n; i++ {
			k.AddString(fmt.Sprintf("distinct-%d", i))
		}
		got := float64(k.Estimate())
		rel := math.Abs(got-float64(n)) / float64(n)
		if rel > 5/math.Sqrt(m-2) {
			t.Errorf("n=%d: estimate %.0f, relative error %.4f too large", n, got, rel)
		}
	}
}

func TestIntegerValues(t *testing.T) {
	const m = 1024
	k := NewKMV(m)
	for i := 0; i < 50_000; i++ {
		k.AddUint64(uint64(i))
	}
	got := float64(k.Estimate())
	rel := math.Abs(got-50_000) / 50_000
	if rel > 5/math.Sqrt(m-2) {
		t.Errorf("integer estimate %.0f, relative error %.4f too large", got, rel)
	}
}

func TestMergeMatchesUnion(t *testing.T) {
	const m = 512
	a, b, u := NewKMV(m), NewKMV(m), NewKMV(m)
	for i := 0; i < 30_000; i++ {
		s := fmt.Sprintf("item-%d", i)
		if i%2 == 0 {
			a.AddString(s)
		} else {
			b.AddString(s)
		}
		u.AddString(s)
	}
	a.Merge(b)
	if got, want := a.Estimate(), u.Estimate(); got != want {
		t.Errorf("merged estimate %d != union estimate %d", got, want)
	}
}

func TestMergeWithOverlap(t *testing.T) {
	const m = 512
	a, b := NewKMV(m), NewKMV(m)
	for i := 0; i < 20_000; i++ {
		a.AddString(fmt.Sprintf("x-%d", i))
	}
	for i := 10_000; i < 30_000; i++ { // 50% overlap with a
		b.AddString(fmt.Sprintf("x-%d", i))
	}
	a.Merge(b)
	got := float64(a.Estimate())
	rel := math.Abs(got-30_000) / 30_000
	if rel > 5/math.Sqrt(m-2) {
		t.Errorf("overlap merge estimate %.0f, relative error %.4f", got, rel)
	}
	a.Merge(nil) // must be a no-op
}

func TestAddDictionaryEquivalentToAdds(t *testing.T) {
	vals := make([]string, 5000)
	for i := range vals {
		vals[i] = fmt.Sprintf("dict-%d", i)
	}
	direct := NewKMV(256)
	for _, v := range vals {
		direct.AddString(v)
	}
	// Two dictionaries that overlap, into a sketch that already holds hashes.
	viaDict := NewKMV(256)
	viaDict.AddString(vals[17])
	for _, part := range [][]string{vals[:3000], vals[2000:]} {
		hs := make([]uint64, len(part))
		for i, v := range part {
			hs[i] = HashString(v)
		}
		viaDict.AddDictionary(hs)
	}
	if !reflect.DeepEqual(direct.RetainedHashes(), viaDict.RetainedHashes()) {
		t.Errorf("AddDictionary retains %v, AddHash %v", viaDict.RetainedHashes(), direct.RetainedHashes())
	}
}

func TestEmptySketch(t *testing.T) {
	k := NewKMV(16)
	if k.Estimate() != 0 {
		t.Errorf("empty sketch estimate = %d", k.Estimate())
	}
}

func TestNewKMVPanicsOnBadM(t *testing.T) {
	for _, m := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewKMV(%d) did not panic", m)
				}
			}()
			NewKMV(m)
		}()
	}
}

// TestUnionSortedMatchesMerge pins the plain-run forms the columnar
// partials use to the sketch's own merge and estimate.
func TestUnionSortedMatchesMerge(t *testing.T) {
	for _, m := range []int{4, 64, 4096} {
		a, b := NewKMV(m), NewKMV(m)
		for i := 0; i < 300; i++ {
			a.AddUint64(uint64(i * 31))
			b.AddUint64(uint64(i * 17))
		}
		prefix := []uint64{7}
		got := UnionSorted(prefix, a.RetainedHashes(), b.RetainedHashes(), m)
		a.Merge(b)
		if !reflect.DeepEqual(got[1:], a.RetainedHashes()) || got[0] != 7 {
			t.Errorf("m=%d: UnionSorted = %v, Merge retains %v", m, got, a.RetainedHashes())
		}
		if EstimateSorted(got[1:], m) != a.Estimate() {
			t.Errorf("m=%d: EstimateSorted = %d, Estimate = %d", m, EstimateSorted(got[1:], m), a.Estimate())
		}
		if !reflect.DeepEqual(a.AppendHashes(nil), a.RetainedHashes()) {
			t.Errorf("m=%d: AppendHashes differs from RetainedHashes", m)
		}
	}
}

func TestQuickMergeCommutative(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a1, b1 := NewKMV(64), NewKMV(64)
		a2, b2 := NewKMV(64), NewKMV(64)
		for _, x := range xs {
			a1.AddUint64(x)
			a2.AddUint64(x)
		}
		for _, y := range ys {
			b1.AddUint64(y)
			b2.AddUint64(y)
		}
		a1.Merge(b1) // a ∪ b
		b2.Merge(a2) // b ∪ a
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickEstimateNeverNegative(t *testing.T) {
	f := func(xs []uint64) bool {
		k := NewKMV(32)
		for _, x := range xs {
			k.AddUint64(x)
		}
		return k.Estimate() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddString(b *testing.B) {
	k := NewKMV(4096)
	keys := make([]string, 4096)
	r := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d-%d", i, r.Int63())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AddString(keys[i%len(keys)])
	}
}

func BenchmarkMerge(b *testing.B) {
	mk := func(seed int64) *KMV {
		k := NewKMV(4096)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100_000; i++ {
			k.AddUint64(r.Uint64())
		}
		return k
	}
	a, c := mk(1), mk(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := NewKMV(4096)
		cp.Merge(a)
		cp.Merge(c)
	}
}

// TestRetainsSmallestDistinct: whatever m is relative to the stream, and
// however often values repeat, the sketch retains exactly the m smallest
// distinct hashes offered.
func TestRetainsSmallestDistinct(t *testing.T) {
	for _, m := range []int{1, 4, 31, 64, 1000} {
		rng := rand.New(rand.NewSource(int64(m)))
		k := NewKMV(m)
		distinct := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			h := HashUint64(uint64(rng.Intn(300)))
			distinct[h] = true
			k.AddHash(h)
		}
		var want []uint64
		for h := range distinct {
			want = append(want, h)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		want = want[:min(m, len(want))]
		if got := k.RetainedHashes(); !reflect.DeepEqual(got, want) {
			t.Errorf("m=%d: retained %d hashes %v, want %d %v", m, len(got), got, len(want), want)
		}
	}
}
