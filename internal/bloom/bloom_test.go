package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.AddUint64(i * 31)
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.TestUint64(i * 31) {
			t.Fatalf("false negative for %d", i*31)
		}
	}
}

func TestFalsePositiveRateRoughlyAsConfigured(t *testing.T) {
	const n = 5000
	f := NewWithEstimates(n, 0.01)
	for i := uint64(0); i < n; i++ {
		f.AddUint64(2 * i)
	}
	fp := 0
	const probes = 20000
	for i := uint64(0); i < probes; i++ {
		if f.TestUint64(2*i + 1) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Errorf("false positive rate %.4f way above configured 0.01", rate)
	}
	if est := f.EstimatedFalsePositiveRate(); est <= 0 || est > 0.05 {
		t.Errorf("estimated fp rate %.4f out of range", est)
	}
}

func TestUint64Keys(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	for i := uint64(0); i < 100; i++ {
		f.AddUint64(i * 7919)
	}
	for i := uint64(0); i < 100; i++ {
		if !f.TestUint64(i * 7919) {
			t.Fatalf("false negative for %d", i*7919)
		}
	}
}

// TestUint64HashIsFNVOfBytes pins the key hash to 64-bit FNV-1a over the
// key's eight little-endian bytes, which is what every persisted filter
// was built with: a filter written by an older build must still answer.
func TestUint64HashIsFNVOfBytes(t *testing.T) {
	for _, key := range []uint64{0, 1, 0xff, 0x100, 1<<32 - 1, 0xdeadbeefcafef00d, 1<<64 - 1} {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], key)
		h.Write(buf[:])
		if got, want := hashUint64(key), h.Sum64(); got != want {
			t.Errorf("hashUint64(%#x) = %#x, FNV-1a of its bytes is %#x", key, got, want)
		}
	}
}

func TestEmptyFilter(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	if f.TestUint64(42) {
		t.Error("empty filter claims membership")
	}
	if f.EstimatedFalsePositiveRate() != 0 {
		t.Error("empty filter has nonzero fp estimate")
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ m, k int }{{0, 1}, {64, 0}, {64, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.m, tc.k)
				}
			}()
			New(uint64(tc.m), tc.k)
		}()
	}
}

func TestNewWithEstimatesDefensiveDefaults(t *testing.T) {
	// Degenerate inputs must still produce a usable filter.
	for _, tc := range []struct {
		n  int
		fp float64
	}{{0, 0.01}, {-5, 0.01}, {10, 0}, {10, 1.5}} {
		f := NewWithEstimates(tc.n, tc.fp)
		if f.Bits() == 0 || f.K() < 1 {
			t.Errorf("NewWithEstimates(%d, %g) produced unusable filter", tc.n, tc.fp)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewWithEstimates(500, 0.02)
	for i := uint64(0); i < 500; i++ {
		f.AddUint64(i << 20)
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if g.Bits() != f.Bits() || g.K() != f.K() || g.Count() != f.Count() {
		t.Fatalf("round trip changed parameters: %d/%d/%d vs %d/%d/%d",
			g.Bits(), g.K(), g.Count(), f.Bits(), f.K(), f.Count())
	}
	for i := uint64(0); i < 500; i++ {
		if !g.TestUint64(i << 20) {
			t.Fatalf("false negative after round trip: %d", i<<20)
		}
	}
}

func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Error("Unmarshal(short) succeeded")
	}
	f := New(128, 3)
	raw := f.Marshal()
	if _, err := Unmarshal(raw[:len(raw)-1]); err == nil {
		t.Error("Unmarshal(truncated body) succeeded")
	}
	// No bits (a probe would divide by zero), and more hashes than bits.
	if _, err := Unmarshal(make([]byte, 24)); err == nil {
		t.Error("Unmarshal of a filter with no bits succeeded")
	}
	binary.LittleEndian.PutUint64(raw[8:], 129)
	if _, err := Unmarshal(raw); err == nil {
		t.Error("Unmarshal of a filter with k > m succeeded")
	}
}

func TestQuickNoFalseNegativesProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		fl := NewWithEstimates(len(keys)+1, 0.01)
		for _, k := range keys {
			fl.AddUint64(k)
		}
		for _, k := range keys {
			if !fl.TestUint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	f := New(1024, 4)
	if got := f.MemoryBytes(); got != 1024/8 {
		t.Errorf("MemoryBytes = %d, want %d", got, 1024/8)
	}
}
