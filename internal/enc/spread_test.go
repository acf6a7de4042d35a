package enc

import (
	"fmt"
	"math/rand"
	"testing"
)

// spreadCardinalities picks one chunk-dictionary size per element width.
var spreadCardinalities = []int{1, 2, 200, 3000, 70000}

// FuzzSpreadMaskVsScalar pins SpreadMask to the loop it replaces: for every
// width, a random sequence, a random verdict table (all-false and all-true
// among them) and a destination with bits already set, the mask must equal
// what setting bit r wherever verdict[At(r)] == 1 gives, and no bit beyond
// the last row may be set.
func FuzzSpreadMaskVsScalar(f *testing.F) {
	for _, n := range []uint16{0, 1, 63, 64, 65, 127, 128, 129, 1000, 2000} {
		f.Add(int64(n)+7, n, uint8(n%5))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		diffSpreadMask(t, seed, int(n)%4096, shape)
	})
}

func diffSpreadMask(t *testing.T, seed int64, n int, shape uint8) {
	r := rand.New(rand.NewSource(seed))
	for _, card := range spreadCardinalities {
		s := Encode(genValues(r, n, card), card)
		verdict := make([]uint8, card)
		switch shape % 4 {
		case 0: // all false
		case 1:
			for i := range verdict {
				verdict[i] = 1
			}
		default:
			share := r.Float64()
			for i := range verdict {
				if r.Float64() < share {
					verdict[i] = 1
				}
			}
		}
		got, want := NewBitmap(n), NewBitmap(n)
		if shape&4 != 0 {
			for i := 0; i < n; i++ {
				if r.Intn(3) == 0 {
					got.Set(i)
					want.Set(i)
				}
			}
		}
		s.SpreadMask(verdict, got)
		for i := 0; i < n; i++ {
			if verdict[s.At(i)] == 1 {
				want.Set(i)
			}
		}
		for wi, w := range want.words {
			if got.words[wi] != w {
				t.Fatalf("width %v, %d rows, shape %d: word %d is %#x, want %#x", s.Width(), n, shape, wi, got.words[wi], w)
			}
		}
	}
}

// TestSpreadMaskLengths runs the differential check at the lengths around
// the 64-row word boundary, for every verdict shape.
func TestSpreadMaskLengths(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 191, 2000} {
		for shape := uint8(0); shape < 8; shape++ {
			diffSpreadMask(t, int64(n)*31+int64(shape), n, shape)
		}
	}
}

// BenchmarkSpreadMask reports ns/row per element width at three
// selectivities. The loop has no data-dependent branch, so the three agree;
// a per-row `if` is slowest at 35 %, where the branch predictor has least to
// go on.
func BenchmarkSpreadMask(b *testing.B) {
	const rows = 2000
	for _, w := range []struct {
		name string
		card int
	}{{"w8", 200}, {"w16", 3000}, {"w32", 70000}} {
		for _, pct := range []int{1, 35, 90} {
			b.Run(fmt.Sprintf("%s/sel%d", w.name, pct), func(b *testing.B) {
				r := rand.New(rand.NewSource(int64(w.card + pct)))
				s := Encode(genValues(r, rows, w.card), w.card)
				verdict := make([]uint8, w.card)
				for i := range verdict {
					if r.Intn(100) < pct {
						verdict[i] = 1
					}
				}
				m := NewBitmap(rows)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.SpreadMask(verdict, m)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
