package colstore

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestHashOrder: hashOrder is a stable sort of the indices by hash, also
// where hashes tie, or share every bit its keys keep of them.
func TestHashOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 100, 2000, 70000} {
		hs := make([]uint64, n)
		for i := range hs {
			switch rng.Intn(4) {
			case 0: // a repeated hash
				hs[i] = hs[rng.Intn(i+1)]
			case 1: // the high bits of another, with low bits of its own
				hs[i] = hs[rng.Intn(i+1)]&^0xffff | uint64(rng.Intn(1<<16))
			default:
				hs[i] = rng.Uint64()
			}
		}
		want := make([]uint32, n)
		for i := range want {
			want[i] = uint32(i)
		}
		slices.SortStableFunc(want, func(a, b uint32) int { return cmp.Compare(hs[a], hs[b]) })
		if got := hashOrder(hs); !slices.Equal(got, want) {
			t.Fatalf("n %d: hashOrder differs from a stable sort by hash", n)
		}
	}
}
