// Package sketch implements the approximate count-distinct algorithm
// PowerDrill uses (paper, Section 5, "Count Distinct"): keep the m smallest
// normalized hash values of the field in a single pass; if v is the largest
// of those m hashes (normalized to [0,1]), the number of distinct values is
// estimated as m/v. The algorithm is the first one analysed by Bar-Yossef,
// Jayram, Kumar, Sivakumar and Trevisan ("Counting distinct elements in a
// data stream", RANDOM 2002), itself a refinement of Flajolet–Martin.
//
// Sketches are mergeable — the union of two m-smallest sets, trimmed back to
// m — which is what allows the distributed execution tree of Section 4 to
// re-aggregate count-distinct results at every level.
//
// PowerDrill exploits that global- and chunk-dictionaries store values
// sorted: a chunk contributes each *distinct* value exactly once by walking
// its chunk-dictionary instead of its rows, so the per-row cost disappears
// for skipped and fully-active chunks. AddDictionary models exactly that.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// KMV is a k-minimum-values sketch. The zero value is unusable; create
// sketches with NewKMV.
type KMV struct {
	m    int
	heap []uint64 // max-heap of the m smallest *distinct* hashes seen so far
	set  map[uint64]struct{}
}

// NewKMV creates a sketch keeping the m smallest hash values. The paper
// describes m as "typically in the order of a couple of thousand". m must
// be positive. The sketch grows with the hashes it retains: a group-by
// makes one per group per chunk, and most of those see a handful of
// distinct values, not m.
func NewKMV(m int) *KMV {
	if m <= 0 {
		panic(fmt.Sprintf("sketch: invalid m=%d", m))
	}
	return &KMV{m: m, set: map[uint64]struct{}{}}
}

// M returns the sketch parameter m.
func (k *KMV) M() int { return k.m }

// hash64 is a strong 64-bit mix (splitmix64 finalizer) applied to FNV-1a,
// giving well-distributed normalized hashes for the m/v estimator.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HashString hashes a string value for the sketch.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// HashUint64 hashes an integer value (int64 columns and float bit patterns).
func HashUint64(v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return mix64(h)
}

// AddHash offers one pre-hashed value to the sketch. The retained set is
// kept duplicate-free — KMV estimates from the m smallest distinct hashes,
// so a repeated value must not displace a distinct one.
func (k *KMV) AddHash(h uint64) {
	if _, dup := k.set[h]; dup {
		return
	}
	if len(k.heap) < k.m {
		k.set[h] = struct{}{}
		k.heap = append(k.heap, h)
		up(k.heap, len(k.heap)-1)
		return
	}
	if h >= k.heap[0] {
		return
	}
	delete(k.set, k.heap[0])
	k.set[h] = struct{}{}
	k.heap[0] = h
	down(k.heap, 0)
}

// AddString offers a string value.
func (k *KMV) AddString(s string) { k.AddHash(HashString(s)) }

// AddUint64 offers an integer value.
func (k *KMV) AddUint64(v uint64) { k.AddHash(HashUint64(v)) }

// AddDictionary offers every value of a sorted dictionary by rank, the
// chunk-dictionary fast path of Section 5: at(i) must return the hash of the
// i-th distinct value.
func (k *KMV) AddDictionary(n int, at func(i int) uint64) {
	for i := 0; i < n; i++ {
		k.AddHash(at(i))
	}
}

// Estimate returns the approximate number of distinct values added.
func (k *KMV) Estimate() int64 {
	n := len(k.heap)
	if n == 0 {
		return 0
	}
	if n < k.m {
		// Fewer than m distinct hashes seen: the sketch is exact.
		return int64(n)
	}
	v := float64(k.heap[0]) / float64(math.MaxUint64) // normalized m-th minimum
	if v <= 0 {
		return int64(n)
	}
	return int64(math.Round(float64(n) / v))
}

// RetainedHashes returns the sorted retained hashes (used by tests and the
// distributed merge path for deterministic inspection).
func (k *KMV) RetainedHashes() []uint64 {
	hs := append([]uint64(nil), k.heap...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

// Merge folds other into k (union, trimmed back to the m smallest). The
// sketches may have different m; the result keeps k's m.
func (k *KMV) Merge(other *KMV) {
	if other == nil {
		return
	}
	for _, h := range other.heap {
		k.AddHash(h)
	}
}

// Marshal serializes the sketch.
func (k *KMV) Marshal() []byte {
	out := make([]byte, 8+8+len(k.heap)*8)
	binary.LittleEndian.PutUint64(out[0:], uint64(k.m))
	binary.LittleEndian.PutUint64(out[8:], uint64(len(k.heap)))
	for i, h := range k.heap {
		binary.LittleEndian.PutUint64(out[16+i*8:], h)
	}
	return out
}

// UnmarshalKMV reconstructs a sketch serialized by Marshal.
func UnmarshalKMV(data []byte) (*KMV, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("sketch: truncated header (%d bytes)", len(data))
	}
	m := int(binary.LittleEndian.Uint64(data[0:]))
	n := int(binary.LittleEndian.Uint64(data[8:]))
	if m <= 0 || n < 0 || n > m || len(data) != 16+n*8 {
		return nil, fmt.Errorf("sketch: corrupt encoding (m=%d n=%d len=%d)", m, n, len(data))
	}
	k := NewKMV(m)
	for i := 0; i < n; i++ {
		k.AddHash(binary.LittleEndian.Uint64(data[16+i*8:]))
	}
	return k, nil
}

// MemoryBytes reports the footprint of the retained hash set.
func (k *KMV) MemoryBytes() int64 { return int64(cap(k.heap) * 8) }

// up restores the max-heap property walking from index i to the root.
func up(h []uint64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// down restores the max-heap property walking from index i to the leaves.
func down(h []uint64, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l] > h[largest] {
			largest = l
		}
		if r < n && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
