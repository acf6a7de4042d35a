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
// for skipped and fully-active chunks. AddDictionary is that path.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// KMV is a k-minimum-values sketch. The zero value is unusable; create
// sketches with NewKMV.
type KMV struct {
	m int
	// hashes holds the m smallest *distinct* hashes seen so far, ascending:
	// a duplicate is found by binary search, the m-th minimum is the last
	// entry, and two sketches merge in one walk. Keeping the order costs a
	// shift per accepted hash, of at most m entries, and a stream of n
	// distinct values has only about m·ln(n/m) of those after the first m.
	hashes []uint64
	// spare is the buffer the next Merge or AddDictionary writes into.
	spare []uint64
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
	return &KMV{m: m}
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
	n := len(k.hashes)
	if n == k.m && h >= k.hashes[n-1] {
		return // not among the m smallest (or the m-th itself, again)
	}
	at, dup := slices.BinarySearch(k.hashes, h)
	if dup {
		return
	}
	if n < k.m {
		k.hashes = append(k.hashes, 0)
	}
	copy(k.hashes[at+1:], k.hashes[at:])
	k.hashes[at] = h
}

// AddString offers a string value.
func (k *KMV) AddString(s string) { k.AddHash(HashString(s)) }

// AddUint64 offers an integer value.
func (k *KMV) AddUint64(v uint64) { k.AddHash(HashUint64(v)) }

// AddDictionary offers the hashes of a dictionary's values in one step, the
// chunk-dictionary fast path of Section 5: sorted once and merged in, where
// AddHash would search and shift for each. It sorts hs in place.
func (k *KMV) AddDictionary(hs []uint64) {
	slices.Sort(hs)
	k.union(hs)
}

// union replaces the retained hashes by the m smallest distinct hashes of
// them and the ascending list other.
func (k *KMV) union(other []uint64) {
	a, b := k.hashes, other
	out := slices.Grow(k.spare[:0], min(len(a)+len(b), k.m))
	for len(out) < k.m && (len(a) > 0 || len(b) > 0) {
		var h uint64
		if len(b) == 0 || (len(a) > 0 && a[0] <= b[0]) {
			h, a = a[0], a[1:]
		} else {
			h, b = b[0], b[1:]
		}
		if len(out) == 0 || out[len(out)-1] != h {
			out = append(out, h)
		}
	}
	k.hashes, k.spare = out, k.hashes
}

// Estimate returns the approximate number of distinct values added.
func (k *KMV) Estimate() int64 {
	n := len(k.hashes)
	if n == 0 {
		return 0
	}
	if n < k.m {
		// Fewer than m distinct hashes seen: the sketch is exact.
		return int64(n)
	}
	v := float64(k.hashes[n-1]) / float64(math.MaxUint64) // normalized m-th minimum
	if v <= 0 {
		return int64(n)
	}
	return int64(math.Round(float64(n) / v))
}

// RetainedHashes returns the sorted retained hashes (used by tests and the
// distributed merge path for deterministic inspection).
func (k *KMV) RetainedHashes() []uint64 { return slices.Clone(k.hashes) }

// Merge folds other into k (union, trimmed back to the m smallest). The
// sketches may have different m; the result keeps k's m.
func (k *KMV) Merge(other *KMV) {
	if other != nil {
		k.union(other.hashes)
	}
}

// Marshal serializes the sketch.
func (k *KMV) Marshal() []byte {
	out := make([]byte, 8+8+len(k.hashes)*8)
	binary.LittleEndian.PutUint64(out[0:], uint64(k.m))
	binary.LittleEndian.PutUint64(out[8:], uint64(len(k.hashes)))
	for i, h := range k.hashes {
		binary.LittleEndian.PutUint64(out[16+i*8:], h)
	}
	return out
}

// UnmarshalKMV reconstructs a sketch serialized by Marshal. The hashes may
// come in any order: encoders before the sorted layout wrote heap order.
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
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = binary.LittleEndian.Uint64(data[16+i*8:])
	}
	k.AddDictionary(hs)
	return k, nil
}

// MemoryBytes reports the footprint of the retained hash set.
func (k *KMV) MemoryBytes() int64 { return int64((cap(k.hashes) + cap(k.spare)) * 8) }
