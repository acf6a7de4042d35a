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
	out := slices.Grow(k.spare[:0], min(len(k.hashes)+len(other), k.m))
	k.hashes, k.spare = UnionSorted(out, k.hashes, other, k.m), k.hashes
}

// UnionSorted appends to dst the m smallest distinct hashes of the
// ascending, duplicate-free lists a and b: the merge of two sketches'
// retained hashes, for callers that hold them as plain runs (the serving
// tree's columnar partials). dst must not overlap a or b.
func UnionSorted(dst, a, b []uint64, m int) []uint64 {
	base := len(dst)
	for len(dst)-base < m && (len(a) > 0 || len(b) > 0) {
		var h uint64
		if len(b) == 0 || (len(a) > 0 && a[0] <= b[0]) {
			h, a = a[0], a[1:]
		} else {
			h, b = b[0], b[1:]
		}
		if len(dst) == base || dst[len(dst)-1] != h {
			dst = append(dst, h)
		}
	}
	return dst
}

// Estimate returns the approximate number of distinct values added.
func (k *KMV) Estimate() int64 { return EstimateSorted(k.hashes, k.m) }

// EstimateSorted is Estimate over a sketch's retained hashes — at most m,
// ascending — held as a plain run.
func EstimateSorted(hashes []uint64, m int) int64 {
	n := len(hashes)
	if n == 0 {
		return 0
	}
	if n < m {
		// Fewer than m distinct hashes seen: the sketch is exact.
		return int64(n)
	}
	v := float64(hashes[n-1]) / float64(math.MaxUint64) // normalized m-th minimum
	if v <= 0 {
		return int64(n)
	}
	return int64(math.Round(float64(n) / v))
}

// RetainedHashes returns the sorted retained hashes (used by tests for
// deterministic inspection).
func (k *KMV) RetainedHashes() []uint64 { return slices.Clone(k.hashes) }

// AppendHashes appends the sorted retained hashes to dst: how a sketch
// enters a columnar partial.
func (k *KMV) AppendHashes(dst []uint64) []uint64 { return append(dst, k.hashes...) }

// Merge folds other into k (union, trimmed back to the m smallest). The
// sketches may have different m; the result keeps k's m.
func (k *KMV) Merge(other *KMV) {
	if other != nil {
		k.union(other.hashes)
	}
}

// MemoryBytes reports the footprint of the retained hash set.
func (k *KMV) MemoryBytes() int64 { return int64((cap(k.hashes) + cap(k.spare)) * 8) }
