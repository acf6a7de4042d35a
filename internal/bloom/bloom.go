// Package bloom implements the Bloom filters PowerDrill keeps per chunk
// over the global-ids the chunk holds, so that an equality restriction can
// prune a chunk its [min, max] span cannot (paper, Section 5, "Further
// Optimizing the Global-Dictionaries", applied to chunk-dictionaries).
//
// The filter is a standard k-hash-function Bloom filter over a bit array,
// keyed by uint64. The two base hashes are derived from a single 64-bit
// FNV-1a pass over the key's eight little-endian bytes using the
// Kirsch–Mitzenmacher construction h_i = h1 + i*h2, which preserves the
// asymptotic false-positive rate while hashing each key only once.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filter is a Bloom filter. The zero value is unusable; create filters with
// New or NewWithEstimates.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    int    // number of added keys (for stats only)
}

// New creates a filter with m bits (rounded up to a multiple of 64) and k
// hash functions. It panics if m == 0 or k == 0, which are programming
// errors rather than data errors.
func New(m uint64, k int) *Filter {
	if m == 0 || k <= 0 {
		panic(fmt.Sprintf("bloom: invalid parameters m=%d k=%d", m, k))
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewWithEstimates sizes a filter for n expected keys and a target
// false-positive probability fp using the standard optimal formulas
// m = -n ln(fp)/ln(2)^2 and k = m/n ln(2).
func NewWithEstimates(n int, fp float64) *Filter {
	if n <= 0 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

// hashUint64 hashes key's eight little-endian bytes with 64-bit FNV-1a.
func hashUint64(key uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= key >> (8 * i) & 0xff
		h *= prime
	}
	return h
}

// indexes derives the k bit positions for a key hash.
func (f *Filter) setOrTest(h uint64, set bool) bool {
	h1 := h
	h2 := h>>33 | h<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	all := true
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		word, mask := bit/64, uint64(1)<<(bit%64)
		if set {
			f.bits[word] |= mask
		} else if f.bits[word]&mask == 0 {
			all = false
			break
		}
	}
	return all
}

// AddUint64 inserts an integer key: a global-id.
func (f *Filter) AddUint64(key uint64) {
	f.setOrTest(hashUint64(key), true)
	f.n++
}

// TestUint64 reports whether key may have been added. False means
// definitely not present; true means present with probability 1-fp.
func (f *Filter) TestUint64(key uint64) bool {
	return f.setOrTest(hashUint64(key), false)
}

// Bits returns the number of bits in the filter.
func (f *Filter) Bits() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Count returns the number of keys added.
func (f *Filter) Count() int { return f.n }

// MemoryBytes returns the in-memory footprint of the bit array.
func (f *Filter) MemoryBytes() int64 { return int64(len(f.bits) * 8) }

// EstimatedFalsePositiveRate computes (1 - e^{-kn/m})^k for the current
// load, the classic Bloom filter false-positive estimate.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	if f.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(f.k)*float64(f.n)/float64(f.m)), float64(f.k))
}

// Marshal serializes the filter (little-endian m, k, n, then the bit words).
func (f *Filter) Marshal() []byte {
	out := make([]byte, 24+len(f.bits)*8)
	binary.LittleEndian.PutUint64(out[0:], f.m)
	binary.LittleEndian.PutUint64(out[8:], uint64(f.k))
	binary.LittleEndian.PutUint64(out[16:], uint64(f.n))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[24+i*8:], w)
	}
	return out
}

// Unmarshal reconstructs a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("bloom: truncated header (%d bytes)", len(data))
	}
	m := binary.LittleEndian.Uint64(data[0:])
	k := int(binary.LittleEndian.Uint64(data[8:]))
	n := int(binary.LittleEndian.Uint64(data[16:]))
	words := int(m / 64)
	// m = 0 would divide by zero on every probe, and k > m buys nothing
	// but probe time: neither is a filter New builds.
	if m == 0 || m%64 != 0 || k <= 0 || uint64(k) > m || len(data) != 24+words*8 {
		return nil, fmt.Errorf("bloom: corrupt encoding (m=%d k=%d len=%d)", m, k, len(data))
	}
	f := &Filter{bits: make([]uint64, words), m: m, k: k, n: n}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[24+i*8:])
	}
	return f, nil
}
