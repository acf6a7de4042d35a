package enc

import "math/bits"

// Bitmap is a fixed-length row-selection mask used by the executor to track
// which rows of a partially active chunk match the WHERE clause.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap creates an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Reset makes b an all-zero bitmap over n rows, keeping the word array when
// it is large enough: a scan worker carries one bitmap from chunk to chunk.
func (b *Bitmap) Reset(n int) {
	words := (n + 63) / 64
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	}
	b.n, b.words = n, b.words[:words]
	clear(b.words)
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i as selected.
func (b *Bitmap) Set(i int) { b.words[i/64] |= 1 << (i % 64) }

// Clear unmarks row i.
func (b *Bitmap) Clear(i int) { b.words[i/64] &^= 1 << (i % 64) }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool { return b.words[i/64]>>(i%64)&1 == 1 }

// SetAll selects every row.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll unselects every row.
func (b *Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the bits beyond n in the last word so Count stays exact.
func (b *Bitmap) trim() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of selected rows.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects b with o in place. The bitmaps must have equal length.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b in place. The bitmaps must have equal length.
func (b *Bitmap) Or(o *Bitmap) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot removes o's rows from b in place.
func (b *Bitmap) AndNot(o *Bitmap) {
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Not complements b in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
}

// All reports whether every row is selected.
func (b *Bitmap) All() bool { return b.Count() == b.n }

// None reports whether no row is selected.
func (b *Bitmap) None() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{n: b.n, words: append([]uint64(nil), b.words...)}
}

// Words exposes the backing word array (64 rows per word, little-endian
// bit order, bits beyond Len kept zero). Kernels iterate it directly so the
// per-row body can be inlined instead of dispatched through ForEach's
// closure.
func (b *Bitmap) Words() []uint64 { return b.words }

// ForEach calls fn with each selected row index in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// MemoryBytes returns the footprint of the word array.
func (b *Bitmap) MemoryBytes() int64 { return int64(len(b.words) * 8) }
