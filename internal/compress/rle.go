package compress

import "errors"

// RLE is byte-level run-length encoding: (uvarint runLength, byte value)
// pairs. It is deliberately naive — Section 3 of the paper uses RLE as the
// analytical model for why row reordering shrinks the encoded elements (the
// encoding size equals the number of value changes walking down a column),
// and the reorder package measures exactly that with this codec.
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// Compress implements Codec.
func (RLE) Compress(dst, src []byte) []byte {
	dst = putUvarint(dst, uint64(len(src)))
	i := 0
	for i < len(src) {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		dst = putUvarint(dst, uint64(j-i))
		dst = append(dst, src[i])
		i = j
	}
	return dst
}

var errRLECorrupt = errors.New("compress: corrupt rle data")

// Decompress implements Codec.
func (RLE) Decompress(dst, src []byte) ([]byte, error) {
	want, n := uvarint(src)
	if n <= 0 {
		return dst, errRLECorrupt
	}
	src = src[n:]
	base := len(dst)
	for len(src) > 0 {
		run, n := uvarint(src)
		if n <= 0 || len(src) < n+1 {
			return dst, errRLECorrupt
		}
		v := src[n]
		src = src[n+1:]
		if run == 0 || run > want-uint64(len(dst)-base) {
			return dst, errRLECorrupt
		}
		for i := uint64(0); i < run; i++ {
			dst = append(dst, v)
		}
	}
	if uint64(len(dst)-base) != want {
		return dst, errRLECorrupt
	}
	return dst, nil
}

// Runs counts the number of runs in src — the reorder cost model.
func Runs(src []byte) int {
	if len(src) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(src); i++ {
		if src[i] != src[i-1] {
			runs++
		}
	}
	return runs
}

func init() { Register(RLE{}) }
