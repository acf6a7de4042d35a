package exec

// An explicit, versioned binary wire form for Partial. Partials are the
// one payload that crosses process boundaries at every level of the
// serving tree (leaf → mixer → … → coordinator), so their encoding must
// not ride one process's gob assumptions: a mixed-version fleet needs to
// fail loud on an incompatible layout, and intermediate mixers must be
// able to re-ship what they merged without re-encoding surprises.
//
// The layout is the partial's own: column after column, each array whole.
// Integers are uvarint (counts, lengths) or zigzag varint (values); floats
// and hashes are 8 bytes little-endian. docs/cluster.md has it as a table.
//
//	byte    version (PartialWireVersion)
//	uvarint #columns, then each name as (uvarint len, bytes)
//	uvarint #stat counters, then each as varint — QueryStats' fields in
//	        declaration order; the list is append-only, so a decoder reads
//	        what it knows and skips trailing counters from newer peers
//	uvarint n, the number of groups
//	uvarint #key columns, then each as a value column: a kind byte, then n
//	        varints, n floats, or n string lengths and the strings' bytes
//	uvarint #aggregate columns, then per column a presence mask byte (see
//	        aggArrays) and the arrays it names, in mask order: n varints
//	        (counts, sums); n run lengths and every float of every run
//	        (parts); a value column (min or max); uvarint m, n run lengths
//	        and every hash of every run, ascending within a run (sketch)
//
// The decoder bounds every count by the bytes that remain before it
// allocates, so a corrupt reply costs an error, never memory; and it cuts
// strings out of the payload instead of copying them, so the payload
// belongs to the partial it decoded to.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"powerdrill/internal/value"
)

// PartialWireVersion is the current encoding version. Bump it when the
// layout changes incompatibly; append new stat counters instead when that
// is the only change. Version 1 wrote group after group, cell after cell.
const PartialWireVersion = 2

// EncodePartial serializes p into the versioned wire form.
func EncodePartial(p *Partial) []byte {
	size := 256 + 4*p.n*(len(p.keys)+len(p.aggs)) // a guess at the varints
	for k := range p.keys {
		size += len(p.keys[k].arena)
	}
	for j := range p.aggs {
		size += len(p.aggs[j].vals.arena) + 8*(len(p.aggs[j].parts.vals)+len(p.aggs[j].hashes.vals))
	}
	b := make([]byte, 0, size)
	b = append(b, PartialWireVersion)
	b = binary.AppendUvarint(b, uint64(len(p.Columns)))
	for _, c := range p.Columns {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	counters := statsCounters(&p.Stats)
	b = binary.AppendUvarint(b, uint64(len(counters)))
	b = appendVarints(b, counters)
	b = binary.AppendUvarint(b, uint64(p.n))
	b = binary.AppendUvarint(b, uint64(len(p.keys)))
	for k := range p.keys {
		b = appendValueColumn(b, &p.keys[k])
	}
	b = binary.AppendUvarint(b, uint64(len(p.aggs)))
	for j := range p.aggs {
		a := &p.aggs[j]
		b = append(b, byte(a.has))
		if a.has&arrCounts != 0 {
			b = appendVarints(b, a.counts)
		}
		if a.has&arrSumI != 0 {
			b = appendVarints(b, a.sumI)
		}
		if a.has&arrParts != 0 {
			b = appendRuns(b, &a.parts)
		}
		if a.has&(arrMin|arrMax) != 0 {
			b = appendValueColumn(b, &a.vals)
		}
		if a.has&arrSketch != 0 {
			b = appendRuns(binary.AppendUvarint(b, uint64(a.m)), &a.hashes)
		}
	}
	return b
}

func appendVarints(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// appendLengths writes the lengths of the runs that off delimits.
func appendLengths(b []byte, off []uint32) []byte {
	for i := 1; i < len(off); i++ {
		b = binary.AppendUvarint(b, uint64(off[i]-off[i-1]))
	}
	return b
}

func appendRuns(b []byte, r *runColumn) []byte {
	b = appendLengths(b, r.off)
	for _, v := range r.vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func appendValueColumn(b []byte, c *valueColumn) []byte {
	b = append(b, byte(c.kind))
	switch c.kind {
	case value.KindInt64:
		return appendVarints(b, c.ints)
	case value.KindFloat64:
		for _, v := range c.flts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	return append(appendLengths(b, c.off), c.arena...)
}

// DecodePartial parses a payload EncodePartial produced (any process, any
// build — the version byte gates compatibility) and takes it over: the
// partial's strings are slices of data, which must not be written again.
func DecodePartial(data []byte) (*Partial, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("exec: decode partial: empty payload")
	}
	if data[0] != PartialWireVersion {
		return nil, fmt.Errorf("exec: decode partial: wire version %d, want %d", data[0], PartialWireVersion)
	}
	r := &wireReader{b: data[1:]}
	p := &Partial{}
	if n := r.count(1); n > 0 {
		p.Columns = make([]string, n)
		for i := range p.Columns {
			p.Columns[i] = string(r.take(r.count(1)))
		}
	}
	setStatsCounters(&p.Stats, r.varints(r.count(1)))
	// Every array is checked against the bytes it needs; the group count of
	// a partial without arrays at least against the bytes there are.
	p.n = r.count(1)
	if n := r.count(1); n > 0 {
		p.keys = make([]valueColumn, n)
		for k := range p.keys {
			p.keys[k] = r.valueColumn(p.n)
		}
	}
	if n := r.count(1); n > 0 {
		p.aggs = make([]aggColumn, n)
		for j := range p.aggs {
			r.aggColumn(&p.aggs[j], p.n)
		}
	}
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// wireReader consumes the payload; the first malformed read sticks in err
// and every later read returns zero values.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("exec: decode partial: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated payload")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads the number of elements that follow, each at least size bytes
// on the wire.
func (r *wireReader) count(size int) int { return r.fits(r.uvarint(), size) }

// fits returns n, unless an earlier read failed or the bytes that remain
// cannot hold n elements of size bytes: nothing is allocated from a count
// that has not passed here.
func (r *wireReader) fits(n uint64, size int) int {
	if r.err == nil && n > uint64(len(r.b)/size) {
		r.fail("%d elements of %d bytes in the %d that remain", n, size, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// take cuts off the next n bytes, a number that fits.
func (r *wireReader) take(n int) []byte {
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) varints(n int) []int64 {
	out := make([]int64, r.fits(uint64(n), 1))
	b := r.b // a local: the loop must not store through r for every value
	for i := range out {
		v, w := binary.Varint(b)
		if w <= 0 {
			r.fail("truncated payload")
			return nil
		}
		out[i], b = v, b[w:]
	}
	r.b = b
	return out
}

func (r *wireReader) floats(n int) []float64 {
	out := make([]float64, r.fits(uint64(n), 8))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.take(8 * len(out))
	return out
}

// lengths reads n run lengths, each at most limit, as the n+1 offsets that
// delimit runs of elements of size bytes.
func (r *wireReader) lengths(n, size int, limit uint64) []uint32 {
	off := make([]uint32, r.fits(uint64(n), 1)+1)
	b, total := r.b, uint64(0)
	for i := 1; i < len(off); i++ {
		l, w := binary.Uvarint(b)
		if w <= 0 || l > limit || total+l > math.MaxUint32 {
			r.fail("run %d of %d elements after %d, at most %d allowed", i-1, l, total, limit)
			return []uint32{0}
		}
		total, b = total+l, b[w:]
		off[i] = uint32(total)
	}
	r.b = b
	if r.fits(total, size) != int(total) {
		return []uint32{0}
	}
	return off
}

// runs reads n runs of 8-byte values, of at most limit values each.
func (r *wireReader) runs(n int, limit uint64) runColumn {
	c := runColumn{off: r.lengths(n, 8, limit)}
	c.vals = make([]uint64, c.off[len(c.off)-1])
	for i := range c.vals {
		c.vals[i] = binary.LittleEndian.Uint64(r.b[8*i:])
	}
	r.take(8 * len(c.vals))
	return c
}

func (r *wireReader) valueColumn(n int) valueColumn {
	var c valueColumn
	if kind := r.take(r.fits(1, 1)); len(kind) == 1 {
		c.kind = value.Kind(kind[0])
	}
	switch c.kind {
	case value.KindInt64:
		c.ints = r.varints(n)
	case value.KindFloat64:
		c.flts = r.floats(n)
	case value.KindString:
		c.off = r.lengths(n, 1, math.MaxUint32)
		c.arena = r.take(int(c.off[len(c.off)-1]))
	default:
		r.fail("unknown value kind %d", c.kind)
	}
	return c
}

func (r *wireReader) aggColumn(a *aggColumn, n int) {
	if has := r.take(r.fits(1, 1)); len(has) == 1 {
		a.has = aggArrays(has[0])
	}
	if a.has >= arrSketch<<1 || a.has&arrMin != 0 && a.has&arrMax != 0 {
		r.fail("aggregate presence mask %#x", a.has)
	}
	if a.has&arrCounts != 0 {
		a.counts = r.varints(n)
	}
	if a.has&arrSumI != 0 {
		a.sumI = r.varints(n)
	}
	if a.has&arrParts != 0 {
		a.parts = r.runs(n, math.MaxUint32)
	}
	if a.has&(arrMin|arrMax) != 0 {
		a.vals = r.valueColumn(n)
	}
	if a.has&arrSketch != 0 {
		m := r.uvarint()
		if m > math.MaxInt32 {
			r.fail("sketch parameter m = %d", m)
		}
		a.m, a.hashes = int(m), r.runs(n, m)
		for g := 0; g+1 < len(a.hashes.off); g++ {
			for run := a.hashes.at(g); len(run) > 1; run = run[1:] {
				if run[0] >= run[1] {
					r.fail("sketch %d is not ascending", g)
					return
				}
			}
		}
	}
}

// statsCounters snapshots QueryStats' counters — every field, in declaration
// order, which is therefore append-only: add new counters at the end of the
// struct, so older decoders skip them and newer decoders zero-fill.
func statsCounters(qs *QueryStats) []int64 {
	out := make([]int64, reflect.TypeFor[QueryStats]().NumField())
	qs.eachCounter(func(i int, c reflect.Value) { out[i] = c.Int() })
	return out
}

// setStatsCounters is the inverse of statsCounters; counters beyond the
// known list (a newer peer) are ignored, missing ones stay zero.
func setStatsCounters(qs *QueryStats, vals []int64) {
	qs.eachCounter(func(i int, c reflect.Value) {
		if i < len(vals) {
			c.SetInt(vals[i])
		}
	})
}
