package colstore

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// On a lazy store every global dictionary is paged by frame, Section 5's
// sub-dictionaries: each frame is a memory-manager entry
// "<ns>\x00<column>#f<i>", charged what it holds decoded — a string array,
// or a trie on a store saved with tries, an Int64s or a Float64s. A query
// reads it through a pagedDict, which finds an id's frame by the layout's
// value counts and a value's by the frames' first values, and pins only
// that frame, on the set's own goroutine; readers on workers get the
// frames of their chunks pinned first (PinChunkFrames). A frame load a
// lookup meets and cannot return is kept for Err.

// pagedDict is one query's view of a paged dictionary: frames[i] is frame
// i once the set has pinned it, pinned how many it has, and bytes what
// they hold.
type pagedDict struct {
	p      *PinSet
	h      *heldPin
	kind   value.Kind
	base   []uint32 // the layout's
	frames []dict.Dict
	pinned int
	bytes  int64
}

func (d *pagedDict) Kind() value.Kind   { return d.kind }
func (d *pagedDict) Len() int           { return int(d.base[len(d.frames)]) }
func (d *pagedDict) MemoryBytes() int64 { return d.bytes }

// frameOf returns the frame that holds id, len(frames) past the last.
func (d *pagedDict) frameOf(id uint32) int {
	return sort.Search(len(d.frames), func(i int) bool { return d.base[i+1] > id })
}

// at returns frame i, pinning it if the view lacks it: nil if it fails,
// or if a load failed before it, which fails the query anyway.
func (d *pagedDict) at(i int) dict.Dict {
	if p := d.p; d.frames[i] == nil && p.err == nil {
		p.want = append(p.want[:0], i)
		p.pinFrames(d, p.want)
	}
	return d.frames[i]
}

// Frame returns the frame that holds id, pinned, and the ids it holds:
// what dict's bulk readers walk.
func (d *pagedDict) Frame(id uint32) (dict.Dict, uint32, uint32) {
	i := d.frameOf(id)
	return d.at(i), d.base[i], d.base[i+1]
}

// StringAt, Value and Hash implement dict.StringDict on id's frame.
func (d *pagedDict) StringAt(id uint32) string {
	if f, lo, _ := d.Frame(id); f != nil {
		return f.(dict.StringDict).StringAt(id - lo)
	}
	return ""
}

func (d *pagedDict) Value(id uint32) value.Value {
	if f, lo, _ := d.Frame(id); f != nil {
		return f.Value(id - lo)
	}
	switch d.kind { // the zero of the kind, as Hash and StringAt answer
	case value.KindInt64:
		return value.Int64(0)
	case value.KindFloat64:
		return value.Float64(0)
	}
	return value.String("")
}

func (d *pagedDict) Hash(id uint32) uint64 {
	if f, lo, _ := d.Frame(id); f != nil {
		return f.Hash(id - lo)
	}
	return 0
}

// Load pins the frames that hold ids at once (dict.Load), the first
// failure kept for Err.
func (d *pagedDict) Load(ids []uint32) { d.p.pinIDs(d, ids) }

// search returns the frame among whose values v, of the dictionary's
// kind, would lie, pinned: the last whose first value is at most v, or -1
// for none or a failed load.
func (d *pagedDict) search(v value.Value) int {
	lay, key := d.h.layout, orderKey(v)
	if v.Kind() == value.KindFloat64 && (v.Float() == 0 || v.Float() != v.Float()) {
		key = orderKey(value.Float64(math.Abs(v.Float()))) // −0 equals +0; a NaN, keyed past +Inf, equals nothing
	}
	i := sort.Search(len(d.frames), func(i int) bool { return string(lay.frame(i).first) > key }) - 1
	if i < 0 || d.at(i) == nil {
		return -1
	}
	return i
}

// Lookup and FindGE implement dict.Dict, reading one frame at most.
func (d *pagedDict) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != d.kind {
		return 0, false
	}
	if i := d.search(v); i >= 0 {
		id, ok := d.frames[i].Lookup(v)
		return d.base[i] + id, ok
	}
	return 0, false
}

func (d *pagedDict) FindGE(v value.Value) uint32 {
	switch {
	case v.Kind() != d.kind && d.kind < v.Kind():
		return uint32(d.Len()) // every value sorts before v's kind
	case v.Kind() != d.kind:
		return 0
	}
	if i := d.search(v); i >= 0 {
		return d.base[i] + d.frames[i].FindGE(v)
	}
	return 0
}

// pagedDictOf returns the view of a lazy column's dictionary, built on the
// column's first call in the set.
func (p *PinSet) pagedDictOf(h *heldPin) *pagedDict {
	if d, ok := h.view.Dict.(*pagedDict); ok {
		return d
	}
	d := &pagedDict{p: p, h: h, kind: h.view.Kind, base: h.layout.base, frames: make([]dict.Dict, h.layout.numFrames())}
	h.view.Dict = d
	return d
}

// wantFrames appends to p.want the frames of d that hold ids, which
// ascend, that the view lacks and that p.want does not name yet (p.mark
// flags those it does, after startWant): a search for each frame, and one
// past the ids it holds.
func (p *PinSet) wantFrames(d *pagedDict, ids []uint32) error {
	for k := 0; k < len(ids); {
		i := d.frameOf(ids[k])
		if i == len(d.frames) {
			return p.keep(fmt.Errorf("colstore: column %q: dictionary has no global-id %d", d.h.mc.Name, ids[k]))
		}
		if d.frames[i] == nil && !p.mark[i] {
			p.mark[i] = true
			p.want = append(p.want, i)
		}
		end := d.base[i+1]
		k += sort.Search(len(ids)-k, func(j int) bool { return ids[k+j] >= end })
	}
	return nil
}

// startWant empties p.want, for frames of d.
func (p *PinSet) startWant(d *pagedDict) {
	p.want = p.want[:0]
	p.mark = slices.Grow(p.mark[:0], len(d.frames))[:len(d.frames)]
	clear(p.mark)
}

// pinIDs pins the frames of d that hold ids, in any order (see
// pinFrames).
func (p *PinSet) pinIDs(d *pagedDict, ids []uint32) error {
	if !slices.IsSorted(ids) {
		p.ids = append(p.ids[:0], ids...)
		slices.Sort(p.ids)
		ids = p.ids
	}
	p.startWant(d)
	if err := p.wantFrames(d, ids); err != nil {
		return err
	}
	return p.pinFrames(d, p.want)
}

// keep records err as the set's first failure (Err), and returns it.
func (p *PinSet) keep(err error) error {
	p.noteChecksumErr(err)
	p.err = cmp.Or(p.err, err)
	return err
}

// pinFrames pins, in frame order, the frames of d named in want (any
// order) that the view lacks: the resident ones under one lock, then the
// cold ones read in coalesced runs, each verified, decoded and admitted.
// The first failure is kept by the set (Err) as well as returned. After
// Release a frame still loads, and is not kept pinned.
func (p *PinSet) pinFrames(d *pagedDict, want []int) (err error) {
	defer func() {
		if err != nil {
			p.keep(err)
		}
		if p.held == nil { // released
			p.s.lazy.mgr.ReleaseAll(p.keys)
			p.keys = nil
		}
	}()
	slices.Sort(want)
	h, w := d.h, &p.warm
	keys := h.keys.frameKeys(len(d.frames))
	w.chunks, w.keys = w.chunks[:0], w.keys[:0]
	for _, i := range want {
		if d.frames[i] == nil {
			w.chunks, w.keys = append(w.chunks, i), append(w.keys, keys[i])
		}
	}
	w.values = slices.Grow(w.values[:0], len(w.keys))[:len(w.keys)]
	clear(w.values)
	w.cold = p.s.lazy.mgr.PinResident(w.keys, w.values, w.cold[:0])
	for k, v := range w.values {
		if v != nil {
			p.holdFrame(d, w.chunks[k], w.keys[k], v.(*loadedDict))
		}
	}
	if len(w.cold) == 0 {
		return nil
	}
	for k, c := range w.cold {
		w.cold[k] = w.chunks[c]
	}
	r := p.s.lazy.reader
	recs, _, err := r.readFrames(h.mc, h.layout, w.cold, &p.bufs)
	for k, i := range w.cold {
		if err != nil {
			break
		}
		var f dict.Dict
		if f, err = r.frameDict(h.mc, h.layout, d.kind, i, recs[k], &p.bufs); err != nil {
			break
		}
		ld := &loadedDict{d: f, size: f.MemoryBytes(), diskBytes: int64(len(recs[k]))}
		var v any
		var loaded bool
		v, loaded, err = p.s.acquire(h.keys, keys[i], func() (any, int64, int64, error) { return ld, ld.size, ld.diskBytes, nil })
		if err == nil {
			p.holdFrame(d, i, keys[i], v.(*loadedDict))
		}
		if loaded {
			p.ColdDictLoads++
			p.coldColumn(h, ld.size, ld.diskBytes)
			p.ChecksumVerified++
		}
	}
	return err
}

// holdFrame records frame i of d, under key, as pinned.
func (p *PinSet) holdFrame(d *pagedDict, i int, key string, ld *loadedDict) {
	d.frames[i] = ld.d
	d.bytes += ld.size
	d.pinned++
	p.keys = append(p.keys, key)
}

// PinChunkFrames pins the frames of the named lazy column's dictionary
// that hold the global-ids of its pinned chunks flagged in active (nil =
// every one), read in coalesced runs: what workers that hash, sum or
// render every value of those chunks read, pinned before they start. A
// call whose ctx is done reads nothing and returns ctx.Err().
func (p *PinSet) PinChunkFrames(ctx context.Context, name string, active []bool) error {
	h := p.held[name]
	if h == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	d := p.pagedDictOf(h)
	p.startWant(d)
	for ci, ch := range h.view.Chunks {
		if len(p.want) == len(d.frames)-d.pinned {
			break // every frame the view lacks is wanted
		}
		if ch != nil && (active == nil || active[ci]) {
			if err := p.wantFrames(d, ch.GlobalIDs); err != nil {
				return err
			}
		}
	}
	return p.pinFrames(d, p.want)
}

// Err returns the first frame load that failed in the set: a lookup that
// met it answered as if its value were absent, so the engine checks Err
// before it returns or caches anything.
func (p *PinSet) Err() error { return p.err }
