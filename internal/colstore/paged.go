package colstore

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"powerdrill/internal/dict"
	"powerdrill/internal/value"
)

// On a lazy store under a memory budget, a string-array column's global
// dictionary is paged by frame, Section 5's sub-dictionaries: each frame is
// a memory-manager entry "<ns>\x00<column>#f<i>", charged what its string
// array holds. A query reads it through a pagedDict, which finds an id's
// frame by the layout's value counts and a value's by its first values,
// and pins only that frame, on the set's own goroutine; readers on workers
// get the frames of their chunks pinned first (PinChunkFrames). A frame
// load a lookup meets and cannot return is kept for Err.

// pagedDict is one query's view of a paged dictionary: frames[i] is frame
// i once the set has pinned it, and bytes what the pinned frames hold.
type pagedDict struct {
	p      *PinSet
	h      *heldPin
	base   []uint32 // the layout's
	frames []*dict.StringArray
	bytes  int64
}

func (d *pagedDict) Kind() value.Kind   { return value.KindString }
func (d *pagedDict) Len() int           { return int(d.base[len(d.frames)]) }
func (d *pagedDict) MemoryBytes() int64 { return d.bytes }

// frameOf returns the frame that holds id, len(frames) past the last.
func (d *pagedDict) frameOf(id uint32) int {
	return sort.Search(len(d.frames), func(i int) bool { return d.base[i+1] > id })
}

// at returns frame i, pinning it if the view lacks it: nil if it fails,
// or if a load failed before it, which fails the query anyway.
func (d *pagedDict) at(i int) *dict.StringArray {
	if d.frames[i] == nil && d.p.err == nil {
		d.p.pinIDs(d, d.base[i:i+1])
	}
	return d.frames[i]
}

// StringAt, Value and Hash implement dict.StringDict on id's frame.
func (d *pagedDict) StringAt(id uint32) string {
	if i := d.frameOf(id); d.at(i) != nil {
		return d.frames[i].StringAt(id - d.base[i])
	}
	return ""
}

func (d *pagedDict) Value(id uint32) value.Value {
	return value.String(strings.Clone(d.StringAt(id)))
}

func (d *pagedDict) Hash(id uint32) uint64 {
	if i := d.frameOf(id); d.at(i) != nil {
		return d.frames[i].Hash(id - d.base[i])
	}
	return 0
}

// Load pins the frames that hold ids at once (dict.Load), the first
// failure kept for Err.
func (d *pagedDict) Load(ids []uint32) { d.p.pinIDs(d, ids) }

// Hashes writes the hash of each of ids, which ascend, into dst; a cursor
// walks the frames beside them.
func (d *pagedDict) Hashes(ids []uint32, dst []uint64) {
	i, f := -1, (*dict.StringArray)(nil)
	for k, id := range ids {
		if i < 0 || id >= d.base[i+1] || id < d.base[i] {
			i = d.frameOf(id)
			f = d.at(i)
		}
		if dst[k] = 0; f != nil {
			dst[k] = f.Hash(id - d.base[i])
		}
	}
}

// search returns the frame among whose values s would lie, pinned: the
// last whose first value is at most s, or -1 for none or a failed load.
func (d *pagedDict) search(s string) int {
	lay := d.h.layout
	i := sort.Search(len(d.frames), func(i int) bool { return string(lay.frame(i).first) > s }) - 1
	if i < 0 || d.at(i) == nil {
		return -1
	}
	return i
}

// Lookup and FindGE implement dict.Dict, reading one frame at most.
func (d *pagedDict) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != value.KindString {
		return 0, false
	}
	if i := d.search(v.Str()); i >= 0 {
		id, ok := d.frames[i].LookupString(v.Str())
		return d.base[i] + id, ok
	}
	return 0, false
}

func (d *pagedDict) FindGE(v value.Value) uint32 {
	switch {
	case v.Kind() != value.KindString && value.String("").Compare(v) < 0:
		return uint32(d.Len()) // every string sorts before v's kind
	case v.Kind() != value.KindString:
		return 0
	}
	if i := d.search(v.Str()); i >= 0 {
		return d.base[i] + d.frames[i].FindGE(v)
	}
	return 0
}

// pagedDictOf returns the view of a lazy column's dictionary, built on the
// column's first call in the set, when it is paged — a string array under
// a budget — and nil otherwise. Without a budget nothing is evicted, so
// paging saves nothing there and would cost a pin per frame where a whole
// dictionary takes one.
func (p *PinSet) pagedDictOf(h *heldPin) *pagedDict {
	if d, ok := h.view.Dict.(*pagedDict); ok || h.dict || h.view.Kind != value.KindString ||
		p.s.lazy.reader.sd == StringDictTrie || p.s.lazy.mgr.Budget() == 0 {
		return d
	}
	d := &pagedDict{p: p, h: h, base: h.layout.base, frames: make([]*dict.StringArray, h.layout.numFrames())}
	h.view.Dict, h.dict = d, true
	return d
}

// pinIDs pins, in frame order, the frames of d that hold the ids of lists
// (each ascending, or paying a search per id) and that the view lacks: the
// resident ones under one lock, then the cold ones read in coalesced runs,
// each verified, decoded and admitted. The first failure is kept by the
// set (Err) as well as returned. After Release a frame still loads, and is
// not kept pinned.
func (p *PinSet) pinIDs(d *pagedDict, lists ...[]uint32) (err error) {
	defer func() {
		if err != nil {
			p.noteChecksumErr(err)
			p.err = cmp.Or(p.err, err)
		}
		if p.held == nil { // released
			p.s.lazy.mgr.ReleaseAll(p.keys)
			p.keys = nil
		}
	}()
	need := make([]bool, len(d.frames))
	for _, ids := range lists {
		i := len(need)
		for _, id := range ids {
			if i == len(need) || id >= d.base[i+1] || id < d.base[i] {
				if i = d.frameOf(id); i == len(need) {
					return fmt.Errorf("colstore: column %q: dictionary has no global-id %d", d.h.mc.Name, id)
				}
			}
			need[i] = true
		}
	}
	var want []int
	var keys []string
	for i, n := range need {
		if n && d.frames[i] == nil {
			want, keys = append(want, i), append(keys, d.h.keys.frame(i))
		}
	}
	values := make([]any, len(want))
	cold := p.s.lazy.mgr.PinResident(keys, values, nil)
	for k, v := range values {
		if v != nil {
			p.holdFrame(d, want[k], keys[k], v.(*loadedDict))
		}
	}
	if len(cold) == 0 {
		return nil
	}
	idx := make([]int, len(cold))
	for k, c := range cold {
		idx[k] = want[c]
	}
	h, r := d.h, p.s.lazy.reader
	recs, _, err := r.readFrames(h.mc, h.layout, idx, &p.bufs)
	for k := 0; err == nil && k < len(idx); k++ {
		var f *dict.StringArray
		if f, err = r.stringFrame(h.mc, h.layout, idx[k], recs[k], &p.bufs); err != nil {
			break
		}
		ld := &loadedDict{d: f, size: f.MemoryBytes(), diskBytes: int64(len(recs[k]))}
		var v any
		var loaded bool
		v, loaded, err = p.s.acquire(h.keys, keys[cold[k]], func() (any, int64, int64, error) { return ld, ld.size, ld.diskBytes, nil })
		if err == nil {
			p.holdFrame(d, idx[k], keys[cold[k]], v.(*loadedDict))
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
	d.frames[i] = ld.d.(*dict.StringArray)
	d.bytes += ld.size
	p.keys = append(p.keys, key)
}

// PinChunkFrames pins, when the named column's dictionary is paged, the
// frames that hold the global-ids of its pinned chunks flagged in active
// (nil = every one), read in coalesced runs: what workers that hash or
// render every value of those chunks read, pinned before they start.
func (p *PinSet) PinChunkFrames(name string, active []bool) error {
	h := p.held[name]
	if h == nil || p.pagedDictOf(h) == nil {
		return nil
	}
	var lists [][]uint32
	for ci, ch := range h.view.Chunks {
		if ch != nil && (active == nil || active[ci]) {
			lists = append(lists, ch.GlobalIDs)
		}
	}
	return p.pinIDs(h.view.Dict.(*pagedDict), lists...)
}

// Err returns the first frame load that failed in the set: a lookup that
// met it answered as if its value were absent, so the engine checks Err
// before it returns or caches anything.
func (p *PinSet) Err() error { return p.err }
