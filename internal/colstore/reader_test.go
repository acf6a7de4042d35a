package colstore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// frameDecode decodes one frame of n values alone, as readDict decodes each
// of a dictionary's frames.
func frameDecode(raw []byte, kind value.Kind, n uint64) (dict.Dict, error) {
	b, err := newDictBuilder(kind, n, len(raw))
	if err != nil {
		return nil, err
	}
	r := &byteReader{buf: raw}
	if err := b.frame(r, n); err != nil {
		return nil, err
	}
	if err := frameEnd(r); err != nil {
		return nil, err
	}
	return b.dict(StringDictArray)
}

// TestFrameReadMatchesDecode: a frame read alone, as a paged dictionary
// reads it (frameDict, its first value checked against the layout's),
// refuses every frame a decode of the whole dictionary refuses of it, and
// accepts every frame of a valid dictionary, giving the values that decode
// gives — over the frames of valid dictionaries of every kind, one frame
// or several, over the same frames with bytes overwritten, and over frames
// only the order check refuses.
func TestFrameReadMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	kinds := []value.Kind{value.KindString, value.KindInt64, value.KindFloat64}
	type frame struct {
		raw []byte
		n   int
	}
	frames := map[value.Kind][]frame{}
	for _, kind := range kinds {
		for _, n := range []int{1, 2, 7, 300, 3000} {
			var d dict.Dict
			switch kind {
			case value.KindString:
				vals := make([]string, n)
				for i := range vals {
					vals[i] = string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + strings.Repeat("x", rng.Intn(3))
				}
				slices.Sort(vals)
				d = dict.NewStringArray(slices.Compact(vals))
			case value.KindInt64:
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = rng.Int63n(1<<uint(1+rng.Intn(62))) - 1<<20
				}
				slices.Sort(vals)
				d = dict.NewInt64s(slices.Compact(vals))
			default:
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = rng.NormFloat64() * 1e3
				}
				slices.Sort(vals)
				d = dict.NewFloat64s(slices.Compact(vals))
			}
			dictFrames(d, kind, func(raw []byte, count int) {
				frames[kind] = append(frames[kind], frame{slices.Clone(raw), count})
			})
		}
	}
	// Frames only the order check refuses: a repeat, a wrap, −0 beside
	// +0, and a NaN first or last.
	keys := func(ks ...uint64) frame { return frame{appendKeyDeltas(nil, ks), len(ks)} }
	deltas := func(first uint64, ds ...byte) frame {
		raw := binary.LittleEndian.AppendUint64(nil, first)
		return frame{append(append(raw, 1), ds...), 1 + len(ds)}
	}
	frames[value.KindInt64] = append(frames[value.KindInt64], deltas(5, 1, 0, 2), deltas(math.MaxUint64-1, 1, 1))
	frames[value.KindFloat64] = append(frames[value.KindFloat64],
		keys(numericKey(value.Float64(-1)), numericKey(value.Float64(math.Copysign(0, -1))), numericKey(value.Float64(0))),
		keys(minFloatKey-1, numericKey(value.Float64(1))),
		keys(numericKey(value.Float64(1)), maxFloatKey+1))
	frames[value.KindString] = append(frames[value.KindString], frame{[]byte{1, 'b', 1, 'a'}, 2}, frame{[]byte{1, 'a', 1, 'a'}, 2})
	multi := 0
	r := &Reader{m: &manifest{}}
	for _, kind := range kinds {
		for _, fr := range frames[kind] {
			if fr.n > 1 && len(fr.raw) > frameBytes/2 {
				multi++
			}
			// The layout's first value is the unaltered frame's.
			entry := frameEntry{len: int64(len(fr.raw)), raw: int64(len(fr.raw)), count: fr.n}
			if d, err := frameDecode(fr.raw, kind, uint64(fr.n)); err == nil {
				entry.first = []byte(orderKey(d.Value(0)))
			}
			lay, err := decodeLayout(appendLayout(nil, []frameEntry{entry}, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				raw := slices.Clone(fr.raw)
				if trial > 0 {
					raw[rng.Intn(len(raw))] = byte(rng.Intn(256))
				}
				d, derr := frameDecode(raw, kind, uint64(fr.n))
				f, ferr := r.frameDict(manifestCol{Name: "d"}, lay, kind, 0, raw, nil)
				if derr != nil && ferr == nil || trial == 0 && (derr == nil) != (ferr == nil) {
					t.Fatalf("%v %x: decode error %v, frame read error %v", kind, raw, derr, ferr)
				}
				if ferr != nil {
					continue
				}
				for id := uint32(0); int(id) < fr.n; id++ {
					if got, want := f.Value(id), d.Value(id); got != want || orderKey(got) != orderKey(want) {
						t.Fatalf("%v: frame read gives %v at id %d, decode %v", kind, got, id, want)
					}
				}
			}
		}
	}
	if multi < len(kinds) {
		t.Fatalf("only %d full frames: the 3 000-value dictionaries should cut several", multi)
	}
}

// frameStore writes the column file of a dictionary alone — its frames,
// no chunks — with the codec named (none for ""), and returns a Reader
// over it, the column's manifest entry and its layout.
func frameStore(t *testing.T, d dict.Dict, kind value.Kind, codec string) (*Reader, manifestCol, *columnLayout) {
	t.Helper()
	var c compress.Codec
	if codec != "" {
		c = mustCodec(codec)
	}
	file, mc := encodeColumn(&Column{Name: "d", Kind: kind, Dict: d}, c)
	mc.File = "col_0000.bin"
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, mc.File), file, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := newReader(dir, &manifest{Codec: codec, Columns: []manifestCol{mc}})
	if err != nil {
		t.Fatal(err)
	}
	return r, mc, fileLayout(t, file, mc)
}

// checkFrameReads saves d as frames, without a codec or with zippy, and
// checks the reads of it: the whole dictionary decodes to d's values bit
// for bit; the frames that hold any ids, read alone as a paged dictionary
// reads them (frameValues), give the values of the full decode; and once
// a byte of one frame is flipped, every read that touches that frame fails
// with a *ChecksumError, and no read that does not.
func checkFrameReads(t *testing.T, d dict.Dict, kind value.Kind, rng *rand.Rand) {
	t.Helper()
	r, mc, lay := frameStore(t, d, kind, []string{"", "zippy"}[rng.Intn(2)])
	frames, _ := entries(lay)
	defer r.Close()
	same := func(a, b value.Value) bool {
		return a == b && (a.Kind() != value.KindFloat64 || math.Float64bits(a.Float()) == math.Float64bits(b.Float()))
	}
	full, _, err := r.readDict(mc, lay, kind, nil)
	if err != nil || full.Len() != d.Len() {
		t.Fatalf("%d values in %d frames decode to %v", d.Len(), len(frames), err)
	}
	for id := 0; id < d.Len(); id++ {
		if !same(full.Value(uint32(id)), d.Value(uint32(id))) {
			t.Fatalf("value %d decodes to %v, want %v", id, full.Value(uint32(id)), d.Value(uint32(id)))
		}
	}
	if d.Len() == 0 {
		return
	}
	frameOf := func(id uint32) int {
		base := 0
		for i, fr := range frames {
			if base += fr.count; int(id) < base {
				return i
			}
		}
		return -1
	}
	someIDs := func() []uint32 {
		ids := make([]uint32, 1+rng.Intn(8))
		for i := range ids {
			ids[i] = uint32(rng.Intn(d.Len()))
		}
		return ids
	}
	ids := someIDs()
	vals, n, err := frameValues(r, mc, lay, kind, ids)
	if err != nil {
		t.Fatalf("lookup of %v: %v", ids, err)
	}
	var want int64
	read := map[int]bool{}
	for i, id := range ids {
		if !same(vals[i], full.Value(id)) {
			t.Fatalf("lookup gives %v at id %d, the full decode %v", vals[i], id, full.Value(id))
		}
		if f := frameOf(id); !read[f] {
			read[f] = true
			want += frames[f].len
		}
	}
	if n != want {
		t.Fatalf("lookup of %v read %d bytes, its %d frames hold %d", ids, n, len(read), want)
	}

	bad, base := rng.Intn(len(frames)), 0
	for _, fr := range frames[:bad] {
		base += fr.count
	}
	fr := frames[bad]
	path := filepath.Join(r.dir, mc.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[fr.off+rng.Int63n(fr.len)] ^= 1 << rng.Intn(8)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *ChecksumError
	for trial := 0; trial < 6; trial++ {
		ids := someIDs()
		if trial == 0 {
			ids = append(ids, uint32(base+rng.Intn(fr.count)))
		}
		touches := slices.ContainsFunc(ids, func(id uint32) bool { return frameOf(id) == bad })
		_, _, err := frameValues(r, mc, lay, kind, ids)
		if touches != errors.As(err, &ce) || !touches && err != nil {
			t.Fatalf("lookup of %v after a flip in frame %d of %d: %v", ids, bad, len(frames), err)
		}
	}
	if _, _, err := r.readDict(mc, lay, kind, nil); !errors.As(err, &ce) || ce.Off != fr.off || ce.Len != fr.len {
		t.Fatalf("full decode after a flip in frame %d at [%d,%d): %v", bad, fr.off, fr.off+fr.len, err)
	}
}

// frameValues reads the frames that hold ids, each alone (readFrames,
// frameDict), and returns the values of ids and the disk bytes read.
func frameValues(r *Reader, mc manifestCol, lay *columnLayout, kind value.Kind, ids []uint32) ([]value.Value, int64, error) {
	var idx []int
	for _, id := range ids {
		idx = append(idx, sort.Search(lay.numFrames(), func(i int) bool { return lay.base[i+1] > id }))
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	recs, n, err := r.readFrames(mc, lay, idx, nil)
	if err != nil {
		return nil, 0, err
	}
	vals := make([]value.Value, len(ids))
	for k, i := range idx {
		f, err := r.frameDict(mc, lay, kind, i, recs[k], nil)
		if err != nil {
			return nil, 0, err
		}
		for j, id := range ids {
			if id >= lay.base[i] && id < lay.base[i+1] {
				vals[j] = f.Value(id - lay.base[i])
			}
		}
	}
	return vals, n, nil
}

// TestValuesPinsItsFrames: PinSet.Values pins the frames that hold the
// ids it wants, numeric dictionaries' as strings', like any load: without
// a budget, under one with room, and in a manager the other columns fill,
// where the loads evict to make room. Each gives the same values, one
// verified cold load per frame, and the frames resident afterwards.
func TestValuesPinsItsFrames(t *testing.T) {
	built, dir := buildSavedStore(t, 3000, "zippy")
	for _, name := range []string{"timestamp", "latency", "user"} {
		col := built.Column(name)
		gids := []uint32{uint32(col.Dict.Len() - 1), 0, uint32(col.Dict.Len() / 2), 0}
		size := col.Dict.MemoryBytes()
		fill := othersResident(t, dir, built.Columns(), name)
		for _, budget := range []int64{0, 2*size + 8192, fill} {
			mgr := memmgr.New(budget, "")
			lazy, _, err := OpenLazy(dir, mgr)
			if err != nil {
				t.Fatal(err)
			}
			pinLayout(t, lazy, name)
			_, lay, _ := columnOf(t, lazy.lazy.reader, name)
			frames := map[int]bool{}
			for _, id := range gids {
				frames[sort.Search(lay.numFrames(), func(i int) bool { return lay.base[i+1] > id })] = true
			}
			ps := lazy.NewPinSet()
			vals, err := ps.Values(name, gids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range gids {
				if vals[i] != col.Dict.Value(id) {
					t.Fatalf("%s, budget %d: id %d is %v, want %v", name, budget, id, vals[i], col.Dict.Value(id))
				}
			}
			if n := int64(len(frames)); ps.ColdDictLoads != n || ps.ChecksumVerified != n || ps.DiskBytesRead == 0 {
				t.Errorf("%s, budget %d: %d cold frames, %d verified, %d disk bytes; want %d, %d, > 0",
					name, budget, ps.ColdDictLoads, ps.ChecksumVerified, ps.DiskBytesRead, n, n)
			}
			ps.Release()
			ps = lazy.NewPinSet()
			if _, err := ps.Values(name, gids); err != nil || ps.ColdDictLoads != 0 {
				t.Errorf("%s, budget %d: %d frames cold again (%v)", name, budget, ps.ColdDictLoads, err)
			}
			ps.Release()
			lazy.Close()
		}
	}
}

// TestValuesReadsOnlyItsFrames: on a budgeted store, PinSet.Values on
// timestamp — a dictionary of many frames, larger than the budget — reads
// exactly the frames that hold the ids it wants, each no longer than a
// frame, and not the rest of the dictionary.
func TestValuesReadsOnlyItsFrames(t *testing.T) {
	built, dir := buildSavedStore(t, 20000, "zippy")
	const name = "timestamp"
	d := built.Column(name).Dict
	lazy, _, err := OpenLazy(dir, memmgr.New(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	r := lazy.lazy.reader
	_, lay, _ := columnOf(t, r, name)
	frames, _ := entries(lay)
	whole, err := r.DictFileLen(name)
	if err != nil || len(frames) < 4 {
		t.Fatalf("%s: %d frames (%v); want several", name, len(frames), err)
	}
	gids := []uint32{uint32(d.Len() - 1), 0, 1, uint32(d.Len() / 2), 0}
	var want int64
	held := map[int]bool{}
	for _, id := range gids {
		base := 0
		for i, fr := range frames {
			if base += fr.count; int(id) < base {
				if !held[i] {
					held[i] = true
					want += fr.len
				}
				break
			}
		}
	}
	ps := lazy.NewPinSet()
	defer ps.Release()
	vals, err := ps.Values(name, gids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range gids {
		if vals[i] != d.Value(id) {
			t.Fatalf("id %d is %v, want %v", id, vals[i], d.Value(id))
		}
	}
	if ps.DiskBytesRead != want || want > int64(len(held))*frameBytes || want*4 > whole {
		t.Fatalf("Values read %d bytes: its %d frames hold %d (at most %d each), the dictionary %d",
			ps.DiskBytesRead, len(held), want, frameBytes, whole)
	}
	if n := int64(len(held)); ps.ColdDictLoads != n || ps.ChecksumVerified != n {
		t.Errorf("%d cold frames, %d verified; want %d, one per frame", ps.ColdDictLoads, ps.ChecksumVerified, n)
	}
}

// TestValuesChargesDecodedDict: on a store saved with tries, a frame
// decodes to a trie of its own, and PinSet.Values charges the frames it
// pins exactly what they hold decoded: in a manager the other columns fill
// with room for that charge and not a byte more, the frames are admitted
// and nothing is evicted. The store is compressed.
func TestValuesChargesDecodedDict(t *testing.T) {
	built, dir := buildSavedStoreDict(t, 3000, "zippy", StringDictTrie)
	const name = "user"
	col := built.Column(name)
	gids := []uint32{uint32(col.Dict.Len() - 1), 0, uint32(col.Dict.Len() / 2)}
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mc, lay, kind := columnOf(t, r, name)
	reached := map[int]bool{}
	for _, id := range gids {
		reached[sort.Search(lay.numFrames(), func(i int) bool { return lay.base[i+1] > id })] = true
	}
	var held int64
	for i := range reached {
		recs, _, err := r.readFrames(mc, lay, []int{i}, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := r.frameDict(mc, lay, kind, i, recs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(*dict.Trie); !ok {
			t.Fatalf("frame %d decodes to a %T, want a trie", i, f)
		}
		held += f.MemoryBytes()
	}
	mgr := memmgr.New(othersResident(t, dir, built.Columns(), name)+held, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	pinLayout(t, lazy, name)
	for _, other := range built.Columns() {
		if other == name {
			continue
		}
		ps := lazy.NewPinSet()
		if _, err := ps.Column(other); err != nil {
			t.Fatal(err)
		}
		ps.Release()
	}
	before := mgr.Stats()
	ps := lazy.NewPinSet()
	vals, err := ps.Values(name, gids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range gids {
		if vals[i] != col.Dict.Value(id) {
			t.Fatalf("id %d is %v, want %v", id, vals[i], col.Dict.Value(id))
		}
	}
	if ps.ColdBytesLoaded != held {
		t.Errorf("Values charged %d bytes, the decoded frames hold %d", ps.ColdBytesLoaded, held)
	}
	ps.Release()
	after := mgr.Stats()
	if after.Evictions != before.Evictions || after.ResidentBytes != before.ResidentBytes+held {
		t.Errorf("Values evicted %d entries, and resident bytes went %d -> %d; want none evicted and %d more",
			after.Evictions-before.Evictions, before.ResidentBytes, after.ResidentBytes, held)
	}
}

// othersResident returns the bytes a manager whose budget holds everything
// holds once every column of the store at dir but skip, and skip's layout,
// have been pinned and released.
func othersResident(t *testing.T, dir string, columns []string, skip string) int64 {
	mgr := memmgr.New(1<<40, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	pinLayout(t, lazy, skip)
	for _, other := range columns {
		if other == skip {
			continue
		}
		ps := lazy.NewPinSet()
		if _, err := ps.Column(other); err != nil {
			t.Fatal(err)
		}
		ps.Release()
	}
	return mgr.Stats().ResidentBytes
}

// pinLayout loads the named column's layout into the store's manager and
// leaves it resident, unpinned: a lookup of the column's values then loads
// nothing but its dictionary's frames.
func pinLayout(t *testing.T, s *Store, name string) {
	t.Helper()
	ps := s.NewPinSet()
	defer ps.Release()
	if _, err := ps.ChunkSpans(name); err != nil {
		t.Fatal(err)
	}
}
