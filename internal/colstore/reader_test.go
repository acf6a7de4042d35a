package colstore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// TestDictWalkMatchesDecode: a walk of one frame for some of its ids
// refuses exactly the frames its decode refuses, and returns the values
// the decoded frame holds at those ids — over the frames of valid
// dictionaries of every kind, one frame or several, over the same frames
// with bytes overwritten, and over frames only the order check refuses.
func TestDictWalkMatchesDecode(t *testing.T) {
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
	for _, kind := range kinds {
		for _, fr := range frames[kind] {
			if fr.n > 1 && len(fr.raw) > frameBytes/2 {
				multi++
			}
			for trial := 0; trial < 40; trial++ {
				raw := slices.Clone(fr.raw)
				if trial > 0 {
					raw[rng.Intn(len(raw))] = byte(rng.Intn(256))
				}
				d, derr := frameDecode(raw, kind, uint64(fr.n))
				want := []uint32{0, uint32(rng.Intn(fr.n)), uint32(fr.n - 1)}
				slices.Sort(want)
				want = slices.Compact(want)
				strs, ints, floats, werr := walkFrame(raw, kind, uint64(fr.n), want)
				if (derr != nil) != (werr != nil) {
					t.Fatalf("%v %x: decode error %v, walk error %v", kind, raw, derr, werr)
				}
				if derr != nil {
					continue
				}
				for i, id := range want {
					var got value.Value
					switch kind {
					case value.KindString:
						got = value.String(strs[i])
					case value.KindInt64:
						got = value.Int64(ints[i])
					default:
						got = value.Float64(floats[i])
					}
					if got != d.Value(id) {
						t.Fatalf("%v: walk gives %v at id %d, decode %v", kind, got, id, d.Value(id))
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
// for bit; a lookup of any ids reads exactly the frames that hold them and
// gives the values of the full decode; and once a byte of one frame is
// flipped, every read that touches that frame fails with a
// *ChecksumError, and no read that does not.
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
	vals, n, err := r.dictValues(mc, lay, kind, ids, nil)
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
		_, _, err := r.dictValues(mc, lay, kind, ids, nil)
		if touches != errors.As(err, &ce) || !touches && err != nil {
			t.Fatalf("lookup of %v after a flip in frame %d of %d: %v", ids, bad, len(frames), err)
		}
	}
	if _, _, err := r.readDict(mc, lay, kind, nil); !errors.As(err, &ce) || ce.Off != fr.off || ce.Len != fr.len {
		t.Fatalf("full decode after a flip in frame %d at [%d,%d): %v", bad, fr.off, fr.off+fr.len, err)
	}
}

// TestValuesAdmitsOrWalks: PinSet.Values admits a cold numeric dictionary
// when the budget holds it beside everything resident — without a budget,
// or in an empty manager — and otherwise walks its record, evicting
// nothing: the same values either way, one verified cold dictionary load
// either way, and only an admitted dictionary resident afterwards. A
// string dictionary is paged by frame: its frame (user's one) is pinned
// like any load, evicting to make room in a full manager, and resident
// afterwards under every budget.
func TestValuesAdmitsOrWalks(t *testing.T) {
	built, dir := buildSavedStore(t, 3000, "zippy")
	for _, name := range []string{"timestamp", "latency", "user"} {
		col := built.Column(name)
		gids := []uint32{uint32(col.Dict.Len() - 1), 0, uint32(col.Dict.Len() / 2), 0}
		size := col.Dict.MemoryBytes()
		// A budget of exactly what the other columns hold is full, with no
		// room for the dictionary, once they are all resident.
		fill := othersResident(t, dir, built.Columns(), name)
		for _, c := range []struct {
			budget int64
			full   bool // fill the manager first, so the dictionary does not fit
		}{{0, false}, {2*size + 8192, false}, {fill, true}} {
			mgr := memmgr.New(c.budget, "")
			lazy, _, err := OpenLazy(dir, mgr)
			if err != nil {
				t.Fatal(err)
			}
			pinLayout(t, lazy, name)
			for _, other := range built.Columns() {
				if !c.full || mgr.Stats().ResidentBytes > c.budget-size {
					break
				}
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
			if c.full && before.ResidentBytes <= c.budget-size {
				t.Fatalf("%s %+v: %d bytes resident, not enough to keep the dictionary out", name, c, before.ResidentBytes)
			}
			ps := lazy.NewPinSet()
			vals, err := ps.Values(name, gids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range gids {
				if vals[i] != col.Dict.Value(id) {
					t.Fatalf("%s %+v: id %d is %v, want %v", name, c, id, vals[i], col.Dict.Value(id))
				}
			}
			if ps.ColdDictLoads != 1 || ps.ChecksumVerified != 1 || ps.DiskBytesRead == 0 {
				t.Errorf("%s %+v: %d cold dictionaries, %d verified, %d disk bytes; want 1, 1, > 0",
					name, c, ps.ColdDictLoads, ps.ChecksumVerified, ps.DiskBytesRead)
			}
			paged := col.Kind == value.KindString
			if c.full && !paged && mgr.Stats().Evictions != before.Evictions {
				t.Errorf("%s %+v: looking values up evicted %d entries", name, c, mgr.Stats().Evictions-before.Evictions)
			}
			ps.Release()
			ps = lazy.NewPinSet()
			if paged {
				_, err = ps.Values(name, gids)
			} else {
				_, err = ps.ColumnDict(name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if resident := ps.ColdDictLoads == 0; resident != (paged || !c.full) {
				t.Errorf("%s %+v: dictionary resident afterwards = %v", name, c, resident)
			}
			ps.Release()
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
	if ps.ColdDictLoads != 1 || ps.ColdBytesLoaded != 0 || ps.ChecksumVerified != 1 {
		t.Errorf("%d cold dictionary loads of %d resident bytes, %d verified; want 1, 0, 1",
			ps.ColdDictLoads, ps.ColdBytesLoaded, ps.ChecksumVerified)
	}
}

// TestValuesChargesDecodedDict: dictSizeOf models a string array, and a
// trie is charged more than it estimates. So on a trie store
// PinSet.Values checks the budget against the decoded dictionary's charge:
// with room for the estimate but not the charge it walks, and with room
// for the charge it admits. Neither evicts. The store is compressed.
func TestValuesChargesDecodedDict(t *testing.T) {
	built, dir := buildSavedStoreDict(t, 3000, "zippy", StringDictTrie)
	const name = "user"
	col := built.Column(name)
	gids := []uint32{uint32(col.Dict.Len() - 1), 0, uint32(col.Dict.Len() / 2)}
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	mc, lay, kind := columnOf(t, r, name)
	d, _, err := r.readDict(mc, lay, kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, held := dictSizeOf(kind, lay), d.MemoryBytes()
	if est >= held {
		t.Fatalf("estimate %d not below the charge %d: the case is not tested", est, held)
	}
	fill := othersResident(t, dir, built.Columns(), name)
	for _, room := range []int64{est, held} {
		mgr := memmgr.New(fill+room, "")
		lazy, _, err := OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("room %d: id %d is %v, want %v", room, id, vals[i], col.Dict.Value(id))
			}
		}
		ps.Release()
		after := mgr.Stats()
		if after.Evictions != before.Evictions {
			t.Errorf("room %d of charge %d: Values evicted %d entries", room, held, after.Evictions-before.Evictions)
		}
		if admitted := after.ResidentBytes > before.ResidentBytes; admitted != (room == held) {
			t.Errorf("room %d of charge %d: dictionary admitted = %v", room, held, admitted)
		}
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
