package colstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// FuzzPagedStringDictVsArray: a sorted set of distinct strings — the
// input's pieces and a larger set drawn from its checksum, which cuts
// several frames — saved as a column and opened lazily answers Len,
// Lookup, FindGE, Value, StringAt and Hash exactly as a string array of
// the same strings does (checkPagedDict): for every value, for probes
// before the first frame's, between frames' and past the last frame's
// values, and for a probe of another kind.
func FuzzPagedStringDictVsArray(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("de\x00fr\x00us"))
	f.Add([]byte("a\x00ab\x00b\x00zz\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(int64(CRC32C(data))))
		vals := stringSetOf(data)
		if rng.Intn(4) > 0 {
			vals = append(vals, randomStringSet(rng)...)
			slices.Sort(vals)
			vals = slices.Compact(vals)
		}
		probes := []value.Value{value.Int64(1)}
		for _, v := range vals {
			probes = append(probes, value.String(v), value.String(v+"\x00"))
			if len(v) > 0 {
				probes = append(probes, value.String(v[:len(v)-1]), value.String(v[:len(v)-1]+"\xff"))
			}
		}
		checkPagedDict(t, rng, table.New("d").AddStringColumn("s", vals), dict.NewStringArray(vals), probes)
	})
}

// FuzzPagedNumericDictVsArray is FuzzPagedStringDictVsArray's twin for
// int64 and float64 dictionaries: the distinct numbers the input's 8-byte
// words spell, or a larger set drawn from its checksum whose frames need
// different delta widths, answer as the sorted array of the same numbers
// does, bit for bit, for every value and for probes at, next to and
// between them, at the extremes of the kind, and of the other kinds.
func FuzzPagedNumericDictVsArray(f *testing.F) {
	for _, float := range []bool{false, true} {
		f.Add([]byte{}, float)
		f.Add(binary.LittleEndian.AppendUint64(nil, 7), float)
		f.Add(slices.Concat(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1)),
			binary.LittleEndian.AppendUint64(nil, 1<<63), binary.LittleEndian.AppendUint64(nil, 1<<40)), float)
	}
	f.Fuzz(func(t *testing.T, data []byte, float bool) {
		rng := rand.New(rand.NewSource(int64(CRC32C(data))))
		want := numericDictOf(data, float)
		if rng.Intn(4) > 0 {
			want = randomNumbers(rng, float)
		}
		probes := []value.Value{value.String("1")}
		tbl := table.New("d")
		if float {
			vals := want.(*dict.Float64s).Values()
			tbl.AddFloat64Column("s", vals)
			probes = append(probes, value.Int64(1), value.Float64(math.Inf(-1)), value.Float64(math.Inf(1)), value.Float64(math.Copysign(0, -1)), value.Float64(0), value.Float64(math.NaN()), value.Float64(math.Copysign(math.NaN(), -1)))
			for _, v := range vals {
				probes = append(probes, value.Float64(v), value.Float64(math.Nextafter(v, math.Inf(-1))), value.Float64(math.Nextafter(v, math.Inf(1))))
			}
		} else {
			vals := want.(*dict.Int64s).Values()
			tbl.AddInt64Column("s", vals)
			probes = append(probes, value.Float64(1), value.Int64(math.MinInt64), value.Int64(math.MaxInt64))
			for _, v := range vals {
				probes = append(probes, value.Int64(v), value.Int64(v-1), value.Int64(v+1))
			}
		}
		checkPagedDict(t, rng, tbl, want, probes)
	})
}

// checkPagedDict saves tbl, a one-column table whose column "s" has the
// dictionary want, and opens it lazily under a budget of one byte, one
// that holds everything, and none: the dictionary is paged by frame under
// each, and answers Len, Lookup and FindGE for every probe, and Value,
// Hash and, for strings, StringAt for every id, exactly as want does. Once
// released, nothing stays pinned, and under the one-byte budget nothing
// stays resident.
func checkPagedDict(t *testing.T, rng *rand.Rand, tbl *table.Table, want dict.Dict, probes []value.Value) {
	built, err := FromTable(tbl, Options{MaxChunkRows: 1 + rng.Intn(500)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(built, dir, []string{"", "zippy"}[rng.Intn(2)]); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 1 << 40, 0} {
		mgr := memmgr.New(budget, "")
		lazy, _, err := OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		ps := lazy.NewPinSet()
		view, err := ps.ColumnDict("s")
		if err != nil {
			t.Fatal(err)
		}
		got, ok := view.Dict.(*pagedDict)
		if !ok {
			t.Fatalf("budget %d: dictionary is a %T", budget, view.Dict)
		}
		if got.Len() != want.Len() {
			t.Fatalf("budget %d: Len %d, want %d", budget, got.Len(), want.Len())
		}
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		for _, v := range probes {
			gid, gok := got.Lookup(v)
			wid, wok := want.Lookup(v)
			if gok != wok || gok && gid != wid {
				t.Fatalf("budget %d: Lookup(%v) = %d, %v; want %d, %v", budget, v, gid, gok, wid, wok)
			}
			if g, w := got.FindGE(v), want.FindGE(v); g != w {
				t.Fatalf("budget %d: FindGE(%v) = %d, want %d", budget, v, g, w)
			}
		}
		sd, strs := want.(dict.StringDict)
		for id := uint32(0); int(id) < want.Len(); id++ {
			g, w := got.Value(id), want.Value(id)
			if g != w || orderKey(g) != orderKey(w) || got.Hash(id) != want.Hash(id) || strs && got.StringAt(id) != sd.StringAt(id) {
				t.Fatalf("budget %d: id %d is %v (hash %x), want %v (hash %x)", budget, id, g, got.Hash(id), w, want.Hash(id))
			}
		}
		if err := ps.Err(); err != nil {
			t.Fatal(err)
		}
		ps.Release()
		if st := mgr.Stats(); st.PinnedBytes != 0 || budget == 1 && st.ResidentBytes != 0 {
			t.Fatalf("budget %d: %d bytes pinned, %d resident after Release", budget, st.PinnedBytes, st.ResidentBytes)
		}
		lazy.Close()
	}
}

// randomStringSet is randomStrings' values: a few hundred to 1 500,
// mostly short, some a few hundred bytes, a few longer than a frame.
func randomStringSet(rng *rand.Rand) []string {
	sd := randomStrings(rng).(*dict.StringArray)
	out := make([]string, sd.Len())
	for i := range out {
		out[i] = sd.StringAt(uint32(i))
	}
	return out
}

// TestNumericFrameFirstValuesChecked: a numeric frame read alone is checked
// against the layout's first values as a string frame is. With a layout
// record re-checksummed to give frame 1 a first key one below its own, a
// lookup of frame 1's first value fails with the set's error; with frame
// 0's last key as frame 1's first, a lookup in frame 0 does, for its values
// reach the next frame's; and a first value that is not 8 bytes fails the
// column's first touch. Either way nothing stays pinned.
func TestNumericFrameFirstValuesChecked(t *testing.T) {
	for _, c := range []struct {
		name  string
		first func(lay *columnLayout, d dict.Dict) []byte
		id    func(lay *columnLayout) uint32 // the value looked up
	}{
		{"a key one below", func(lay *columnLayout, _ dict.Dict) []byte {
			return binary.BigEndian.AppendUint64(nil, binary.BigEndian.Uint64(lay.frame(1).first)-1)
		}, func(lay *columnLayout) uint32 { return lay.base[1] }},
		{"frame 0's last", func(lay *columnLayout, d dict.Dict) []byte {
			return []byte(orderKey(d.Value(lay.base[1] - 1)))
		}, func(lay *columnLayout) uint32 { return lay.base[1] - 2 }},
		{"7 bytes", func(lay *columnLayout, _ dict.Dict) []byte { return lay.frame(1).first[:7] }, nil},
	} {
		built, dir := buildSavedStore(t, 3000, "zippy")
		const name = "timestamp"
		lay := savedLayout(t, dir, name)
		frames, chunks := entries(lay)
		if len(frames) < 2 {
			t.Fatalf("%s has %d frames, want several", name, len(frames))
		}
		d := built.Column(name).Dict
		frames[1].first = c.first(lay, d)
		m, _, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, mc := range m.Columns {
			if mc.Name != name {
				continue
			}
			path := filepath.Join(dir, mc.File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := appendLayout(nil, frames, lay.spans, chunks)
			m.Columns[i].Index = recordRef{Off: int64(len(data)), Len: int64(len(rec)), CRC: CRC32C(rec)}
			if err := os.WriteFile(path, append(data, rec...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		mgr := memmgr.New(0, "")
		lazy, _, err := OpenLazy(dir, mgr)
		if err != nil {
			t.Fatal(err)
		}
		ps := lazy.NewPinSet()
		view, failed := ps.ColumnDict(name)
		if c.id != nil && failed == nil {
			id := c.id(lay)
			if _, ok := view.Dict.Lookup(d.Value(id)); ok || ps.Err() == nil {
				t.Errorf("%s: lookup of id %d found = %v, set error %v; want a failure", c.name, id, ok, ps.Err())
			}
			failed = ps.Err()
		}
		if failed == nil || !strings.Contains(failed.Error(), "frame") {
			t.Errorf("%s: error %v, want a frame refused", c.name, failed)
		}
		ps.Release()
		if st := mgr.Stats(); st.PinnedBytes != 0 {
			t.Errorf("%s: %d bytes pinned after Release", c.name, st.PinnedBytes)
		}
		lazy.Close()
	}
}

// TestFailedFrameReadsAsZero: with a byte flipped in frame 1 of
// timestamp's dictionary, a bulk read of ids in frames 0 to 2 on the set's
// goroutine (dict.Numbers, as a partial's MIN and MAX are rendered) gives
// frame 0's values and zero for the rest — after a failed load the set
// loads nothing more, for the query fails — without a panic, and keeps the
// frame's *ChecksumError for Err; nothing stays pinned after Release.
func TestFailedFrameReadsAsZero(t *testing.T) {
	built, dir := buildSavedStore(t, 3000, "zippy")
	const name = "timestamp"
	r, _, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	file, frames, _, err := r.ColumnRecords(name)
	r.Close()
	if err != nil || len(frames) < 3 {
		t.Fatalf("%s has %d frames (%v), want 3 or more", name, len(frames), err)
	}
	flipBit(t, filepath.Join(dir, file), frames[1].Off+frames[1].Len/2)
	base := uint32(frames[0].Values)
	ids := []uint32{0, base, base + 1, base + uint32(frames[1].Values)}
	mgr := memmgr.New(0, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	ps := lazy.NewPinSet()
	view, err := ps.ColumnDict(name)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, len(ids))
	dict.Numbers(view.Dict, ids, got)
	d := built.Column(name).Dict
	want := []int64{d.Value(ids[0]).Int(), 0, 0, 0}
	var ce *ChecksumError
	if !slices.Equal(got, want) || !errors.As(ps.Err(), &ce) {
		t.Fatalf("values %v, want %v; set error %v, want a ChecksumError", got, want, ps.Err())
	}
	ps.Release()
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("%d bytes pinned after Release", st.PinnedBytes)
	}
}

// TestPagedSignedZeroAtFrameStart: −0 and +0 are equal values with
// adjacent keys, so a float dictionary whose frame starts at +0 must find
// +0 for a probe of −0 — not search the frame before, whose last key lies
// below −0's — as the sorted array does; and so must FindGE.
func TestPagedSignedZeroAtFrameStart(t *testing.T) {
	var negatives []float64
	for i := 3000; i > 0; i-- {
		negatives = append(negatives, -float64(i)*1.37)
	}
	for k := range negatives {
		vals := append(slices.Clone(negatives[k:]), 0, 1, 2)
		id, startsAtZero := 0, false
		dictFrames(dict.NewFloat64s(vals), value.KindFloat64, func(_ []byte, count int) {
			startsAtZero = startsAtZero || id > 0 && vals[id] == 0
			id += count
		})
		if !startsAtZero {
			continue
		}
		probes := []value.Value{value.Float64(math.Copysign(0, -1)), value.Float64(0)}
		checkPagedDict(t, rand.New(rand.NewSource(1)), table.New("d").AddFloat64Column("s", vals), dict.NewFloat64s(vals), probes)
		return
	}
	t.Fatal("no cut puts +0 at a frame's start")
}
