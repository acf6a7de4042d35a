package colstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// TestDictWalkMatchesDecode: a walk for some global-ids refuses exactly
// the records a full decode refuses, and returns the values the decoded
// dictionary holds at those ids — over valid records of every kind, over
// the same records with bytes overwritten, and over records only the order
// check refuses.
func TestDictWalkMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	kinds := []value.Kind{value.KindString, value.KindInt64, value.KindFloat64}
	records := map[value.Kind][][]byte{}
	for _, kind := range kinds {
		for _, n := range []int{0, 1, 2, 7, 300} {
			var d dict.Dict
			switch kind {
			case value.KindString:
				vals := make([]string, n)
				for i := range vals {
					vals[i] = string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
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
			records[kind] = append(records[kind], appendDict(nil, d, kind))
		}
	}
	// Records only the order check refuses: a repeat, a wrap, −0 beside
	// +0, and a NaN first or last.
	keys := func(ks ...uint64) []byte {
		return appendKeyDeltas(appendUvarint(nil, uint64(len(ks))), ks)
	}
	deltas := func(first uint64, ds ...byte) []byte {
		rec := binary.LittleEndian.AppendUint64(appendUvarint(nil, uint64(1+len(ds))), first)
		return append(append(rec, 1), ds...)
	}
	records[value.KindInt64] = append(records[value.KindInt64], deltas(5, 1, 0, 2), deltas(math.MaxUint64-1, 1, 1))
	records[value.KindFloat64] = append(records[value.KindFloat64],
		keys(numericKey(value.Float64(-1)), numericKey(value.Float64(math.Copysign(0, -1))), numericKey(value.Float64(0))),
		keys(minFloatKey-1, numericKey(value.Float64(1))),
		keys(numericKey(value.Float64(1)), maxFloatKey+1))
	for _, kind := range kinds {
		for _, rec := range records[kind] {
			for trial := 0; trial < 40; trial++ {
				raw := slices.Clone(rec)
				if trial > 0 && len(raw) > 0 {
					raw[rng.Intn(len(raw))] = byte(rng.Intn(256))
				}
				d, derr := decodeDict(&byteReader{buf: raw}, kind, StringDictArray)
				var want []uint32
				if derr == nil && d.Len() > 0 {
					want = []uint32{0, uint32(rng.Intn(d.Len())), uint32(d.Len() - 1)}
					slices.Sort(want)
					want = slices.Compact(want)
				}
				strs, ints, floats, werr := walkDict(&byteReader{buf: raw}, kind, want)
				if (derr != nil) != (werr != nil) {
					t.Fatalf("%v %x: decode error %v, walk error %v", kind, raw, derr, werr)
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
}

// TestValuesAdmitsOrWalks: PinSet.Values admits a cold dictionary when the
// budget holds it beside everything resident — without a budget, or in an
// empty manager — and otherwise walks its record, evicting nothing: the
// same values either way, one verified cold dictionary load either way,
// and only an admitted dictionary resident afterwards.
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
			if c.full && mgr.Stats().Evictions != before.Evictions {
				t.Errorf("%s %+v: looking values up evicted %d entries", name, c, mgr.Stats().Evictions-before.Evictions)
			}
			ps.Release()
			ps = lazy.NewPinSet()
			if _, err := ps.ColumnDict(name); err != nil {
				t.Fatal(err)
			}
			if resident := ps.ColdDictLoads == 0; resident == c.full {
				t.Errorf("%s %+v: dictionary resident afterwards = %v", name, c, resident)
			}
			ps.Release()
		}
	}
}

// TestValuesChargesDecodedDict: dictSizeOf models a string array, and a
// trie or a sharded dictionary is charged more than it estimates. So on
// those stores PinSet.Values checks the budget against the decoded
// dictionary's charge: with room for the estimate but not the charge it
// walks, and with room for the charge it admits. Neither evicts.
func TestValuesChargesDecodedDict(t *testing.T) {
	for _, sd := range []StringDictKind{StringDictTrie, StringDictSharded} {
		// Compressed, so that a sharded dictionary loads from its record.
		built, dir := buildSavedStoreDict(t, 3000, "zippy", sd)
		const name = "user"
		col := built.Column(name)
		gids := []uint32{uint32(col.Dict.Len() - 1), 0, uint32(col.Dict.Len() / 2)}
		r, _, err := NewReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		mc, kind, err := r.dictMeta(name)
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := r.dictRecord(mc, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.decodeDictRecord(mc, kind, raw)
		if err != nil {
			t.Fatal(err)
		}
		est, held := dictSizeOf(kind, raw), d.MemoryBytes()
		if est >= held {
			t.Fatalf("%s: estimate %d not below the charge %d: the case is not tested", sd, est, held)
		}
		fill := othersResident(t, dir, built.Columns(), name)
		for _, room := range []int64{est, held} {
			mgr := memmgr.New(fill+room, "")
			lazy, _, err := OpenLazy(dir, mgr)
			if err != nil {
				t.Fatal(err)
			}
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
					t.Fatalf("%s, room %d: id %d is %v, want %v", sd, room, id, vals[i], col.Dict.Value(id))
				}
			}
			ps.Release()
			after := mgr.Stats()
			if after.Evictions != before.Evictions {
				t.Errorf("%s, room %d of charge %d: Values evicted %d entries", sd, room, held, after.Evictions-before.Evictions)
			}
			if admitted := after.ResidentBytes > before.ResidentBytes; admitted != (room == held) {
				t.Errorf("%s, room %d of charge %d: dictionary admitted = %v", sd, room, held, admitted)
			}
		}
	}
}

// othersResident returns the bytes a manager without a budget holds once
// every column of the store at dir but skip has been pinned and released.
func othersResident(t *testing.T, dir string, columns []string, skip string) int64 {
	mgr := memmgr.New(0, "")
	lazy, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
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
