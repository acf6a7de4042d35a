package colstore

import (
	"math/rand"
	"slices"
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
// the same strings does: for every value, for probes before the first
// frame's, between frames' and past the last frame's values, and for a
// probe of another kind. Under a budget of one byte and under one that
// holds everything the dictionary is paged by frame; under none it is one
// whole entry. Once released, nothing stays pinned, and under the one-byte
// budget nothing stays resident.
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
		want := dict.NewStringArray(vals)
		built, err := FromTable(table.New("d").AddStringColumn("s", vals), Options{MaxChunkRows: 1 + rng.Intn(500)})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := Save(built, dir, []string{"", "zippy"}[rng.Intn(2)]); err != nil {
			t.Fatal(err)
		}
		probes := []value.Value{value.Int64(1)}
		for _, v := range vals {
			probes = append(probes, value.String(v), value.String(v+"\x00"))
			if len(v) > 0 {
				probes = append(probes, value.String(v[:len(v)-1]), value.String(v[:len(v)-1]+"\xff"))
			}
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
			got, ok := view.Dict.(dict.StringDict)
			if _, paged := got.(*pagedDict); !ok || paged != (budget > 0) {
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
					t.Fatalf("budget %d: Lookup(%q) = %d, %v; want %d, %v", budget, v, gid, gok, wid, wok)
				}
				if g, w := got.FindGE(v), want.FindGE(v); g != w {
					t.Fatalf("budget %d: FindGE(%q) = %d, want %d", budget, v, g, w)
				}
			}
			for id := uint32(0); int(id) < want.Len(); id++ {
				if got.StringAt(id) != want.StringAt(id) || got.Value(id) != want.Value(id) || got.Hash(id) != want.Hash(id) {
					t.Fatalf("budget %d: id %d is %q (hash %x), want %q (hash %x)", budget, id, got.StringAt(id), got.Hash(id), want.StringAt(id), want.Hash(id))
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
	})
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
