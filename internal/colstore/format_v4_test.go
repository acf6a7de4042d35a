package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
)

// buildSparseStore makes a multi-chunk store with an unsorted
// high-cardinality string column (the shape dictionary frames exist for)
// and saves it with the codec named ("" for none).
func buildSparseStore(t testing.TB, rows int, codec string) (*Store, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	tag := make([]string, rows)
	p := make([]string, rows)
	for i := range tag {
		tag[i] = fmt.Sprintf("t%05d", rng.Intn(rows))
		p[i] = fmt.Sprintf("p%02d", i/(rows/8+1))
	}
	tbl := table.New("data").AddStringColumn("tag", tag).AddStringColumn("p", p)
	built, err := FromTable(tbl, Options{
		PartitionFields: []string{"p"},
		MaxChunkRows:    rows / 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(built, dir, codec); err != nil {
		t.Fatal(err)
	}
	return built, dir
}

// TestV4DictSubFramingRoundTrip pins the framed read of a string
// dictionary, with a codec and without: on a lazily opened store under a
// budget, a point lookup reads and verifies exactly the frame that holds
// its id, which leaves nothing resident once released, and a full load resolves every id to the value of the
// dictionary it was saved from.
func TestV4DictSubFramingRoundTrip(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		t.Run("codec="+codec, func(t *testing.T) { subFramingRoundTrip(t, codec) })
	}
}

func subFramingRoundTrip(t *testing.T, codec string) {
	// 40k rows give ~25k distinct values: dozens of frames.
	built, dir := buildSparseStore(t, 40000, codec)
	want := built.Column("tag").Dict

	mgr := memmgr.New(1, "")
	tight, _, err := OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer tight.Close()
	_, lay, err := tight.lazy.reader.layoutOf("tag")
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := entries(lay)
	if len(frames) < 2 {
		t.Fatalf("only %d frame(s); framing needs several to mean anything", len(frames))
	}
	id := uint32(want.Len() / 2)
	frame := 0
	for base := frames[0].count; int(id) >= base; base += frames[frame].count {
		frame++
	}
	ps := tight.NewPinSet()
	vals, err := ps.Values("tag", []uint32{id})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != want.Value(id) {
		t.Fatalf("id %d is %v, want %v", id, vals[0], want.Value(id))
	}
	if ps.DiskBytesRead != frames[frame].len || ps.ChecksumVerified != 1 || ps.ColdDictLoads != 1 {
		t.Fatalf("point lookup read %d bytes, verified %d records and loaded %d entries; want frame %d's %d bytes, 1 and 1",
			ps.DiskBytesRead, ps.ChecksumVerified, ps.ColdDictLoads, frame, frames[frame].len)
	}
	// The frame is admitted pinned, past the budget, and dropped when the
	// pin goes.
	ps.Release()
	if st := mgr.Stats(); st.ResidentBytes != 0 || st.PinnedBytes != 0 {
		t.Fatalf("after Release %d bytes stay resident, %d pinned, under a budget of one byte", st.ResidentBytes, st.PinnedBytes)
	}

	lazy, _, err := OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	ps = lazy.NewPinSet()
	defer ps.Release()
	view, err := ps.ColumnDict("tag")
	if err != nil {
		t.Fatal(err)
	}
	got := view.Dict.(dict.StringDict)
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for id := 0; id < want.Len(); id++ {
		if g, w := got.StringAt(uint32(id)), want.Value(uint32(id)).Str(); g != w {
			t.Fatalf("StringAt(%d) = %q, want %q", id, g, w)
		}
	}
}
