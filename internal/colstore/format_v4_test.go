package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
)

// buildShardedStore makes a multi-chunk store with an unsorted
// high-cardinality string column (the shape chunk Blooms and dictionary
// sub-framing exist for) and saves it with the codec named ("" for none).
func buildShardedStore(t *testing.T, rows int, codec string) (*Store, string) {
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
		StringDict:      StringDictSharded,
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

// TestV4ChunkBloomsNeverFalseNegative pins the persisted filters' soundness
// contract: after a save/load round trip, every global-id actually present
// in a chunk must test positive in that chunk's Bloom filter — a false
// negative would make the residency analysis silently drop matching rows.
func TestV4ChunkBloomsNeverFalseNegative(t *testing.T) {
	built, dir := buildShardedStore(t, 4000, "")
	lazy, _, err := OpenLazy(dir, memmgr.New(0, "2q"))
	if err != nil {
		t.Fatal(err)
	}
	filters, ok := lazy.ChunkBlooms("tag")
	if !ok || filters == nil {
		t.Fatal("lazy store exposes no chunk Blooms for the sparse column")
	}
	col := built.Column("tag")
	checked := 0
	for ci, ch := range col.Chunks {
		if ci >= len(filters) || filters[ci] == nil {
			continue // dense chunk: span test is exact, no filter persisted
		}
		for _, gid := range ch.GlobalIDs {
			if !filters[ci].TestUint64(uint64(gid)) {
				t.Fatalf("chunk %d: false negative for present gid %d", ci, gid)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no sparse chunk carried a Bloom filter; the dataset should produce some")
	}
}

// TestV4DictSubFramingRoundTrip pins the sub-framed dictionary read path,
// with a codec and without: a lazily opened store rebuilds the sharded
// dictionary from the manifest's routing with zero shards resident, every
// id resolves to the same value as the dictionary it was saved from, and a
// point lookup pages in one shard — its frame, and no other bytes.
func TestV4DictSubFramingRoundTrip(t *testing.T) {
	for _, codec := range []string{"", "zippy"} {
		t.Run("codec="+codec, func(t *testing.T) { subFramingRoundTrip(t, codec) })
	}
}

func subFramingRoundTrip(t *testing.T, codec string) {
	// 40k rows give ~25k distinct values — several 8192-value shards.
	built, dir := buildShardedStore(t, 40000, codec)
	want := built.Column("tag").Dict

	lazy, _, err := OpenLazy(dir, memmgr.New(0, "2q"))
	if err != nil {
		t.Fatal(err)
	}
	ps := lazy.NewPinSet()
	defer ps.Release()
	view, err := ps.ColumnDict("tag")
	if err != nil {
		t.Fatal(err)
	}
	sd, ok := view.Dict.(*dict.Sharded)
	if !ok {
		t.Fatalf("lazy dictionary is %T, want *dict.Sharded (sub-framed load)", view.Dict)
	}
	if sd.Shards() < 2 {
		t.Fatalf("only %d shard(s); sub-framing needs several to mean anything", sd.Shards())
	}
	if got := sd.ResidentShards(); got != 0 {
		t.Fatalf("%d shards resident before any probe, want 0", got)
	}

	// Point probe: exactly one shard pages in.
	io0, _ := lazy.IOStats()
	probe := want.Value(uint32(want.Len() / 2)).Str()
	id, ok := sd.LookupString(probe)
	if !ok {
		t.Fatalf("lookup of present value %q failed", probe)
	}
	if id != uint32(want.Len()/2) {
		t.Fatalf("LookupString(%q) = %d, want %d", probe, id, want.Len()/2)
	}
	if got := sd.Loads(); got != 1 {
		t.Fatalf("point lookup loaded %d shards, want 1", got)
	}
	mc, _, err := lazy.lazy.reader.dictMeta("tag")
	if err != nil {
		t.Fatal(err)
	}
	shard := want.Len() / 2 / mc.DictShards[0].Count
	if io, _ := lazy.IOStats(); io.BytesRead-io0.BytesRead != mc.Frames[shard].Len || io.ChecksumVerified-io0.ChecksumVerified != 1 {
		t.Fatalf("point lookup read %d bytes and verified %d records, want frame %d's %d bytes and 1",
			io.BytesRead-io0.BytesRead, io.ChecksumVerified-io0.ChecksumVerified, shard, mc.Frames[shard].Len)
	}

	// Full sweep: every id resolves identically to the saved dictionary.
	if sd.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", sd.Len(), want.Len())
	}
	for id := 0; id < want.Len(); id++ {
		if got, exp := sd.StringAt(uint32(id)), want.Value(uint32(id)).Str(); got != exp {
			t.Fatalf("StringAt(%d) = %q, want %q", id, got, exp)
		}
	}
}
