package exec

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/workload"
)

// slowestQueries is the UI's "slowest queries" table, unrestricted: a row
// scan whose WHERE and first ORDER BY key are latency, and whose other
// columns are read for its ten rows alone.
const slowestQueries = `SELECT timestamp, table_name, latency, country, user FROM data WHERE latency > 20000 ORDER BY latency DESC, timestamp ASC, table_name ASC LIMIT 10;`

// TestRowScanFetchesWinnersOnly: the slowest-queries scan on a lazily
// opened query-log store loads the columns it only projects at no more
// chunks than hold one of its ten rows, skips the chunks the rank bound
// rules out without loading them — the same ones at every parallelism —
// and of timestamp's dictionary, larger than the budget, pins only the
// frames that hold its answer's values, under the budget and without one.
// It verifies each frame it reads like any cold load: with a byte flipped
// in every frame of the dictionary, the query fails with a ChecksumError.
func TestRowScanFetchesWinnersOnly(t *testing.T) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 40000, Seed: 2012})
	built, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 400, OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := colstore.Save(built, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(slowestQueries)
	if err != nil {
		t.Fatal(err)
	}
	tsDict := built.Column("timestamp").Dict.MemoryBytes()
	budget := tsDict / 2
	open := func(budget int64) *colstore.Store {
		s, _, err := colstore.OpenLazy(dir, memmgr.New(budget, ""))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// The chunks holding a row of the answer, from the resident store.
	want, err := New(built, Options{Parallelism: 1}).Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	winners := winnerChunks(t, built, stmt)
	if len(want.Rows) != 10 || len(winners) == 0 {
		t.Fatalf("%d rows in %d chunks, want 10 rows", len(want.Rows), len(winners))
	}
	// The frames of timestamp's dictionary, and those that hold the answer.
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	file, frames, _, err := r.ColumnRecords("timestamp")
	if err != nil || len(frames) < 2 {
		t.Fatalf("timestamp's dictionary is not in frames (%v)", err)
	}
	answer := map[int]bool{}
	for _, row := range want.Rows {
		id, _ := built.Column("timestamp").Dict.Lookup(row[0])
		for i, base := 0, 0; i < len(frames); i++ {
			if base += frames[i].Values; int(id) < base {
				answer[i] = true
				break
			}
		}
	}
	others := int64(len(frames) - len(answer))
	// coldFrames pins every frame of timestamp's dictionary and counts the
	// ones that were not resident.
	coldFrames := func(s *colstore.Store) int64 {
		ps := s.NewPinSet()
		defer ps.Release()
		ids := make([]uint32, built.Column("timestamp").Dict.Len())
		for i := range ids {
			ids[i] = uint32(i)
		}
		if _, err := ps.Values("timestamp", ids); err != nil {
			t.Fatal(err)
		}
		return ps.ColdDictLoads
	}

	var stats []QueryStats
	for _, par := range []int{1, 4} {
		s := open(budget)
		res, err := New(s, Options{Parallelism: par}).Run(stmt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, slowestQueries, want, res)
		stats = append(stats, res.Stats)
		if cold := coldFrames(s); cold < others {
			t.Errorf("p%d: %d of timestamp's %d frames (%d bytes) resident after the query under a %d-byte budget; its answer is in %d",
				par, int64(len(frames))-cold, len(frames), tsDict, budget, len(answer))
		}
	}
	st := stats[0]
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("counters differ across parallelism:\n%+v\n%+v", stats[0], stats[1])
	}
	if st.ChunksSkipped <= st.SkippedChunks || st.ChunksScanned >= st.ActiveChunks {
		t.Errorf("no rank-bound skip: %d of %d active chunks scanned, %d skipped, %d pruned before loading",
			st.ChunksScanned, st.ActiveChunks, st.ChunksSkipped, st.SkippedChunks)
	}
	t.Logf("%d chunks: %d active, %d scanned; %d cold loads; answer in %d chunks",
		st.ChunksTotal, st.ActiveChunks, st.ChunksScanned, st.ColdChunkLoads+st.ColdDictLoads, len(winners))

	// Without a budget nothing is evicted, so what a later pin set finds
	// cold is what the query never loaded.
	s := open(0)
	if _, err := New(s, Options{Parallelism: 2}).Run(stmt); err != nil {
		t.Fatal(err)
	}
	if cold := coldFrames(s); cold != others {
		t.Errorf("%d of timestamp's %d frames resident after the query without a budget; want the %d that hold its answer",
			int64(len(frames))-cold, len(frames), len(answer))
	}
	ps := s.NewPinSet()
	defer ps.Release()
	for _, name := range []string{"timestamp", "table_name", "country", "user"} {
		before := ps.ColdChunkLoads
		if _, err := ps.ColumnChunks(name, nil); err != nil {
			t.Fatal(err)
		}
		if loaded := int64(s.NumChunks()) - (ps.ColdChunkLoads - before); loaded > int64(len(winners)) {
			t.Errorf("%s loaded at %d chunks, the answer is in %d", name, loaded, len(winners))
		}
	}

	// A flipped byte in every frame of timestamp's dictionary.
	path := filepath.Join(dir, file)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		blob[fr.Off+fr.Len/2] ^= 0x10
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s = open(budget)
	_, err = New(s, Options{Parallelism: 1}).Run(stmt)
	var ce *colstore.ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("query over a corrupt dictionary: err = %v, want a ChecksumError", err)
	}
	if io, _ := s.IOStats(); io.ChecksumFailed != 1 {
		t.Errorf("ChecksumFailed = %d, want 1", io.ChecksumFailed)
	}
}

// winnerChunks lists the chunks that hold a row of a row scan's answer,
// ranking every matching row of the resident store by its values and
// position.
func winnerChunks(t *testing.T, s *colstore.Store, stmt *sql.SelectStmt) []int {
	t.Helper()
	type pos struct{ ci, r int }
	var rows []pos
	lat := s.Column("latency")
	for ci := 0; ci < s.NumChunks(); ci++ {
		for r := 0; r < s.ChunkRows(ci); r++ {
			if lat.ValueAt(ci, r).Int() > 20000 {
				rows = append(rows, pos{ci, r})
			}
		}
	}
	ts, tn := s.Column("timestamp"), s.Column("table_name")
	sort.SliceStable(rows, func(a, b int) bool {
		x, y := rows[a], rows[b]
		if c := lat.ValueAt(x.ci, x.r).Compare(lat.ValueAt(y.ci, y.r)); c != 0 {
			return c > 0
		}
		if c := ts.ValueAt(x.ci, x.r).Compare(ts.ValueAt(y.ci, y.r)); c != 0 {
			return c < 0
		}
		return tn.ValueAt(x.ci, x.r).Compare(tn.ValueAt(y.ci, y.r)) < 0
	})
	var chunks []int
	for _, p := range rows[:min(stmt.Limit, len(rows))] {
		if !slices.Contains(chunks, p.ci) {
			chunks = append(chunks, p.ci)
		}
	}
	return chunks
}
