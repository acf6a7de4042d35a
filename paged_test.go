package powerdrill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
)

// pagedSetup is the query logs in the bench layout, saved with zippy, and
// table_name's dictionary frames as the saved layout gives them: each
// frame's byte range in the column file, and the global-id it starts at.
type pagedSetup struct {
	built    *Store
	dir      string
	resident int64
	file     string
	frames   []colstore.RecordRange
	base     []int // base[i]: frame i's first global-id; base[len] the count
	names    dict.Dict
}

func newPagedSetup(t *testing.T, rows int) pagedSetup {
	t.Helper()
	built, err := Build(GenerateQueryLogs(rows, 1), Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     2000,
		OptimizeElements: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := built.Memory(built.Columns()...)
	if err != nil {
		t.Fatal(err)
	}
	ps := pagedSetup{built: built, dir: t.TempDir(), resident: mem.Total(), names: built.internalStore().Column("table_name").Dict}
	if err := built.Save(ps.dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	r, _, err := colstore.NewReader(ps.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ps.file, ps.frames, _, err = r.ColumnRecords("table_name"); err != nil {
		t.Fatal(err)
	}
	ps.base = []int{0}
	for _, fr := range ps.frames {
		ps.base = append(ps.base, ps.base[len(ps.base)-1]+fr.Values)
	}
	if len(ps.frames) < 12 {
		t.Fatalf("table_name has %d frames; the test needs more than a LIMIT 10 can reach", len(ps.frames))
	}
	return ps
}

// name is table_name's value of global-id id.
func (ps pagedSetup) name(id int) string { return ps.names.Value(uint32(id)).Str() }

// frameOf is the frame that holds table_name's value v.
func (ps pagedSetup) frameOf(t *testing.T, v Value) int {
	id, ok := ps.names.Lookup(v)
	if !ok {
		t.Fatalf("table_name has no value %v", v)
	}
	for i := range ps.frames {
		if int(id) < ps.base[i+1] {
			return i
		}
	}
	return -1
}

// open opens the saved store under a quarter of its resident size.
func (ps pagedSetup) open(t *testing.T, opts Options) *Store {
	t.Helper()
	opts.MemoryBudgetBytes = ps.resident / 4
	s, _, err := Open(ps.dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestPagedDictFaultStaysInItsFrame: with one byte flipped inside one of
// table_name's dictionary frames, a query that reads only other frames
// answers as the built store does; a query whose literal, or whose LIMIT
// winner, lies in the flipped frame fails with a *ChecksumError naming the
// column file and caches nothing; no pin outlives either; and a scrub
// reports the file.
func TestPagedDictFaultStaysInItsFrame(t *testing.T) {
	ps := newPagedSetup(t, 50000)
	bad := len(ps.frames) / 2
	path := filepath.Join(ps.dir, ps.file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fr := ps.frames[bad]
	data[fr.Off+fr.Len/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := ps.open(t, Options{ResultCacheBytes: 8 << 20, Parallelism: 2})

	in := fmt.Sprintf(`SELECT country, COUNT(*) AS c FROM data WHERE table_name IN ("%s", "%s") GROUP BY country ORDER BY c DESC, country ASC;`,
		ps.name(ps.base[1]+1), ps.name(ps.base[len(ps.frames)]-1))
	want, err := ps.built.Query(in)
	if err != nil {
		t.Fatal(err)
	}
	failing := []string{
		// The literal lies in the flipped frame.
		fmt.Sprintf(`SELECT table_name, COUNT(*) AS c FROM data WHERE table_name = "%s" GROUP BY table_name ORDER BY c DESC, table_name ASC;`,
			ps.name(ps.base[bad]+1)),
		// The literal is the last value of the frame before; the one
		// winner is the first value of the flipped frame.
		fmt.Sprintf(`SELECT table_name, COUNT(*) AS c FROM data WHERE table_name > "%s" GROUP BY table_name ORDER BY table_name ASC LIMIT 1;`,
			ps.name(ps.base[bad]-1)),
	}
	for _, q := range append([]string{in}, append(failing, in)...) {
		res, err := s.Query(q)
		if q == in {
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s: %v, want %v", q, res.Rows, want.Rows)
			}
			continue
		}
		var ce *colstore.ChecksumError
		if !errors.As(err, &ce) || !strings.HasSuffix(ce.Path, ps.file) {
			t.Fatalf("%s: %v, want a checksum error in %s", q, err, ps.file)
		}
		if st, _ := s.MemStats(); st.PinnedBytes != 0 {
			t.Fatalf("%s: %d bytes stay pinned", q, st.PinnedBytes)
		}
	}
	// A group-by of the same signature finds no chunk in the result cache,
	// though the winner query's fully active chunks were aggregated; its
	// repeat finds what it cached itself.
	const all = `SELECT table_name, COUNT(*) AS c FROM data GROUP BY table_name ORDER BY table_name DESC LIMIT 1;`
	for i, wantCached := range []bool{false, true} {
		res, err := s.Query(all)
		if err != nil {
			t.Fatal(err)
		}
		if cached := res.Stats.ChunksCached > 0; cached != wantCached {
			t.Fatalf("run %d: %d chunks from the result cache, want cached = %v", i, res.Stats.ChunksCached, wantCached)
		}
	}
	rep, err := Scrub(ps.dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(rep.Files, func(f ScrubFile) bool { return f.Path == ps.file && f.Err != "" }) || rep.Corrupt != 1 {
		t.Fatalf("scrub: %d corrupt files, want %s alone: %+v", rep.Corrupt, ps.file, rep.Files)
	}
}

// TestPagedDictReadsOnlyItsFrames counts, on the query logs under a
// quarter budget, the table_name dictionary frames a query reads: its disk
// bytes, less its chunk records', are exactly the frames that hold its
// literals and the values it renders — at most 3 for an IN list of 3, at
// most 10 and the literal's for a LIMIT 10 — and PinSet.Values reads just
// its ids' frames. The counts are the same at Parallelism 1 and 2.
func TestPagedDictReadsOnlyItsFrames(t *testing.T) {
	ps := newPagedSetup(t, 50000)
	last := len(ps.frames) - 1
	top, err := ps.built.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC, country ASC LIMIT 1;`)
	if err != nil {
		t.Fatal(err)
	}
	country := top.Rows[0][0].Str()
	lits := []string{ps.name(ps.base[1]), ps.name(ps.base[last/2] + 1), ps.name(ps.base[last+1] - 1)}
	countryID, _ := ps.built.internalStore().Column("country").Dict.Lookup(String(country))
	litIDs := make([]uint32, len(lits))
	for i, lit := range lits {
		litIDs[i], _ = ps.names.Lookup(String(lit))
	}
	queries := []struct {
		q      string
		on     string   // the column the WHERE clause restricts
		ids    []uint32 // its literals' global-ids
		cols   []string // the columns whose chunks the query loads
		frames int      // table_name frames it may read
	}{
		{fmt.Sprintf(`SELECT COUNT(*) AS c FROM data WHERE table_name IN ("%s", "%s", "%s");`, lits[0], lits[1], lits[2]),
			"table_name", litIDs, []string{"table_name"}, 3},
		{fmt.Sprintf(`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "%s" GROUP BY table_name ORDER BY c DESC, table_name ASC LIMIT 10;`, country),
			"country", []uint32{countryID}, []string{"country", "table_name"}, 10},
	}
	r, _, err := colstore.NewReader(ps.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// country's dictionary is one frame, which the second query reads.
	_, countryFrames, _, err := r.ColumnRecords("country")
	if err != nil || len(countryFrames) != 1 {
		t.Fatalf("country: %d frames (%v), want 1", len(countryFrames), err)
	}
	countryFrame := countryFrames[0].Len
	var counted [2][]QueryStats
	for k, par := range []int{1, 2} {
		for _, c := range queries {
			s := ps.open(t, Options{Parallelism: par})
			res, err := s.Query(c.q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ps.built.Query(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s: %v, want %v", c.q, res.Rows, want.Rows)
			}
			// The frames: table_name's that hold the literals or the
			// rendered keys, and country's one.
			frames := map[int]bool{}
			var dictBytes, entries int64
			if c.on == "table_name" {
				for _, lit := range lits {
					frames[ps.frameOf(t, String(lit))] = true
				}
			} else {
				for _, row := range res.Rows {
					frames[ps.frameOf(t, row[0])] = true
				}
				dictBytes, entries = countryFrame, 1
			}
			for i := range frames {
				dictBytes += ps.frames[i].Len
			}
			entries += int64(len(frames))
			if len(frames) > c.frames || len(frames) == len(ps.frames) {
				t.Fatalf("%s: %d of %d frames; want at most %d", c.q, len(frames), len(ps.frames), c.frames)
			}
			chunkBytes := activeChunkBytes(t, ps.built, r, c.on, c.ids, c.cols, res.Stats.ActiveChunks)
			if got := res.Stats.DiskBytesRead - chunkBytes; got != dictBytes || res.Stats.ColdDictLoads != entries {
				t.Fatalf("%s: %d dictionary bytes read in %d entries, want %d in %d: its frames alone", c.q, got, res.Stats.ColdDictLoads, dictBytes, entries)
			}
			counted[k] = append(counted[k], res.Stats)
		}
	}
	for i := range queries {
		a, b := counted[0][i], counted[1][i]
		if a.DiskBytesRead != b.DiskBytesRead || a.ColdDictLoads != b.ColdDictLoads || a.ColdChunkLoads != b.ColdChunkLoads || a.ChecksumVerified != b.ChecksumVerified {
			t.Fatalf("%s: counted %+v at Parallelism 1, %+v at 2", queries[i].q, a, b)
		}
	}

	s := ps.open(t, Options{})
	pin := s.internalStore().NewPinSet()
	defer pin.Release()
	gids := []uint32{uint32(ps.base[last]), 0, uint32(ps.base[last/2] + 2), uint32(ps.base[last/2])}
	vals, err := pin.Values("table_name", gids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range gids {
		if vals[i] != ps.names.Value(id) {
			t.Fatalf("id %d is %v, want %v", id, vals[i], ps.names.Value(id))
		}
	}
	if want := ps.frames[0].Len + ps.frames[last/2].Len + ps.frames[last].Len; pin.DiskBytesRead != want || pin.ColdDictLoads != 3 {
		t.Fatalf("Values read %d bytes in %d entries, want its 3 frames' %d", pin.DiskBytesRead, pin.ColdDictLoads, want)
	}
}

// activeChunkBytes is the file bytes of the chunk records of cols at the
// chunks the residency analysis keeps for a restriction of column on to
// ids: those whose span holds one of the ids. Their number must be the
// query's active chunks.
func activeChunkBytes(t *testing.T, built *Store, r *colstore.Reader, on string, ids []uint32, cols []string, active int64) int64 {
	t.Helper()
	spans, err := built.internalStore().NewPinSet().ChunkSpans(on)
	if err != nil {
		t.Fatal(err)
	}
	var n, bytes int64
	for ci, sp := range spans {
		if !slices.ContainsFunc(ids, func(id uint32) bool { return sp.MinGID <= id && id <= sp.MaxGID }) {
			continue
		}
		n++
		for _, col := range cols {
			_, clen, err := r.ChunkFileRange(col, ci)
			if err != nil {
				t.Fatal(err)
			}
			bytes += clen
		}
	}
	if n != active {
		t.Fatalf("%d chunks hold the literals in their spans, the query kept %d", n, active)
	}
	return bytes
}

// benchCharts are the click benchmark's 20 chart shapes (bench/session.go,
// chart 20 with its row predicate), each under the WHERE clause %s stands
// for.
var benchCharts = []string{
	"SELECT country AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT table_name AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT user AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, COUNT(*) AS v FROM data%s GROUP BY k ORDER BY k ASC LIMIT 400;",
	"SELECT country AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT user AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT table_name AS k, MAX(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, MIN(latency) AS v FROM data%s GROUP BY k ORDER BY v ASC, k ASC LIMIT 10;",
	"SELECT user AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT table_name AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, MAX(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT user AS k, MAX(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, COUNT(DISTINCT table_name) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT date(timestamp) AS k, AVG(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;",
	"SELECT country AS k, MIN(latency) AS v FROM data%s GROUP BY k ORDER BY v ASC, k ASC LIMIT 10;",
	"SELECT COUNT(*) AS n, SUM(latency) AS s, MIN(latency) AS lo, MAX(latency) AS hi FROM data%s;",
	"SELECT country AS k, user AS u, COUNT(*) AS v FROM data%s GROUP BY k, u ORDER BY v DESC, k ASC, u ASC LIMIT 10;",
	"SELECT timestamp, table_name, latency, country, user FROM data%s ORDER BY latency DESC, timestamp ASC, table_name ASC LIMIT 10;",
}

// TestOneDictionaryResidencyPath: on a lazy store, with a quarter of its
// resident bytes as the budget and without one, every dictionary is paged
// by frame. The click benchmark's chart shapes, unrestricted and under
// three restrictions, answer as the built store does; afterwards nothing
// is pinned, the manager holds no entry of a whole dictionary (a key
// "<column>#dict", which no build since paged numeric dictionaries makes),
// and without a budget it holds frames of every column the charts read,
// virtual ones included.
func TestOneDictionaryResidencyPath(t *testing.T) {
	ps := newPagedSetup(t, 50_000)
	wheres := []string{"", ` WHERE country IN ("us", "de")`, ` WHERE latency > 500`,
		fmt.Sprintf(` WHERE table_name = "%s"`, ps.name(ps.base[1]))}
	for _, budget := range []int64{ps.resident / 4, 0} {
		s, _, err := Open(ps.dir, Options{MemoryBudgetBytes: budget, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, where := range wheres {
			for i, chart := range benchCharts {
				q := fmt.Sprintf(chart, where)
				if i == len(benchCharts)-1 { // the slowest queries, as the benchmark keeps them
					q = fmt.Sprintf(chart, " WHERE latency > 20000"+strings.Replace(where, " WHERE", " AND", 1))
				}
				want, err := ps.built.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Query(q)
				if err != nil {
					t.Fatalf("budget %d: %s: %v", budget, q, err)
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("budget %d: %s = %v, want %v", budget, q, got.Rows, want.Rows)
				}
			}
		}
		cs := s.internalStore()
		mgr, ns := cs.MemManager(), cs.CacheNamespace()
		if st := mgr.Stats(); st.PinnedBytes != 0 {
			t.Errorf("budget %d: %d bytes pinned after the charts", budget, st.PinnedBytes)
		}
		for _, col := range cs.Columns() {
			if n, _ := mgr.DropNamespace(ns + "\x00" + col + "#dict"); n != 0 {
				t.Errorf("budget %d: %d whole-dictionary entries of %s", budget, n, col)
			}
			if n, _ := mgr.DropNamespace(ns + "\x00" + col + "#f"); budget == 0 && n == 0 {
				t.Errorf("no frame of %s resident without a budget", col)
			}
		}
		s.Close()
	}
}
