package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/sql"
)

// predicateZoo is a zoo of WHERE clauses: every operator, nested trees,
// ranges, impossible and tautological predicates.
var predicateZoo = []string{
	`country IN ("de")`,
	`country IN ("de", "fr", "zz")`,
	`country NOT IN ("us")`,
	`country = "ch"`,
	`country != "ch"`,
	`NOT country = "ch"`,
	`latency > 500`,
	`latency <= 100`,
	`latency >= 0`,
	`latency < -5`,
	`latency > 100 AND latency < 2000`,
	`country IN ("de") AND latency > 500`,
	`country IN ("de") OR country IN ("fr")`,
	`NOT (country IN ("de") OR latency > 100)`,
	`country = "de" AND NOT latency <= 50 OR user IN ("user0001")`,
	`table_name != "nope"`,
	`latency = 105`,
	`latency > 100.5`,
	`country IN ("zz")`,
}

// TestClassifyConsistentWithMask is the core safety property of skipping
// (Section 2.4): for every chunk, the tri-state classification computed
// from chunk-dictionaries alone must agree with the row-level mask —
// "none" means an all-zero mask, "all" means an all-ones mask. If this
// property breaks, skipping silently changes query results.
func TestClassifyConsistentWithMask(t *testing.T) {
	tbl := logs(3000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})

	var sc maskScratch
	for _, p := range predicateZoo {
		stmt, err := sql.Parse(`SELECT country, COUNT(*) FROM data WHERE ` + p + ` GROUP BY country;`)
		if err != nil {
			t.Fatalf("parse %q: %v", p, err)
		}
		r, err := e.compileRestriction(context.Background(), stmt.Where, e.store.NewPinSet())
		if err != nil {
			t.Fatalf("compile %q: %v", p, err)
		}
		for ci := 0; ci < e.store.NumChunks(); ci++ {
			state := r.classify(ci, byChunkDict)
			mask := r.mask(e, ci, &sc)
			switch state {
			case activeNone:
				if !mask.None() {
					t.Fatalf("%q chunk %d: classified none but %d rows match", p, ci, mask.Count())
				}
			case activeAll:
				if !mask.All() {
					t.Fatalf("%q chunk %d: classified all but only %d/%d rows match",
						p, ci, mask.Count(), mask.Len())
				}
			}
		}
	}
}

// TestClassifyRandomTrees drives the same property through randomly
// generated boolean trees.
func TestClassifyRandomTrees(t *testing.T) {
	tbl := logs(2000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	r := rand.New(rand.NewSource(17))

	countries := []string{"de", "us", "fr", "jp", "zz", "at"}
	var genPred func(depth int) string
	genPred = func(depth int) string {
		if depth <= 0 || r.Intn(3) == 0 {
			switch r.Intn(4) {
			case 0:
				return fmt.Sprintf(`country IN (%q, %q)`, countries[r.Intn(len(countries))], countries[r.Intn(len(countries))])
			case 1:
				return fmt.Sprintf(`latency > %d`, r.Intn(3000))
			case 2:
				return fmt.Sprintf(`country = %q`, countries[r.Intn(len(countries))])
			default:
				return fmt.Sprintf(`latency <= %d`, r.Intn(3000))
			}
		}
		switch r.Intn(3) {
		case 0:
			return "(" + genPred(depth-1) + " AND " + genPred(depth-1) + ")"
		case 1:
			return "(" + genPred(depth-1) + " OR " + genPred(depth-1) + ")"
		default:
			return "NOT " + genPred(depth-1)
		}
	}

	var sc maskScratch
	for trial := 0; trial < 60; trial++ {
		p := genPred(3)
		stmt, err := sql.Parse(`SELECT COUNT(*) FROM data WHERE ` + p + `;`)
		if err != nil {
			t.Fatalf("parse %q: %v", p, err)
		}
		rt, err := e.compileRestriction(context.Background(), stmt.Where, e.store.NewPinSet())
		if err != nil {
			t.Fatalf("compile %q: %v", p, err)
		}
		for ci := 0; ci < e.store.NumChunks(); ci++ {
			state := rt.classify(ci, byChunkDict)
			mask := rt.mask(e, ci, &sc)
			if state == activeNone && !mask.None() {
				t.Fatalf("%q chunk %d: none but %d match", p, ci, mask.Count())
			}
			if state == activeAll && !mask.All() {
				t.Fatalf("%q chunk %d: all but %d/%d match", p, ci, mask.Count(), mask.Len())
			}
		}
	}
}

// TestRangeCompilation checks the global-id interval construction for
// ordering operators, including fractional bounds against int columns.
func TestRangeCompilation(t *testing.T) {
	tbl := logs(1000)
	e := buildEngine(t, tbl, colstore.Options{}, Options{})
	lat := tbl.Column("latency").Ints

	count := func(pred func(int64) bool) int64 {
		var n int64
		for _, v := range lat {
			if pred(v) {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		where string
		want  int64
	}{
		{`latency > 500`, count(func(v int64) bool { return v > 500 })},
		{`latency >= 500`, count(func(v int64) bool { return v >= 500 })},
		{`latency < 500`, count(func(v int64) bool { return v < 500 })},
		{`latency <= 500`, count(func(v int64) bool { return v <= 500 })},
		{`latency > 499.5`, count(func(v int64) bool { return v >= 500 })},
		{`latency < 499.5`, count(func(v int64) bool { return v <= 499 })},
		{`latency >= 499.5`, count(func(v int64) bool { return v >= 500 })},
		{`latency <= 499.5`, count(func(v int64) bool { return v <= 499 })},
		{`500 < latency`, count(func(v int64) bool { return v > 500 })},
		{`500 >= latency`, count(func(v int64) bool { return v <= 500 })},
	} {
		res, err := query(e, `SELECT COUNT(*) FROM data WHERE `+tc.where+`;`)
		if err != nil {
			t.Fatalf("%q: %v", tc.where, err)
		}
		var got int64
		if len(res.Rows) > 0 {
			got = res.Rows[0][0].Int()
		}
		if got != tc.want {
			t.Errorf("%q = %d, want %d", tc.where, got, tc.want)
		}
	}
}

// TestRestrictionErrorPaths covers compile failures.
func TestRestrictionErrorPaths(t *testing.T) {
	tbl := logs(200)
	e := buildEngine(t, tbl, colstore.Options{}, Options{})
	for _, q := range []string{
		`SELECT COUNT(*) FROM data WHERE country > 5;`,      // kind clash in range
		`SELECT COUNT(*) FROM data WHERE country = 5;`,      // kind clash in equality
		`SELECT COUNT(*) FROM data WHERE missing IN ("x");`, // unknown column
		`SELECT COUNT(*) FROM data WHERE latency + 1;`,      // non-predicate
		`SELECT COUNT(*) FROM data WHERE latency IN ("s");`, // kind clash in IN
	} {
		if _, err := query(e, q); err == nil {
			t.Errorf("%q succeeded, want error", q)
		}
	}
	// Float-vs-int coercions that can never match must yield empty
	// results, not errors (1.5 can never equal an integer).
	res, err := query(e, `SELECT COUNT(*) FROM data WHERE latency = 1.5;`)
	if err != nil {
		t.Fatalf("fractional equality: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("latency = 1.5 matched %v", res.Rows)
	}
	// A column-to-column comparison is a predicate field.
	res2, err := query(e, `SELECT COUNT(*) FROM data WHERE latency = latency;`)
	if err != nil {
		t.Fatalf("column-to-column: %v", err)
	}
	if res2.Rows[0][0].Int() != 200 {
		t.Errorf("latency = latency matched %v rows", res2.Rows[0][0])
	}
	// So is an IN list with a non-literal member.
	res3, err := query(e, `SELECT COUNT(*) FROM data WHERE latency IN (latency);`)
	if err != nil {
		t.Fatalf("non-literal IN: %v", err)
	}
	if res3.Rows[0][0].Int() != 200 {
		t.Errorf("latency IN (latency) matched %v rows", res3.Rows[0][0])
	}
}

// TestLeafVerdicts checks the one verdict-table builder against a per-id
// membership test: random sorted chunk dictionaries against random id sets
// (with repeats, as an IN list may have) and ranges, empty ones included.
func TestLeafVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sortedIDs := func(n, span int) []uint32 {
		seen := map[uint32]bool{}
		var ids []uint32
		for len(ids) < n {
			if id := uint32(rng.Intn(span)); !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	for trial := 0; trial < 300; trial++ {
		span := 1 + rng.Intn(60)
		ch := &colstore.Chunk{GlobalIDs: sortedIDs(rng.Intn(span+1), span)}
		set := &restriction{op: rInSet}
		for i := rng.Intn(8); i > 0; i-- {
			set.gids = append(set.gids, uint32(rng.Intn(span+2)))
		}
		slices.Sort(set.gids)
		rng2 := &restriction{op: rRange, lo: uint32(rng.Intn(span + 2)), hi: uint32(rng.Intn(span + 2))}
		for _, leaf := range []*restriction{set, rng2} {
			verdict := make([]uint8, len(ch.GlobalIDs))
			for i := range verdict {
				verdict[i] = 7 // stale scratch
			}
			n, want := leaf.leafVerdicts(ch, verdict), 0
			for i, gid := range ch.GlobalIDs {
				in := gid >= leaf.lo && gid < leaf.hi
				if leaf.op == rInSet {
					in = false
					for _, g := range leaf.gids {
						in = in || g == gid
					}
				}
				if in {
					want++
				}
				if (verdict[i] == 1) != in || verdict[i] > 1 {
					t.Fatalf("op %d ids %v gids %v [%d,%d): verdict[%d] = %d, want %v", leaf.op, ch.GlobalIDs, leaf.gids, leaf.lo, leaf.hi, i, verdict[i], in)
				}
			}
			if n != want {
				t.Fatalf("op %d: counted %d, want %d", leaf.op, n, want)
			}
		}
	}
}
