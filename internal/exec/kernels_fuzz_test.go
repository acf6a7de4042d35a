package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/table"
)

// FuzzScanKernelsVsScalar is the differential fuzzer that backs the
// bit-for-bit identity claim in kernels.go: it generates a random table
// (mixed column types, duplicate and empty strings, uneven chunk sizes down
// to single rows and up to thousands, elements of every width but 4 bytes
// — OptimizeElements off gives those) and a random query (a restriction tree up to three levels
// deep over =, !=, <, <=, >, >=, IN, NOT, AND, OR, whose leaves on the
// partition column are decided "all" or "none" by most chunk dictionaries
// and whose selective leaves leave a sparse mask for the ones after them;
// GROUP BY over any column — the partition column makes single-group
// chunks — or none; 1–3 aggregates from COUNT/SUM/AVG/MIN/MAX/
// COUNT(DISTINCT)), then runs it through the vectorized kernels and the
// scalar reference path and requires exactly equal results — including
// float bit patterns — or exactly equal errors, and exactly equal merged
// group tables, array by array. Bits of shape turn on ExactDistinct and
// DisableSkipping, the latter so that chunks the classification would
// settle reach the masked kernels with full and empty masks.
func FuzzScanKernelsVsScalar(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(0))
	f.Add(int64(2012), uint16(1000), uint16(7))
	f.Add(int64(-7), uint16(1), uint16(3))
	f.Add(int64(42), uint16(4095), uint16(65535))
	f.Add(int64(99), uint16(64), uint16(129))
	f.Add(int64(3), uint16(7000), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, shape uint16) {
		diffKernelsVsScalar(t, seed, int(rows)%8192, shape)
	})
}

// TestScanKernelsVsScalarSweep runs the differential trial over a fixed
// range of seeds, sizes and shapes, so that a plain `go test` — not only a
// fuzzing run — walks the restriction and kernel branches.
func TestScanKernelsVsScalarSweep(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		diffKernelsVsScalar(t, seed, 1+int(seed*37%1500), uint16(seed))
	}
}

// diffKernelsVsScalar is one differential trial.
func diffKernelsVsScalar(t *testing.T, seed int64, rows int, shape uint16) {
	t.Helper()
	if rows == 0 {
		rows = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Table: string s (small domain, includes the empty string), int64 n,
	// float64 fv, and a monotone partition column p that splits the store
	// into uneven chunks (MaxChunkRows below can force 1-row chunks). One
	// table in four is wide: domains of up to 1 000 strings, 3 000 integers
	// and 4 000 floats, so chunks store 2-byte elements, and chunks as large
	// as the partition column allows — over 4 096 rows, when rows is.
	strCard := 1 + rng.Intn(1+rng.Intn(32))
	intCard := 1 + rng.Intn(1+rng.Intn(64))
	fvCard, maxChunkRows := 400, 1+rng.Intn(300)
	if rng.Intn(4) == 0 {
		strCard, intCard, fvCard, maxChunkRows = 1+rng.Intn(1000), 1+rng.Intn(3000), 4000, rows
	}
	pEvery := 1 + rng.Intn(rows)
	s := make([]string, rows)
	n := make([]int64, rows)
	fv := make([]float64, rows)
	p := make([]string, rows)
	for i := 0; i < rows; i++ {
		if v := rng.Intn(strCard); v == 0 {
			s[i] = "" // empty string is a legal dictionary value
		} else {
			s[i] = fmt.Sprintf("v%02d", v)
		}
		n[i] = int64(rng.Intn(intCard))
		fv[i] = float64(rng.Intn(fvCard)) / 4
		p[i] = fmt.Sprintf("p%03d", i/pEvery)
	}
	tbl := table.New("data").
		AddStringColumn("s", s).
		AddInt64Column("n", n).
		AddFloat64Column("fv", fv).
		AddStringColumn("p", p)
	store, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  []string{"p"},
		MaxChunkRows:     maxChunkRows,
		OptimizeElements: shape&1 == 0,
	})
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}

	q := randomKernelQuery(rng, strCard, intCard, (rows-1)/pEvery)
	opts := Options{
		Parallelism:     1 + rng.Intn(4),
		ExactDistinct:   shape&2 != 0,
		DisableSkipping: shape&4 != 0,
	}
	requireKernelsMatchScalar(t, store, opts, q)
}

// requireKernelsMatchScalar runs q through the kernels and the scalar path
// of engines over store with opts, and demands the same results and the
// same merged group tables, bit for bit, or the same error.
func requireKernelsMatchScalar(t *testing.T, store *colstore.Store, opts Options, q string) {
	t.Helper()
	scalarOpts := opts
	scalarOpts.DisableKernels = true
	kernel, scalar := New(store, opts), New(store, scalarOpts)
	kres, kerr := kernel.Query(q)
	sres, serr := scalar.Query(q)

	switch {
	case (kerr == nil) != (serr == nil):
		t.Fatalf("error divergence for %q:\n  kernel: %v\n  scalar: %v", q, kerr, serr)
	case kerr != nil:
		if kerr.Error() != serr.Error() {
			t.Fatalf("error text divergence for %q:\n  kernel: %v\n  scalar: %v", q, kerr, serr)
		}
		return
	}
	if !reflect.DeepEqual(kres.Columns, sres.Columns) {
		t.Fatalf("column divergence for %q:\n  kernel: %v\n  scalar: %v", q, kres.Columns, sres.Columns)
	}
	if !reflect.DeepEqual(kres.Rows, sres.Rows) {
		t.Fatalf("row divergence for %q:\n  kernel: %#v\n  scalar: %#v", q, kres.Rows, sres.Rows)
	}
	requireSameGroupTables(t, q, kernel, scalar)
}

// requireSameGroupTables runs q's scan on both engines and compares the
// merged group tables array by array — what ORDER BY and LIMIT hide from a
// comparison of result rows: global-ids, counts, sums (floats by their
// bits), MIN/MAX ids, and COUNT(DISTINCT) runs, of hashes or, under
// ExactDistinct, of global-ids.
func requireSameGroupTables(t *testing.T, q string, kernel, scalar *Engine) {
	t.Helper()
	var tables [2]*groupSet
	for i, e := range []*Engine{kernel, scalar} {
		p, release := planned(t, e, q)
		defer release()
		groups, _, err := e.executeChunks(p)
		if err != nil {
			t.Fatalf("executeChunks %q: %v", q, err)
		}
		tables[i] = groups
	}
	k, s := tables[0], tables[1]
	if !slices.Equal(k.gids, s.gids) || len(k.aggs) != len(s.aggs) {
		t.Fatalf("group divergence for %q:\n  kernel: %v\n  scalar: %v", q, k.gids, s.gids)
	}
	for j := range k.aggs {
		ka, sa := &k.aggs[j], &s.aggs[j]
		if ka.has != sa.has || ka.m != sa.m || !slices.Equal(ka.counts, sa.counts) || !slices.Equal(ka.sumI, sa.sumI) ||
			!slices.Equal(ka.parts.off, sa.parts.off) || !slices.Equal(ka.parts.vals, sa.parts.vals) ||
			!slices.Equal(ka.vals.ids, sa.vals.ids) ||
			!slices.Equal(ka.hashes.off, sa.hashes.off) || !slices.Equal(ka.hashes.vals, sa.hashes.vals) {
			t.Fatalf("aggregate %d diverges for %q:\n  kernel: %+v\n  scalar: %+v", j, q, *ka, *sa)
		}
	}
}

// randomKernelQuery assembles a query from the restriction and aggregate
// grammar both scan paths support.
func randomKernelQuery(rng *rand.Rand, strCard, intCard, lastPart int) string {
	strLit := func() string {
		// Mix of present values, the empty string, and guaranteed misses.
		switch rng.Intn(4) {
		case 0:
			return `""`
		case 1:
			return `"missing"`
		default:
			return fmt.Sprintf(`"v%02d"`, rng.Intn(strCard+2))
		}
	}
	intLit := func() string { return fmt.Sprintf("%d", rng.Intn(intCard+2)) }
	// A value of the partition column: one past the last is a miss.
	partLit := func() string { return fmt.Sprintf(`"p%03d"`, rng.Intn(lastPart+2)) }
	preds := []func() string{
		func() string { return fmt.Sprintf("s = %s", strLit()) },
		func() string { return fmt.Sprintf("s != %s", strLit()) },
		func() string { return fmt.Sprintf("n = %s", intLit()) },
		func() string { return fmt.Sprintf("n < %s", intLit()) },
		func() string { return fmt.Sprintf("n >= %s", intLit()) },
		func() string { return fmt.Sprintf("n > %d.5", rng.Intn(intCard+1)) }, // fractional bound on int column
		func() string { return fmt.Sprintf("fv <= %.2f", float64(rng.Intn(400))/4) },
		func() string { return fmt.Sprintf("s IN (%s, %s, %s)", strLit(), strLit(), strLit()) },
		func() string { return fmt.Sprintf("n NOT IN (%s, %s)", intLit(), intLit()) },
		func() string { return fmt.Sprintf("NOT s = %s", strLit()) },
		// On the partition column: all or none of a chunk, for most chunks.
		func() string { return fmt.Sprintf("p = %s", partLit()) },
		func() string { return fmt.Sprintf("p != %s", partLit()) },
		func() string { return fmt.Sprintf("p >= %s", partLit()) },
		func() string { return fmt.Sprintf("p IN (%s, %s)", partLit(), partLit()) },
		// A row predicate: evaluated per row, and now and then one that fails.
		func() string {
			if rng.Intn(8) == 0 {
				return "s < n"
			}
			return "n = n"
		},
	}
	// tree draws a restriction tree: a leaf, or at depth > 0 a NOT, or an
	// AND or OR of two to four subtrees. A long AND is the shape whose first
	// selective leaves leave few rows for the rest to be probed at.
	var tree func(depth int) string
	tree = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return preds[rng.Intn(len(preds))]()
		}
		if rng.Intn(5) == 0 {
			return "NOT (" + tree(depth-1) + ")"
		}
		op := " AND "
		if rng.Intn(3) == 0 {
			op = " OR "
		}
		out := "(" + tree(depth-1)
		for i := 1 + rng.Intn(3); i > 0; i-- {
			out += op + tree(depth-1)
		}
		return out + ")"
	}
	var where string
	if depth := rng.Intn(4); depth > 0 {
		where = " WHERE " + tree(depth-1)
	}

	aggs := []string{"COUNT(*)", "SUM(n)", "SUM(fv)", "AVG(fv)", "AVG(n)", "MIN(s)", "MAX(n)", "MIN(fv)", "MAX(s)", "COUNT(DISTINCT s)", "COUNT(DISTINCT n)"}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	na := 1 + rng.Intn(3)

	sel := ""
	group := ""
	switch rng.Intn(4) {
	case 0: // global aggregate, no GROUP BY
	case 1:
		sel, group = "s, ", " GROUP BY s"
	case 2:
		sel, group = "p, ", " GROUP BY p"
	default:
		sel, group = "n, ", " GROUP BY n"
	}
	for i := 0; i < na; i++ {
		sel += fmt.Sprintf("%s AS a%d, ", aggs[i], i)
	}
	sel = sel[:len(sel)-2]

	order := ""
	if rng.Intn(3) == 0 {
		order = fmt.Sprintf(" ORDER BY a0 DESC LIMIT %d", 1+rng.Intn(20))
	}
	return fmt.Sprintf("SELECT %s FROM data%s%s%s;", sel, where, group, order)
}
