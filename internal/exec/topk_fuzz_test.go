package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// FuzzTopKVsStableSort pins the bounded top-k selection to what it
// replaced. Random accumulator sets — ties, NaN, ±0 and infinite float
// sums, groups that saw no row, absent groups — are put in a group table,
// emitted, and finalized under a random query (0–3 ORDER BY terms of mixed
// direction over aggregates and keys, LIMIT absent / 0 / 1 / k / above
// the group count, sometimes a HAVING; one key, a composite key or none),
// three ways, FinalizePartial being the one finalizer there is: over the
// emitted partial as it is — id form, ascending global-id order, what
// Engine.Run does; over the same groups shuffled and in value form — keys
// are values in arrival order, what a merge delivers; and orderRows over
// finished rows. Each must equal, row for row and bit for bit, the deleted
// implementation kept below as referenceOrderLimit: render every row
// (partial_ref_test.go's row-wise reference does that), filter,
// sort.SliceStable, cut.
func FuzzTopKVsStableSort(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Add(int64(2012))
	f.Add(int64(-7))
	f.Fuzz(diffTopKVsStableSort)
}

// topkStore is the store the fuzz plans its queries against. Only its
// dictionaries matter: the accumulators are drawn at random, not scanned.
var topkStore = sync.OnceValues(func() (*colstore.Store, error) {
	const rows = 400
	s := make([]string, rows)
	k := make([]string, rows)
	n := make([]int64, rows)
	fv := make([]float64, rows)
	for i := range s {
		s[i] = fmt.Sprintf("v%02d", i%40)
		k[i] = fmt.Sprintf("t%d", (i/40)%5)
		n[i] = int64(i % 20)
		fv[i] = float64(i%16)/4 - 2
	}
	tbl := table.New("data").
		AddStringColumn("s", s).
		AddStringColumn("t", k).
		AddInt64Column("n", n).
		AddFloat64Column("fv", fv)
	return colstore.FromTable(tbl, colstore.Options{MaxChunkRows: 100})
})

func diffTopKVsStableSort(t *testing.T, seed int64) {
	store, err := topkStore()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	e := New(store, Options{Parallelism: 1})
	q := randomTopKQuery(rng)
	stmt := mustParseStmt(t, q)

	ps := store.NewPinSet()
	defer ps.Release()
	p, err := e.prepare(stmt, ps)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}

	// Random accumulators for a random subset of the groups.
	card := 1
	if p.groupCol != nil {
		card = p.groupCol.Dict.Len()
	}
	part := &partial{}
	for gid := 0; gid < card; gid++ {
		if rng.Intn(10) < 3 {
			continue
		}
		part.gids = append(part.gids, uint32(gid))
		part.accs = append(part.accs, make([]accCell, len(p.aggs))...)
		if p.hasDistinct {
			part.distinct = append(part.distinct, make([]distinctCell, len(p.aggs))...)
		}
	}
	groups := newGroupTable(card, len(p.aggs), len(part.gids), p.hasDistinct)
	groups.merge(part)
	for _, gid := range part.gids {
		// Set, not merged: a merge into a zero cell turns a -0 sum into +0.
		for j := range p.aggs {
			*groups.cell(gid, j) = randomAccCell(rng, p, j)
			if p.aggs[j].fn == aggCountDistinct && rng.Intn(4) > 0 {
				sk := sketch.NewKMV(e.opts.SketchM)
				for i := rng.Intn(4); i > 0; i-- {
					sk.AddUint64(uint64(rng.Intn(6)))
				}
				groups.distinctCell(gid, j).sketch = sk
			}
		}
	}

	emitted, err := e.emitPartial(p, groups)
	if err != nil {
		t.Fatalf("emitPartial %q: %v", q, err)
	}
	// The emitted partial as Run finalizes it: ids, global-id order.
	res, err := FinalizePartial(stmt, emitted)
	if err != nil {
		t.Fatalf("FinalizePartial of the id form %q: %v", q, err)
	}

	emitted.resolve()
	ref, specs, columns := emitted.rowwise(), refItemSpecs(t, stmt), emitted.Columns
	render := func() (rows [][]value.Value) {
		for i := range ref.Groups {
			rows = append(rows, refRow(specs, &ref.Groups[i]))
		}
		return rows
	}
	rows := render()
	want := referenceOrderLimit(t, stmt, columns, rows)
	requireSameRows(t, q, "id form", res.Rows, want)

	if stmt.Having == nil {
		requireSameRows(t, q, "orderRows", orderRows(stmt, rows), want)
	}

	// The same groups as a merged partial: keys as values, arrival order.
	rng.Shuffle(len(ref.Groups), func(i, j int) { ref.Groups[i], ref.Groups[j] = ref.Groups[j], ref.Groups[i] })
	pres, err := FinalizePartial(stmt, ref.columnar(emitted.layoutsOf()))
	if err != nil {
		t.Fatalf("FinalizePartial of the value form %q: %v", q, err)
	}
	requireSameRows(t, q, "value form", pres.Rows, referenceOrderLimit(t, stmt, columns, render()))
}

// referenceOrderLimit is the result path this package had before the
// bounded selection: HAVING over every rendered row, a stable sort of all
// of them by the ORDER BY keys' values, then the LIMIT cut. One thing
// differs from the deleted code: floats compare by compareOrderValues, not
// value.Compare. Compare calls a NaN equal to every number, which is not
// an order — what the stable sort made of it depended on the sort's
// internals — so there was no behaviour there to pin.
func referenceOrderLimit(t *testing.T, stmt *sql.SelectStmt, columns []string, rows [][]value.Value) [][]value.Value {
	t.Helper()
	rows = append([][]value.Value(nil), rows...)
	if stmt.Having != nil {
		having, err := compileHaving(stmt, columns)
		if err != nil {
			t.Fatal(err)
		}
		kept := rows[:0]
		for _, r := range rows {
			ok, err := having(r)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	var keys []int
	for _, o := range stmt.OrderBy {
		want, idx := o.Expr.String(), -1
		for i, name := range columns {
			if name == want {
				idx = i
				break
			}
		}
		for i := 0; idx < 0 && i < len(stmt.Items); i++ {
			if stmt.Items[i].Expr.String() == want {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("ORDER BY %s matches no output column", want)
		}
		keys = append(keys, idx)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range keys {
			c := compareOrderValues(rows[a][k], rows[b][k])
			if c == 0 {
				continue
			}
			if stmt.OrderBy[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if stmt.Limit >= 0 && len(rows) > stmt.Limit {
		rows = rows[:stmt.Limit]
	}
	return rows
}

// requireSameRows demands equal rows, floats to the bit.
func requireSameRows(t *testing.T, q, what string, got, want [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s of %q: %d rows, want %d\n got: %v\nwant: %v", what, q, len(got), len(want), got, want)
	}
	for i := range got {
		same := len(got[i]) == len(want[i])
		for j := 0; same && j < len(got[i]); j++ {
			g, w := got[i][j], want[i][j]
			switch {
			case g.Kind() != w.Kind():
				same = false
			case g.Kind() == value.KindFloat64:
				same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
			default:
				same = g.Equal(w)
			}
		}
		if !same {
			t.Fatalf("%s of %q: row %d is %v, want %v\n got: %v\nwant: %v", what, q, i, got[i], want[i], got, want)
		}
	}
}

// randomAccCell draws aggregate j's accumulator from small pools, so that
// groups tie on every kind of key.
func randomAccCell(rng *rand.Rand, p *plan, j int) accCell {
	counts := []int64{0, 1, 1, 2, 3, 7}
	ints := []int64{-3, 0, 0, 5, 5, 12}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, 1.5, -1.5, math.Inf(1), math.Inf(-1), 1e300}
	c := accCell{
		count: counts[rng.Intn(len(counts))],
		sumI:  ints[rng.Intn(len(ints))],
		sumF:  floats[rng.Intn(len(floats))],
	}
	if col := p.aggCols[j]; col != nil {
		a, b := uint32(rng.Intn(col.Dict.Len())), uint32(rng.Intn(col.Dict.Len()))
		c.minID, c.maxID, c.hasMM = min(a, b), max(a, b), true
	}
	return c
}

// randomTopKQuery draws the query shape: grouping, 1–3 aggregates, ORDER
// BY terms over the output columns, LIMIT, HAVING.
func randomTopKQuery(rng *rand.Rand) string {
	var keys []string
	switch rng.Intn(4) {
	case 0: // global aggregate
	case 1:
		keys = []string{"s", "t"}
	case 2:
		keys = []string{"n"}
	default:
		keys = []string{"s"}
	}
	aggs := []string{"COUNT(*)", "SUM(n)", "SUM(fv)", "AVG(fv)", "AVG(n)", "MIN(s)", "MAX(n)", "MIN(fv)", "COUNT(DISTINCT s)", "COUNT(DISTINCT n)"}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	na := 1 + rng.Intn(3)
	items := append([]string(nil), keys...)
	outputs := append([]string(nil), keys...)
	for i := 0; i < na; i++ {
		items = append(items, fmt.Sprintf("%s AS a%d", aggs[i], i))
		outputs = append(outputs, fmt.Sprintf("a%d", i))
	}
	q := "SELECT " + strings.Join(items, ", ") + " FROM data"
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(keys, ", ")
	}
	if rng.Intn(4) == 0 {
		switch {
		case aggs[0] == "MIN(s)":
			q += ` HAVING a0 >= "v10"`
		case rng.Intn(2) == 0:
			q += " HAVING a0 > 1"
		default:
			q += " HAVING a0 <= 5"
		}
	}
	rng.Shuffle(len(outputs), func(i, j int) { outputs[i], outputs[j] = outputs[j], outputs[i] })
	var order []string
	for _, name := range outputs[:rng.Intn(min(3, len(outputs))+1)] {
		if rng.Intn(2) == 0 {
			name += " DESC"
		}
		order = append(order, name)
	}
	if len(order) > 0 {
		q += " ORDER BY " + strings.Join(order, ", ")
	}
	limits := []int{-1, 0, 1, 3, 10, 1000}
	if l := limits[rng.Intn(len(limits))]; l >= 0 {
		q += fmt.Sprintf(" LIMIT %d", l)
	}
	return q + ";"
}
