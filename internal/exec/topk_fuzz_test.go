package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// replaced. Random group tables — ties, NaN, ±0 and infinite float sums,
// groups that saw no row, absent groups — are emitted and finalized under
// a random query (0–3 ORDER BY terms of mixed direction over aggregates
// and keys, LIMIT absent / 0 / 1 / k / above the group count, sometimes a
// HAVING; one key, a composite key or none), three ways, FinalizePartial being the one finalizer there is: over the
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
	p, err := e.prepare(context.Background(), stmt, ps)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}

	// Random columns for a random subset of the groups.
	card := 1
	if p.groupCol != nil {
		card = p.groupCol.Dict.Len()
	}
	groups := &groupSet{aggs: slices.Clone(p.emptyAggs)}
	for gid := 0; gid < card; gid++ {
		if rng.Intn(10) >= 3 {
			groups.gids = append(groups.gids, uint32(gid))
		}
	}
	for j := range groups.aggs {
		randomColumn(rng, p, j, &groups.aggs[j], len(groups.gids))
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
		requireSameRows(t, q, "orderRows", orderRows(stmt, orderItems(stmt), rows), want)
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

// randomColumn fills aggregate j's column over n groups in the group
// table's form, drawing from small pools so that groups tie on every kind
// of key: counts of groups that saw no row, NaN, ±0 and infinite float
// sums, MIN/MAX ids, sketches of a few hashes or none.
func randomColumn(rng *rand.Rand, p *plan, j int, a *aggColumn, n int) {
	counts := []int64{0, 1, 1, 2, 3, 7}
	ints := []int64{-3, 0, 0, 5, 5, 12}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, 1.5, -1.5, math.Inf(1), math.Inf(-1), 1e300}
	a.alloc(n)
	for i := 0; i < n; i++ {
		if a.counts != nil {
			a.counts[i] = counts[rng.Intn(len(counts))]
		}
		if a.sumI != nil {
			a.sumI[i] = ints[rng.Intn(len(ints))]
		}
		if a.parts.vals != nil {
			a.parts.vals[i] = math.Float64bits(floats[rng.Intn(len(floats))])
		}
		if a.vals.ids != nil {
			a.vals.ids[i] = uint32(rng.Intn(p.aggCols[j].Dict.Len()))
		}
		if a.has&arrSketch != 0 {
			sk := sketch.NewKMV(a.m)
			for k := rng.Intn(4); k > 0; k-- {
				sk.AddUint64(uint64(rng.Intn(6)))
			}
			a.hashes.vals = sk.AppendHashes(a.hashes.vals)
			a.hashes.endRun()
		}
	}
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
