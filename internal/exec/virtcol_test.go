package exec

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// virtcolQueries is an expression-heavy drill-down slice: a virtual
// group-by field, a multi-column group-by (composite virtual column), and
// a restriction on a virtual field — everything that triggers
// materialization.
func virtcolQueries() []string {
	return []string{
		`SELECT date(timestamp) AS d, COUNT(*) AS c FROM data GROUP BY d ORDER BY d ASC;`,
		`SELECT country, table_name, COUNT(*) AS c FROM data GROUP BY country, table_name ORDER BY c DESC, country ASC, table_name ASC LIMIT 20;`,
		`SELECT table_name, SUM(latency) AS s FROM data WHERE upper(country) = "DE" GROUP BY table_name ORDER BY s DESC, table_name ASC LIMIT 10;`,
	}
}

// TestVirtualColumnBudgetedBitIdentical is the PR's acceptance test: a
// session that materializes virtual columns under a 25% budget must (1)
// answer bit-for-bit like the resident store across repeated passes —
// virtual chunks evicted in between reload from the sidecar, not from a
// re-materialization — (2) keep every materialization inside the budget
// (no unevictable registry bytes; steady-state resident ≤ budget), and
// (3) prune chunks via the persisted virtual column's spans
// (SkippedChunks > 0 on the restricted repeat).
func TestVirtualColumnBudgetedBitIdentical(t *testing.T) {
	dir := savedReorderedStore(t, 4000, "zippy")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	budget := residentFootprint(t, eagerStore) / 4
	mgr := memmgr.New(budget, "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	lazy := New(lazyStore, Options{Parallelism: 2})

	var restrictedRepeat QueryStats
	for pass := 0; pass < 3; pass++ {
		for _, q := range virtcolQueries() {
			want, err := query(eager, q)
			if err != nil {
				t.Fatalf("eager %s: %v", q, err)
			}
			got, err := query(lazy, q)
			if err != nil {
				t.Fatalf("lazy pass %d %s: %v", pass, q, err)
			}
			assertSameResult(t, fmt.Sprintf("pass %d %s", pass, q), want, got)
			if pass > 0 && got.Stats.SkippedChunks > 0 {
				restrictedRepeat = got.Stats
			}
		}
	}
	// Everything materialized joined the budget: nothing fell back to the
	// unevictable registry...
	if unmanaged := lazyStore.UnevictableVirtualBytes(); unmanaged != 0 {
		t.Fatalf("unevictable virtual bytes = %d, want 0 (all budgeted)", unmanaged)
	}
	for _, name := range []string{"date(timestamp)", "upper(country)"} {
		if !lazyStore.HasColumn(name) {
			t.Fatalf("virtual column %q not registered", name)
		}
	}
	// ...and steady-state residency respects the budget.
	if st := mgr.Stats(); st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes > budget %d after queries finished", st.ResidentBytes, budget)
	}
	// The restriction on the persisted virtual column pruned from spans.
	if restrictedRepeat.SkippedChunks == 0 {
		t.Fatal("no repeat query pruned chunks via virtual-column spans")
	}
}

// TestVirtualSpanPruningAcrossReopen: a later session that merely reopens
// the store sees the previous session's materializations — no
// re-materialization scan — and prunes chunks from the sidecar's spans on
// its very first restricted query.
func TestVirtualSpanPruningAcrossReopen(t *testing.T) {
	dir := savedReorderedStore(t, 4000, "zippy")
	first, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT table_name, COUNT(*) AS c FROM data WHERE upper(country) = "DE" GROUP BY table_name ORDER BY c DESC, table_name ASC LIMIT 10;`
	want, err := query(New(first, Options{Parallelism: 2}), q)
	if err != nil {
		t.Fatal(err)
	}

	reopened, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.HasColumn("upper(country)") {
		t.Fatal("reopened store does not know the persisted virtual column")
	}
	got, err := query(New(reopened, Options{Parallelism: 2}), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, want, got)
	if got.Stats.SkippedChunks == 0 {
		t.Fatalf("first query after reopen pruned nothing: %+v", got.Stats)
	}
	if got.Stats.ActiveChunks == got.Stats.ChunksTotal {
		t.Fatalf("residency analysis treated the virtual restriction as all-active: %+v", got.Stats)
	}
}

// TestPredicateFieldMaterializedOnce: a predicate the dictionaries cannot
// decide — here a comparison of two expressions — is a virtual field,
// computed once. Two goroutines that touch it first at the same time add
// one column between them (a resident store refuses a second column of one
// name); a repeat builds no mask and adds no column; and a lazy store
// reopened from its directory knows the field from its sidecar and answers
// without loading the predicate's sources to evaluate it again.
func TestPredicateFieldMaterializedOnce(t *testing.T) {
	dir := savedReorderedStore(t, 4000, "zippy")
	resident, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(resident, Options{Parallelism: 2})
	top, err := query(e, `SELECT MAX(latency) FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	pred := fmt.Sprintf("latency * 2 > timestamp - timestamp + %d", top.Rows[0][0].Int())
	q := `SELECT country, COUNT(*) AS c FROM data WHERE ` + pred + ` GROUP BY country ORDER BY c DESC, country ASC;`
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	field, before := operandName(stmt.Where), len(resident.Columns())

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		first [2]*Result
		errs  [2]error
	)
	for g := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			first[g], errs[g] = query(e, q)
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	assertSameResult(t, q, first[0], first[1])
	if first[0].Stats.MasksBuilt+first[1].Stats.MasksBuilt == 0 {
		t.Fatalf("the first queries built no mask: the predicate decides no chunk partially")
	}
	if cols := resident.Columns(); len(cols) != before+1 || !resident.HasColumn(field) {
		t.Fatalf("two first touches left columns %q, want one more than %d: %q", cols, before, field)
	}
	requireMatchesReference(t, resident, Options{}, q)

	repeat, err := query(e, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, first[0], repeat)
	if repeat.Stats.MasksBuilt != 0 || len(resident.Columns()) != before+1 {
		t.Fatalf("repeat: %d masks built and %d columns, want 0 and %d", repeat.Stats.MasksBuilt, len(resident.Columns()), before+1)
	}

	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query(New(lazy, Options{Parallelism: 2}), q); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.HasColumn(field) {
		t.Fatalf("reopened store does not know the persisted predicate field %q", field)
	}
	got, err := query(New(reopened, Options{Parallelism: 2}), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, first[0], got)
	// The predicate field and country; evaluating again would load latency
	// and timestamp too.
	if got.Stats.ColdLoads != 2 {
		t.Fatalf("after reopen the query loaded %d columns, want 2", got.Stats.ColdLoads)
	}
}

// TestVirtualColumnConcurrentBudgeted hammers a tightly budgeted store
// with concurrent expression queries: materialization, sidecar persistence,
// eviction and reload racing across goroutines must stay bit-for-bit
// correct. Run with -race.
func TestVirtualColumnConcurrentBudgeted(t *testing.T) {
	dir := savedReorderedStore(t, 3000, "zippy")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	queries := virtcolQueries()
	wants := make([]*Result, len(queries))
	for i, q := range queries {
		if wants[i], err = query(eager, q); err != nil {
			t.Fatal(err)
		}
	}
	budget := residentFootprint(t, eagerStore) / 4
	lazyStore, _, err := colstore.OpenLazy(dir, memmgr.New(budget, ""))
	if err != nil {
		t.Fatal(err)
	}
	lazy := New(lazyStore, Options{Parallelism: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(queries)
				got, err := query(lazy, queries[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d rep %d: %w", g, rep, err)
					return
				}
				if len(got.Rows) != len(wants[i].Rows) {
					errs <- fmt.Errorf("goroutine %d rep %d: %d vs %d rows", g, rep, len(got.Rows), len(wants[i].Rows))
					return
				}
				for r := range got.Rows {
					for c := range got.Rows[r] {
						if !got.Rows[r][c].Equal(wants[i].Rows[r][c]) {
							errs <- fmt.Errorf("goroutine %d rep %d row %d col %d: %v != %v",
								g, rep, r, c, got.Rows[r][c], wants[i].Rows[r][c])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVirtualColumnReuseAfterClose: Store.Close between queries must not
// strand persisted virtual columns — handles reopen on demand.
func TestVirtualColumnReuseAfterClose(t *testing.T) {
	dir := savedReorderedStore(t, 3000, "zippy")
	mgr := memmgr.New(1, "") // evict everything on release: every query reloads
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	lazy := New(lazyStore, Options{Parallelism: 2})
	q := virtcolQueries()[0]
	want, err := query(lazy, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := lazyStore.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := query(lazy, q)
	if err != nil {
		t.Fatalf("query after Close: %v", err)
	}
	assertSameResult(t, q, want, got)
}

// TestPlainQueryDoesNotWaitForPlanLock: planMu guards only "check column
// exists → materialize → register". With it held, queries over plain
// columns, an already materialized expression and an already materialized
// composite finish; one that must materialize waits for the lock.
func TestPlainQueryDoesNotWaitForPlanLock(t *testing.T) {
	e := buildEngine(t, logs(2000), chunkedOpts(), Options{})
	settled := []string{
		`SELECT country, COUNT(*) FROM data WHERE latency > 100 GROUP BY country;`,
		`SELECT date(timestamp), COUNT(*) FROM data WHERE date(timestamp) != "x" GROUP BY date(timestamp);`,
		`SELECT country, user, COUNT(*) FROM data GROUP BY country, user;`,
	}
	for _, q := range settled {
		if _, err := query(e, q); err != nil {
			t.Fatal(err)
		}
	}
	run := func(q string) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := query(e, q)
			done <- err
		}()
		return done
	}
	e.planMu.Lock()
	unlock := sync.OnceFunc(e.planMu.Unlock)
	defer unlock()
	for _, q := range settled {
		select {
		case err := <-run(q):
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waits for the plan lock", q)
		}
	}
	fresh := run(`SELECT hour(timestamp), COUNT(*) FROM data GROUP BY hour(timestamp);`)
	select {
	case err := <-fresh:
		t.Fatalf("a fresh materialization finished under a held plan lock (error %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	unlock()
	if err := <-fresh; err != nil {
		t.Fatal(err)
	}
}

// TestVirtualColumnKeepsLiteralKind: a virtual column is named by its
// expression's canonical text, so an integer and a float literal must
// print apart — latency * 2 is an int64 column, latency * 2.0 a float64
// one — or whichever materialized first would answer for both.
func TestVirtualColumnKeepsLiteralKind(t *testing.T) {
	e := buildEngine(t, logs(2000), chunkedOpts(), Options{})
	for _, c := range []struct {
		q    string
		kind value.Kind
	}{
		{`SELECT SUM(latency * 2.0) AS s FROM data;`, value.KindFloat64},
		{`SELECT SUM(latency * 2) AS s FROM data;`, value.KindInt64},
	} {
		res, err := query(e, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Kind(); got != c.kind {
			t.Errorf("%s: a %v sum, want %v", c.q, got, c.kind)
		}
	}
}

// TestStaleFloatVirtualColumnIgnored: before float literals printed with a
// point, latency * 2.0 materialized as "(latency * 2)", the name latency * 2
// now has. A sidecar written then still holds that float64 column; after a
// reopen, latency * 2 must not answer from it.
func TestStaleFloatVirtualColumnIgnored(t *testing.T) {
	dir := savedReorderedStore(t, 2000, "zippy")
	old, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := old.ColumnErr("latency")
	if err != nil {
		t.Fatal(err)
	}
	vals := table.NewColumn("(latency * 2)", value.KindFloat64, old.NumRows())
	var sum int64
	for ci := range old.NumChunks() {
		for r := range old.ChunkRows(ci) {
			v := lat.ValueAt(ci, r).Int()
			sum += 2 * v
			vals.Floats[old.Bounds[ci]+r] = 2 * float64(v)
		}
	}
	ps := old.NewPinSet()
	_, err = old.AddVirtualColumnPinned(ps, vals)
	ps.Release()
	if err != nil {
		t.Fatal(err)
	}

	reopened, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := reopened.ColumnMeta("(latency * 2)"); !ok || m.Kind != value.KindFloat64 {
		t.Fatalf("the sidecar kept no float64 (latency * 2): %+v, %v", m, ok)
	}
	e := New(reopened, Options{Parallelism: 2})
	for _, q := range []string{
		`SELECT SUM(latency * 2) AS s FROM data;`,
		`SELECT COUNT(*) AS c FROM data WHERE latency * 2 >= 0;`,
		`SELECT latency * 2 AS l FROM data ORDER BY l DESC LIMIT 1;`,
	} {
		res, err := query(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0]; got.Kind() != value.KindInt64 {
			t.Errorf("%s: %v is a %v, want int64", q, got, got.Kind())
		}
	}
	res, err := query(e, `SELECT SUM(latency * 2) AS s FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got.Kind() != value.KindInt64 || got.Int() != sum {
		t.Errorf("SUM(latency * 2) = %v (%v), want int64 %d", got, got.Kind(), sum)
	}
	res, err = query(e, `SELECT SUM(latency * 2.0) AS s FROM data;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got.Kind() != value.KindFloat64 || got.Float() != float64(sum) {
		t.Errorf("SUM(latency * 2.0) = %v (%v), want float64 %d", got, got.Kind(), sum)
	}
}
