package exec

import (
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/sql"
)

// mustParseStmt parses or fails the test.
func mustParseStmt(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return stmt
}

func TestHavingFiltersGroups(t *testing.T) {
	tbl := logs(2000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})

	// Reference: counts per country without HAVING.
	all, err := query(e, `SELECT country, COUNT(*) AS c FROM data GROUP BY country;`)
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 100
	want := 0
	for _, r := range all.Rows {
		if r[1].Int() > threshold {
			want++
		}
	}
	if want == 0 || want == len(all.Rows) {
		t.Fatalf("degenerate threshold: %d of %d groups pass", want, len(all.Rows))
	}

	// HAVING by alias.
	res, err := query(e, `SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING c > 100;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != want {
		t.Errorf("HAVING by alias kept %d groups, want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if r[1].Int() <= threshold {
			t.Errorf("group %v leaked through HAVING", r)
		}
	}

	// HAVING by canonical aggregate form.
	res2, err := query(e, `SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING COUNT(*) > 100;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != want {
		t.Errorf("HAVING by COUNT(*) kept %d groups, want %d", len(res2.Rows), want)
	}

	// HAVING referencing the group key.
	res3, err := query(e, `SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING country IN ("us", "de") AND c > 0;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 2 {
		t.Errorf("key-based HAVING kept %d groups, want 2", len(res3.Rows))
	}
}

func TestHavingBeforeOrderAndLimit(t *testing.T) {
	tbl := logs(2000)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	res, err := query(e, `SELECT country, COUNT(*) AS c FROM data GROUP BY country
		HAVING c < 100 ORDER BY c DESC LIMIT 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 3 {
		t.Fatalf("LIMIT ignored: %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() >= 100 {
			t.Errorf("HAVING applied after LIMIT: %v", r)
		}
	}
	// Rows are ordered DESC among the survivors.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int() < res.Rows[i][1].Int() {
			t.Error("ORDER BY broken after HAVING")
		}
	}
}

func TestHavingErrors(t *testing.T) {
	tbl := logs(300)
	e := buildEngine(t, tbl, colstore.Options{}, Options{})
	for _, q := range []string{
		// Aggregate not present in the select list.
		`SELECT country, COUNT(*) FROM data GROUP BY country HAVING SUM(latency) > 5;`,
		// HAVING without grouping.
		`SELECT country FROM data HAVING country = "us";`,
		// Unknown column in HAVING.
		`SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING nope > 5;`,
	} {
		if _, err := query(e, q); err == nil {
			t.Errorf("%q succeeded, want error", q)
		}
	}
}

func TestHavingRoundTripsThroughParser(t *testing.T) {
	tbl := logs(500)
	e := buildEngine(t, tbl, chunkedOpts(), Options{})
	q := `SELECT country, SUM(latency) AS s FROM data GROUP BY country HAVING s > 1000 ORDER BY s DESC;`
	a, err := query(e, q)
	if err != nil {
		t.Fatal(err)
	}
	// Re-parse the canonical printing and run again: identical results.
	stmt := mustParseStmt(t, q)
	b, err := query(e, stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("round trip changed result: %d vs %d rows", len(a.Rows), len(b.Rows))
	}
}
