package sql

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// benchCharts are the twenty chart queries of one click of the click
// benchmark (bench/session.go); %s takes the WHERE clause.
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

// benchWheres are restrictions of the benchmark's drill-down shape, with the row predicate of its slowest-queries table and the
// literals a float formatted with an exponent used to lose.
var benchWheres = []string{
	``,
	` WHERE country IN ("US", "DE", "JP")`,
	` WHERE country IN ("US", "DE") AND user IN ("u0001", "u0042", "u0777")`,
	` WHERE country IN ("BR") AND user IN ("u0003") AND table_name IN ("t01", "t07", "t13")`,
	` WHERE table_name IN ("t01", "t02", "t03", "t04")`,
	` WHERE latency > 20000 AND country IN ("FR")`,
	` WHERE latency > 1500000.5 OR latency < 0.00001`,
	` WHERE NOT country = "US" AND date(timestamp) >= 15000`,
	` WHERE country NOT IN ("US", "CN") AND latency != 1.0`,
	` WHERE user = "say \"hi\"" OR user = 'back\\slash'`,
}

// sqlTestQueries are the statements this package's tests parse.
var sqlTestQueries = []string{
	`SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;`,
	`SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10;`,
	`SELECT search_string, COUNT(*) as c FROM data WHERE search_string IN ("la redoute", "voyages sncf") GROUP BY search_string ORDER BY c DESC LIMIT 10;`,
	`SELECT COUNT(*) FROM data WHERE country IN ("de") AND NOT user = "u1" OR table_name NOT IN ("a", "b") AND latency != 5`,
	`SELECT a + b * c - d / 2 FROM t`,
	`SELECT a FROM t WHERE a <> 1`,
	`SELECT a FROM t WHERE a = -5 AND b = -2.5`,
	`SELECT country, COUNT(DISTINCT table_name) FROM data GROUP BY country`,
	`SELECT COUNT(*) c FROM data GROUP BY country`,
	`SELECT a FROM t WHERE d IN ('2012-02-29', '2012-03-01')`,
	`SELECT a FROM t WHERE s = "he said \"hi\""`,
	`SELECT date(timestamp) as d, SUM(latency) FROM data WHERE country IN ("de", "fr") AND NOT user = "x" GROUP BY d ORDER BY d ASC;`,
	`SELECT a + b * 2 FROM t WHERE x NOT IN (1, 2, 3) OR y >= 1.5;`,
	`SELECT country, COUNT(*) + 1, date(timestamp) FROM data`,
	`SELECT a FROM t WHERE a = 1 AND b IN (2) AND (c = 3 OR d = 4)`,
	`select country from data where country in ("de") group by country order by country desc limit 5`,
	`SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING c > 5 AND country != "zz" ORDER BY c DESC LIMIT 3;`,
	`SELECT a + b * (c - 2.5) FROM t WHERE NOT x != 1 AND y NOT IN (1,2);`,
	`SELECT -x, - -3, -(4), f(), g(DISTINCT a, b) FROM t WHERE (NOT a) = b AND (a = b) IN (1)`,
}

// FuzzParse: no input makes Parse panic, and an accepted statement prints
// a String that parses back to the same tree, and so to the same String —
// what lets the engine key virtual columns and memoized restrictions on it.
// Plain go test runs every seed: each chart under each restriction, and
// every query of this package's tests.
func FuzzParse(f *testing.F) {
	for _, chart := range benchCharts {
		for _, w := range benchWheres {
			f.Add(fmt.Sprintf(chart, w))
		}
	}
	for _, q := range sqlTestQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its String %q refused: %v", src, printed, err)
		}
		if got := again.String(); got != printed {
			t.Fatalf("Parse(%q) prints\n  %s\nwhich prints\n  %s", src, printed, got)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("Parse(%q) and Parse of its String %q differ:\n  %#v\n  %#v", src, printed, stmt, again)
		}
	})
}

// TestLiteralsPrintReadably: a float prints in full with a point, so it
// reads back as the same float, and a string escapes only its quotes and
// backslashes, the lexer's one escape rule.
func TestLiteralsPrintReadably(t *testing.T) {
	for _, c := range []struct {
		e    Expr
		want string
	}{
		{&FloatLit{Val: 1500000.5}, "1500000.5"},
		{&FloatLit{Val: 0.00001}, "0.00001"},
		{&FloatLit{Val: 1}, "1.0"},
		{&FloatLit{Val: -2.5}, "-2.5"},
		{&StringLit{Val: `a "b" \c` + "\x01\xff"}, `"a \"b\" \\c` + "\x01\xff" + `"`},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("%#v prints %s, want %s", c.e, got, c.want)
		}
	}
}

// TestParseLengthBound: source of exactly maxSourceBytes parses, and one
// byte more is refused with a LengthError before it is lexed — the byte
// over opens a string that never closes.
func TestParseLengthBound(t *testing.T) {
	const stmt = "SELECT a FROM t WHERE a = 1"
	at := stmt + strings.Repeat(" ", maxSourceBytes-len(stmt))
	if _, err := Parse(at); err != nil {
		t.Fatalf("%d bytes: %v", len(at), err)
	}
	_, err := Parse(at + `"`)
	var le *LengthError
	if !errors.As(err, &le) || le.Len != maxSourceBytes+1 {
		t.Fatalf("%d bytes: got %v, want a LengthError", maxSourceBytes+1, err)
	}
}

// TestParseDepthBound: a statement nested past the bound is refused with a
// DepthError — by parentheses, NOTs, calls or a chain of ANDs alike — and
// the test process lives on; one level less parses. huge levels, a hundred
// times the bound, keep each statement within maxSourceBytes, past which
// Parse refuses the text before lexing it (TestParseLengthBound).
func TestParseDepthBound(t *testing.T) {
	const huge = 100_000
	for name, src := range map[string]string{
		"parentheses": "SELECT a FROM t WHERE " + strings.Repeat("(", huge) + "a = 1" + strings.Repeat(")", huge),
		"NOTs":        "SELECT a FROM t WHERE " + strings.Repeat("NOT ", huge) + "a = 1",
		"calls":       "SELECT " + strings.Repeat("f(", huge) + "a" + strings.Repeat(")", huge) + " FROM t",
		"ANDs":        "SELECT a FROM t WHERE a = 1" + strings.Repeat(" AND a = 1", huge),
		"minus":       "SELECT a FROM t WHERE a = " + strings.Repeat("- ", huge) + "x",
	} {
		_, err := Parse(src)
		var de *DepthError
		if !errors.As(err, &de) {
			t.Errorf("%d nested %s: got %v, want a DepthError", huge, name, err)
		}
	}
	// A comparison of two leaves is two levels: maxDepth-2 NOTs above it
	// fit, one more does not.
	if _, err := Parse("SELECT a FROM t WHERE " + strings.Repeat("NOT ", maxDepth-2) + "a = 1"); err != nil {
		t.Errorf("%d NOTs: %v", maxDepth-2, err)
	}
	if _, err := Parse("SELECT a FROM t WHERE " + strings.Repeat("NOT ", maxDepth-1) + "a = 1"); err == nil {
		t.Errorf("%d NOTs parsed, want a DepthError", maxDepth-1)
	}
	// Printing parenthesizes every level, and an IN list twice: a tree at
	// the bound still parses from its String.
	deep := mustParse(t, "SELECT a FROM t WHERE "+strings.Repeat("x IN (", maxDepth-1)+"1"+strings.Repeat(")", maxDepth-1))
	if again, err := Parse(deep.String()); err != nil || !reflect.DeepEqual(deep, again) {
		t.Errorf("%d nested IN lists do not round-trip: %v", maxDepth-1, err)
	}
	// A run of minus signs before a literal folds into it: no depth at all.
	stmt, err := Parse("SELECT a FROM t WHERE a = " + strings.Repeat("- ", huge) + "5")
	if err != nil {
		t.Fatalf("%d minus signs before 5: %v", huge, err)
	}
	if got := stmt.Where.String(); got != "(a = 5)" {
		t.Errorf("%d minus signs before 5: %s, want (a = 5)", huge, got)
	}
}
