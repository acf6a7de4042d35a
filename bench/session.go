package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"powerdrill"
)

// queriesPerClick is the paper's "about 20 SQL queries with a single mouse
// click"; clicksPerSession is one drill-down from the unrestricted view to a
// narrow slice and back.
const (
	queriesPerClick  = 20
	clicksPerSession = 8
)

// charts are the 20 distinct chart queries one click refreshes; %s takes the
// WHERE clause. Every ORDER BY ends on the group key, so the top ten are the
// same rows in the same order on every deployment shape: ties cannot make two
// correct answers differ. Chart 20 is the UI's "slowest queries" table, a row
// scan with a row predicate (slowRows) beside the click's restriction; the
// serving tree rejects row scans, so click-tree sends treeChart20.
var charts = [queriesPerClick]string{
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

// slowRows keeps the row scan to queries slower than 20 s, well under 1 % of
// the rows. Without it the scan materializes every row the restriction keeps —
// 76 MB of garbage for the unrestricted view of 200 000 rows — and that one
// chart was 83 % of the click and as variable as the garbage collector's phase.
const slowRows = "latency > 20000"

const treeChart20 = "SELECT table_name AS k, SUM(latency) AS v FROM data%s GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;"

// click is one mouse click: a restriction and the chart queries it refreshes.
type click struct {
	where   string
	queries []string
}

// countryShare is the part of the table each country-restricted click keeps.
// Holding it near one value makes a click at a given position of a session
// cost about the same in every session and under every seed, which is what
// lets a median over a few hundred clicks repeat; the sets themselves differ,
// so the results do not.
const (
	countryShare    = 0.35
	countryShareTol = 0.02
)

// sessions generates drill-down sessions over one table. Session i depends
// only on the table, the seed and i. It keeps the value counts of the three
// restricted columns and not the table, so that the raw rows can be dropped
// before the heap is measured.
type sessions struct {
	seed                    int64
	tree                    bool
	countries, users, names pool
}

// pool is a column's distinct values, sorted, with running row counts:
// cum[i] is the number of rows holding values[0..i].
type pool struct {
	values []string
	cum    []int
}

func newPool(col []string) pool {
	counts := map[string]int{}
	for _, v := range col {
		counts[v]++
	}
	var p pool
	for v := range counts {
		p.values = append(p.values, v)
	}
	sort.Strings(p.values)
	total := 0
	for _, v := range p.values {
		total += counts[v]
		p.cum = append(p.cum, total)
	}
	return p
}

func (p pool) rows() int { return p.cum[len(p.cum)-1] }

// share is the part of the rows that hold values[i].
func (p pool) share(i int) float64 {
	n := p.cum[i]
	if i > 0 {
		n -= p.cum[i-1]
	}
	return float64(n) / float64(p.rows())
}

// sampleByRow draws up to k distinct values, each draw being the value of a
// random row, so frequent values are picked more often — an analyst clicks
// on the bars that are tall enough to see.
func (p pool) sampleByRow(r *rand.Rand, k int) []string {
	seen := map[string]bool{}
	var out []string
	for tries := 0; len(out) < k && tries < 20*k; tries++ {
		v := p.values[sort.SearchInts(p.cum, r.Intn(p.rows())+1)]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func newSessions(tbl *powerdrill.Table, seed int64, tree bool) *sessions {
	return &sessions{
		seed:      seed,
		tree:      tree,
		countries: newPool(tbl.Column("country").Strs),
		users:     newPool(tbl.Column("user").Strs),
		names:     newPool(tbl.Column("table_name").Strs),
	}
}

// session returns the eight clicks of session i: unrestricted, then IN lists
// over country, user and table_name added one by one, the country set swapped
// for another, the conjuncts dropped again, and a reset onto table names alone.
func (g *sessions) session(i int) []click {
	r := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	a := g.countrySet(r)
	b := g.countrySet(r)
	for tries := 0; strings.Join(a, ",") == strings.Join(b, ",") && tries < 10; tries++ {
		b = g.countrySet(r)
	}
	ca, cb := inList("country", a), inList("country", b)
	u := inList("user", g.users.sampleByRow(r, 3))
	t := inList("table_name", g.names.sampleByRow(r, 3))
	t2 := inList("table_name", g.names.sampleByRow(r, 4))
	conjuncts := [clicksPerSession][]string{
		{},
		{ca},
		{ca, u},
		{ca, u, t},
		{cb, u, t},
		{cb, u},
		{cb},
		{t2},
	}
	out := make([]click, clicksPerSession)
	for ci, cj := range conjuncts {
		c := click{where: strings.Join(cj, " AND ")}
		for qi, chart := range charts {
			conj := cj
			if qi == queriesPerClick-1 {
				if g.tree {
					chart = treeChart20
				} else {
					conj = append([]string{slowRows}, cj...)
				}
			}
			clause := ""
			if len(conj) > 0 {
				clause = " WHERE " + strings.Join(conj, " AND ")
			}
			c.queries = append(c.queries, fmt.Sprintf(chart, clause))
		}
		out[ci] = c
	}
	return out
}

// countrySet draws a random set of countries whose rows make up countryShare
// of the table, give or take countryShareTol: countries are added in random
// order while they fit. If forty orders all miss the window, the closest wins.
func (g *sessions) countrySet(r *rand.Rand) []string {
	var best []string
	bestErr := 2.0
	for try := 0; try < 40; try++ {
		var set []string
		total := 0.0
		for _, i := range r.Perm(len(g.countries.values)) {
			if sh := g.countries.share(i); total+sh <= countryShare+countryShareTol {
				set = append(set, g.countries.values[i])
				total += sh
			}
		}
		if miss := math.Abs(total - countryShare); miss < bestErr {
			sort.Strings(set)
			best, bestErr = set, miss
		}
		if bestErr <= countryShareTol {
			break
		}
	}
	return best
}

// inList renders `field IN ("a", "b")`.
func inList(field string, vals []string) string {
	return fmt.Sprintf(`%s IN ("%s")`, field, strings.Join(vals, `", "`))
}
