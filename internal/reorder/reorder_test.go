package reorder

import (
	"math"
	"slices"
	"sort"
	"testing"

	"powerdrill/internal/table"
	"powerdrill/internal/workload"
)

func logs(rows int) *table.Table {
	return workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 11})
}

func isPermutation(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm has %d entries for %d rows", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatal("not a permutation")
		}
		seen[p] = true
	}
}

func TestLexicographicSortsAndPermutes(t *testing.T) {
	tbl := logs(5000)
	fields := []string{"country", "table_name"}
	perm := Lexicographic(tbl, fields)
	isPermutation(t, perm, tbl.NumRows())
	countries := tbl.Column("country").Strs
	names := tbl.Column("table_name").Strs
	for i := 1; i < len(perm); i++ {
		a, b := perm[i-1], perm[i]
		if countries[a] > countries[b] {
			t.Fatal("not sorted by first field")
		}
		if countries[a] == countries[b] && names[a] > names[b] {
			t.Fatal("not sorted by second field within first")
		}
	}
}

func TestLexicographicStable(t *testing.T) {
	tbl := logs(2000)
	perm := Lexicographic(tbl, []string{"country"})
	countries := tbl.Column("country").Strs
	// Within equal countries, original order (and thus time order) must be
	// preserved — the heuristic keeps the implicit timestamp clustering.
	for i := 1; i < len(perm); i++ {
		if countries[perm[i-1]] == countries[perm[i]] && perm[i-1] > perm[i] {
			t.Fatal("sort not stable")
		}
	}
}

func TestLexicographicIgnoresUnknownFields(t *testing.T) {
	tbl := logs(100)
	perm := Lexicographic(tbl, []string{"missing", "country"})
	isPermutation(t, perm, 100)
}

// TestLexicographicMatchesValueSort holds the id sort to the stable sort
// over boxed values it replaced, on string, int64 and float64 keys (the
// floats hold both zeros, which Compare calls equal).
func TestLexicographicMatchesValueSort(t *testing.T) {
	tbl := logs(20_000)
	lat := tbl.Column("latency").Ints
	score := make([]float64, len(lat))
	for i, l := range lat {
		score[i] = float64(l%9-4) / 2
		if l%7 == 0 {
			score[i] = math.Copysign(0, -1)
		}
	}
	tbl.AddFloat64Column("score", score)
	for _, fields := range [][]string{
		{"country"},
		{"country", "table_name"},
		{"score", "latency"},
		{"table_name", "score", "user"},
	} {
		want := Identity(tbl.NumRows())
		sort.SliceStable(want, func(i, j int) bool {
			for _, f := range fields {
				c := tbl.Column(f)
				if cmp := c.Value(want[i]).Compare(c.Value(want[j])); cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		if !slices.Equal(Lexicographic(tbl, fields), want) {
			t.Errorf("%v: permutation differs from the stable value sort", fields)
		}
	}
}

func TestIdentityAndRandom(t *testing.T) {
	id := Identity(100)
	for i, p := range id {
		if p != i {
			t.Fatal("Identity not identity")
		}
	}
	r1 := Random(100, 1)
	r2 := Random(100, 1)
	r3 := Random(100, 2)
	isPermutation(t, r1, 100)
	same12, same13 := true, true
	for i := range r1 {
		if r1[i] != r2[i] {
			same12 = false
		}
		if r1[i] != r3[i] {
			same13 = false
		}
	}
	if !same12 {
		t.Error("Random not deterministic for equal seeds")
	}
	if same13 {
		t.Error("Random identical across different seeds")
	}
}

// TestSortingReducesHammingCost is the Section 3 claim in miniature:
// sorting lexicographically by the partition fields shortens the path
// through Hamming space versus a random order.
func TestSortingReducesHammingCost(t *testing.T) {
	tbl := logs(3000)
	fields := []string{"country", "table_name", "user"}
	costRandom := HammingCost(tbl, fields, Random(tbl.NumRows(), 5))
	costSorted := HammingCost(tbl, fields, Lexicographic(tbl, fields))
	t.Logf("Hamming cost: random=%d sorted=%d (%.2fx)", costRandom, costSorted,
		float64(costRandom)/float64(costSorted))
	if costSorted >= costRandom {
		t.Errorf("sorted cost %d not below random cost %d", costSorted, costRandom)
	}
}

func TestNearestNeighborBeatsIdentityOnShuffledData(t *testing.T) {
	tbl := logs(1200).Permute(Random(1200, 7)) // destroy natural clustering
	fields := []string{"country", "user"}
	costID := HammingCost(tbl, fields, Identity(tbl.NumRows()))
	costNN := HammingCost(tbl, fields, NearestNeighbor(tbl, fields, 300))
	t.Logf("Hamming cost: identity=%d nn=%d", costID, costNN)
	if costNN > costID {
		t.Errorf("nearest-neighbour cost %d above identity %d", costNN, costID)
	}
	isPermutation(t, NearestNeighbor(tbl, fields, 300), tbl.NumRows())
}

func TestNearestNeighborDegenerateWindow(t *testing.T) {
	tbl := logs(50)
	perm := NearestNeighbor(tbl, []string{"country"}, 1)
	for i, p := range perm {
		if p != i {
			t.Fatal("window=1 should be identity")
		}
	}
	if got := NearestNeighbor(table.New("e"), []string{"x"}, 10); len(got) != 0 {
		t.Error("empty table produced rows")
	}
}

func TestHammingCostProperties(t *testing.T) {
	tbl := logs(500)
	fields := []string{"country", "user"}
	if HammingCost(tbl, fields, Identity(500)) < 0 {
		t.Error("negative cost")
	}
	// A single row has no transitions.
	one := logs(1)
	if HammingCost(one, fields, Identity(1)) != 0 {
		t.Error("single-row cost nonzero")
	}
	// Constant table: zero cost in any order.
	ct := table.New("c")
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = "x"
	}
	ct.AddStringColumn("k", vals)
	if HammingCost(ct, []string{"k"}, Random(100, 3)) != 0 {
		t.Error("constant table has nonzero cost")
	}
}

func BenchmarkLexicographic(b *testing.B) {
	tbl := logs(50_000)
	fields := []string{"country", "table_name"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lexicographic(tbl, fields)
	}
}

func BenchmarkNearestNeighbor(b *testing.B) {
	tbl := logs(5000)
	fields := []string{"country", "user"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NearestNeighbor(tbl, fields, 500)
	}
}
