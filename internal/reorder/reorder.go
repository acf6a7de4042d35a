// Package reorder implements the row-reordering step of Section 3
// ("Reordering Rows"): permuting rows — which never changes SQL results —
// so that column-wise compression improves. Finding the optimal order is
// the travelling-salesperson problem in Hamming space (Johnson et al.,
// VLDB 2004; NP-hard, and hard to approximate per Trevisan), so heuristics
// are used:
//
//   - Lexicographic: sort by the partition field order — the paper's
//     production choice ("a very easy to implement heuristic which in
//     practice gives good results");
//   - NearestNeighbor: the greedy heuristic Johnson et al. investigate,
//     restricted to windows to avoid the quadratic runtime;
//   - Random / Identity: baselines for the ablation benchmarks.
//
// HammingCost evaluates an order under the paper's cost model: the sum of
// Hamming distances between consecutive rows equals the number of counters
// a simplified RLE needs (Figure 3), i.e. smaller cost → better compression.
package reorder

import (
	"cmp"
	"math/rand"
	"slices"

	"powerdrill/internal/table"
)

// Lexicographic returns the permutation that sorts tbl by fields, in
// order, with ties broken by the original row index (a stable sort, so the
// implicit time clustering of the remaining columns survives). Unknown
// fields are ignored.
func Lexicographic(tbl *table.Table, fields []string) []int {
	var keys [][]uint32
	for _, f := range fields {
		if c := tbl.Column(f); c != nil {
			ids, _ := c.Rank()
			keys = append(keys, ids)
		}
	}
	return ByKeys(keys, tbl.NumRows())
}

// ByKeys is Lexicographic over ranked fields: it sorts rows 0..n-1 by
// their id tuples — keys[f][r] is row r's order-preserving id in field f —
// with the row index as the last key.
func ByKeys(keys [][]uint32, n int) []int {
	perm := identity(n)
	slices.SortFunc(perm, func(a, b int) int {
		for _, ids := range keys {
			if c := cmp.Compare(ids[a], ids[b]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	return perm
}

// Identity returns the unpermuted order.
func Identity(n int) []int { return identity(n) }

// Random returns a seeded random permutation (the worst-case baseline).
func Random(n int, seed int64) []int {
	perm := identity(n)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// rowKeys materializes per-row comparable keys for the given fields, as
// small integer ids (dictionary ranks), so Hamming distances are cheap.
func rowKeys(tbl *table.Table, fields []string) [][]uint32 {
	n := tbl.NumRows()
	keys := make([][]uint32, n)
	for i := range keys {
		keys[i] = make([]uint32, 0, len(fields))
	}
	for _, f := range fields {
		c := tbl.Column(f)
		if c == nil {
			continue
		}
		ids := make(map[string]uint32)
		for i := 0; i < n; i++ {
			s := c.Value(i).String()
			id, ok := ids[s]
			if !ok {
				id = uint32(len(ids))
				ids[s] = id
			}
			keys[i] = append(keys[i], id)
		}
	}
	return keys
}

// hamming counts differing fields between two key rows.
func hamming(a, b []uint32) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// HammingCost evaluates perm under the Section 3 cost model: the length of
// the path the ordering traces through Hamming space, Σ dist(r, r+1).
func HammingCost(tbl *table.Table, fields []string, perm []int) int64 {
	keys := rowKeys(tbl, fields)
	var cost int64
	for i := 1; i < len(perm); i++ {
		cost += int64(hamming(keys[perm[i-1]], keys[perm[i]]))
	}
	return cost
}

// NearestNeighbor runs the greedy nearest-neighbour TSP heuristic within
// consecutive windows of the given size (Johnson et al. "split the data
// into ranges to deal with the otherwise quadratic runtime"). window ≤ 1
// degenerates to the identity order.
func NearestNeighbor(tbl *table.Table, fields []string, window int) []int {
	n := tbl.NumRows()
	if window <= 1 || n == 0 {
		return identity(n)
	}
	keys := rowKeys(tbl, fields)
	perm := make([]int, 0, n)
	for start := 0; start < n; start += window {
		end := start + window
		if end > n {
			end = n
		}
		perm = append(perm, nnWindow(keys, start, end)...)
	}
	return perm
}

// nnWindow orders rows [start,end) greedily by nearest neighbour.
func nnWindow(keys [][]uint32, start, end int) []int {
	size := end - start
	used := make([]bool, size)
	out := make([]int, 0, size)
	cur := 0
	used[0] = true
	out = append(out, start)
	for len(out) < size {
		best, bestDist := -1, 1<<30
		for j := 0; j < size; j++ {
			if used[j] {
				continue
			}
			d := hamming(keys[start+cur], keys[start+j])
			if d < bestDist {
				best, bestDist = j, d
				if d == 0 {
					break
				}
			}
		}
		used[best] = true
		out = append(out, start+best)
		cur = best
	}
	return out
}
