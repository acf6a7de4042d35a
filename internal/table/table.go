// Package table holds raw, row-ordered tables in memory: the input of the
// import pipeline (partitioning, reordering, column-store construction) and
// of the row-wise baseline backends. Columns are typed slices; the nested
// relational model of the paper is out of scope (its experiments use flat
// records, see "Notation and Simplifying Assumptions").
package table

import (
	"fmt"
	"math"
	"slices"

	"powerdrill/internal/value"
)

// Column is one typed column of a raw table. Exactly one of the payload
// slices is populated, matching Kind.
type Column struct {
	Name   string
	Kind   value.Kind
	Strs   []string
	Ints   []int64
	Floats []float64
}

// NewColumn returns a column of kind holding n zero values, for Set to fill.
func NewColumn(name string, kind value.Kind, n int) *Column {
	c := &Column{Name: name, Kind: kind}
	switch kind {
	case value.KindString:
		c.Strs = make([]string, n)
	case value.KindInt64:
		c.Ints = make([]int64, n)
	case value.KindFloat64:
		c.Floats = make([]float64, n)
	}
	return c
}

// Set stores v, which must be of the column's kind, at row i.
func (c *Column) Set(i int, v value.Value) {
	switch c.Kind {
	case value.KindString:
		c.Strs[i] = v.Str()
	case value.KindInt64:
		c.Ints[i] = v.Int()
	default:
		c.Floats[i] = v.Float()
	}
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case value.KindString:
		return len(c.Strs)
	case value.KindInt64:
		return len(c.Ints)
	case value.KindFloat64:
		return len(c.Floats)
	}
	return 0
}

// Value returns the value at row i.
func (c *Column) Value(i int) value.Value {
	switch c.Kind {
	case value.KindString:
		return value.String(c.Strs[i])
	case value.KindInt64:
		return value.Int64(c.Ints[i])
	case value.KindFloat64:
		return value.Float64(c.Floats[i])
	}
	panic("table: column with invalid kind")
}

// Rank maps every row to an order-preserving dense id — the rank of its
// value among the column's distinct values, so two rows' ids compare as
// value.Compare compares their values — and returns those distinct
// values, ascending, as a column of the same kind whose payload has no
// spare capacity. Strings rank through a map; numbers by sort-and-dedupe.
// Values that Compare calls equal share an id: −0 and +0 are one value
// (distinct holds the one in the first such row), and so are all NaNs, which rank
// below every number.
func (c *Column) Rank() (ids []uint32, distinct *Column) {
	distinct = &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case value.KindString:
		ids, distinct.Strs = rankStrings(c.Strs)
	case value.KindInt64:
		ids, distinct.Ints = rankSorted(c.Ints, int64Key)
	case value.KindFloat64:
		ids, distinct.Floats = rankSorted(c.Floats, float64Key)
	default:
		panic("table: column with invalid kind")
	}
	return ids, distinct
}

func rankStrings(vals []string) ([]uint32, []string) {
	ranks := make(map[string]uint32, 1024)
	for _, v := range vals {
		ranks[v] = 0
	}
	sorted := make([]string, 0, len(ranks))
	for v := range ranks {
		sorted = append(sorted, v)
	}
	slices.Sort(sorted)
	for i, v := range sorted {
		ranks[v] = uint32(i)
	}
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = ranks[v]
	}
	return ids, sorted
}

// rankSorted ranks numbers by sort-and-dedupe: a stable LSD radix sort of
// (order key, row) pairs, a byte a pass and no pass for a byte every key
// shares, then one walk that numbers the distinct keys. Equal keys keep
// row order, so distinct holds each value as its first row has it.
func rankSorted[T int64 | float64](vals []T, key func(T) uint64) ([]uint32, []T) {
	n := len(vals)
	keys, rows := make([]uint64, n), make([]uint32, n)
	var hist [8][256]uint32
	for i, v := range vals {
		k := key(v)
		keys[i], rows[i] = k, uint32(i)
		for d := range hist {
			hist[d][byte(k>>(8*d))]++
		}
	}
	keys2, rows2 := make([]uint64, n), make([]uint32, n)
	for d := range hist {
		if n == 0 || hist[d][byte(keys[0]>>(8*d))] == uint32(n) {
			continue
		}
		var at uint32
		for b, c := range hist[d] {
			hist[d][b] = at
			at += c
		}
		for i, k := range keys {
			j := &hist[d][byte(k>>(8*d))]
			keys2[*j], rows2[*j] = k, rows[i]
			*j++
		}
		keys, keys2, rows, rows2 = keys2, keys, rows2, rows
	}
	card := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			card++
		}
	}
	ids, distinct := make([]uint32, n), make([]T, 0, card)
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct = append(distinct, vals[rows[i]])
		}
		ids[rows[i]] = uint32(len(distinct) - 1)
	}
	return ids, distinct
}

// int64Key orders int64s as uint64s.
func int64Key(v int64) uint64 { return uint64(v) ^ 1<<63 }

// float64Key orders float64s as uint64s, with −0 and +0 one key and every
// NaN one key below −Inf.
func float64Key(v float64) uint64 {
	switch {
	case v != v:
		return 0
	case v == 0:
		v = 0
	}
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// Table is a named set of equally long columns.
type Table struct {
	Name string
	Cols []*Column
}

// New creates an empty table.
func New(name string) *Table { return &Table{Name: name} }

// AddStringColumn appends a string column; vals must match the current row
// count if other columns exist.
func (t *Table) AddStringColumn(name string, vals []string) *Table {
	t.addColumn(&Column{Name: name, Kind: value.KindString, Strs: vals})
	return t
}

// AddInt64Column appends an int64 column.
func (t *Table) AddInt64Column(name string, vals []int64) *Table {
	t.addColumn(&Column{Name: name, Kind: value.KindInt64, Ints: vals})
	return t
}

// AddFloat64Column appends a float64 column.
func (t *Table) AddFloat64Column(name string, vals []float64) *Table {
	t.addColumn(&Column{Name: name, Kind: value.KindFloat64, Floats: vals})
	return t
}

func (t *Table) addColumn(c *Column) {
	if len(t.Cols) > 0 && c.Len() != t.NumRows() {
		panic(fmt.Sprintf("table: column %q has %d rows, table has %d", c.Name, c.Len(), t.NumRows()))
	}
	for _, existing := range t.Cols {
		if existing.Name == c.Name {
			panic(fmt.Sprintf("table: duplicate column %q", c.Name))
		}
	}
	t.Cols = append(t.Cols, c)
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// Permute returns a new table with rows reordered so that new row i holds
// old row perm[i]. It panics if perm is not a permutation of the row
// indices — reordering must never silently drop or duplicate rows.
func (t *Table) Permute(perm []int) *Table {
	n := t.NumRows()
	if len(perm) != n {
		panic(fmt.Sprintf("table: permutation has %d entries for %d rows", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic("table: invalid permutation")
		}
		seen[p] = true
	}
	out := New(t.Name)
	for _, c := range t.Cols {
		switch c.Kind {
		case value.KindString:
			vals := make([]string, n)
			for i, p := range perm {
				vals[i] = c.Strs[p]
			}
			out.AddStringColumn(c.Name, vals)
		case value.KindInt64:
			vals := make([]int64, n)
			for i, p := range perm {
				vals[i] = c.Ints[p]
			}
			out.AddInt64Column(c.Name, vals)
		case value.KindFloat64:
			vals := make([]float64, n)
			for i, p := range perm {
				vals[i] = c.Floats[p]
			}
			out.AddFloat64Column(c.Name, vals)
		}
	}
	return out
}

// Select returns a new table holding the given rows (in the given order),
// used for sharding. Indices may repeat; callers that need a permutation
// use Permute.
func (t *Table) Select(rows []int) *Table {
	out := New(t.Name)
	for _, c := range t.Cols {
		switch c.Kind {
		case value.KindString:
			vals := make([]string, len(rows))
			for i, p := range rows {
				vals[i] = c.Strs[p]
			}
			out.AddStringColumn(c.Name, vals)
		case value.KindInt64:
			vals := make([]int64, len(rows))
			for i, p := range rows {
				vals[i] = c.Ints[p]
			}
			out.AddInt64Column(c.Name, vals)
		case value.KindFloat64:
			vals := make([]float64, len(rows))
			for i, p := range rows {
				vals[i] = c.Floats[p]
			}
			out.AddFloat64Column(c.Name, vals)
		}
	}
	return out
}

// Shard splits the table into n shards by striping rows quasi-randomly
// (row i goes to shard determined by a multiplicative hash of i). This is
// the Section 4 layout: sharding first for load balance, partitioning into
// chunks afterwards per shard.
func (t *Table) Shard(n int) []*Table {
	if n <= 0 {
		panic(fmt.Sprintf("table: invalid shard count %d", n))
	}
	rowSets := make([][]int, n)
	for i := 0; i < t.NumRows(); i++ {
		s := int((uint64(i) * 0x9e3779b97f4a7c15) >> 33 % uint64(n))
		rowSets[s] = append(rowSets[s], i)
	}
	out := make([]*Table, n)
	for i, rows := range rowSets {
		out[i] = t.Select(rows)
		out[i].Name = fmt.Sprintf("%s.shard%d", t.Name, i)
	}
	return out
}

// Row materializes row i as values (for baselines and tests).
func (t *Table) Row(i int) []value.Value {
	out := make([]value.Value, len(t.Cols))
	for j, c := range t.Cols {
		out[j] = c.Value(i)
	}
	return out
}
