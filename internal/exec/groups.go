package exec

// groupTable is a query's merged accumulator state, kept in id space: one
// pointer-free []accCell slab holding na cells per group, addressed through a slot
// table indexed by the group's global-id. The table's size is the group
// dictionary's cardinality, known from the plan, so finding a group is an
// array access — no hashing, no per-group allocation — and walking the
// table front to back visits the groups in ascending global-id order,
// which (the dictionary being sorted) is ascending key order.
type groupTable struct {
	na int
	// slot maps a group global-id to 1 + its position in the slab; 0 means
	// the group has received no partial yet.
	slot []int32
	// cells holds group s's accumulators at [s*na, (s+1)*na), in the order
	// groups were first merged.
	cells []accCell
	// distinct holds the COUNT(DISTINCT) state beside cells, for a plan
	// that has a DISTINCT aggregate; nil for any other.
	distinct []distinctCell
	n        int // groups present
}

// newGroupTable sizes the table for a plan: card is the group dictionary's
// cardinality (1 for a global aggregate) and groupsHint an upper bound on
// the groups the partials can contribute, so the slab is allocated once.
func newGroupTable(card, na, groupsHint int, hasDistinct bool) *groupTable {
	if groupsHint > card {
		groupsHint = card
	}
	t := &groupTable{
		na:    na,
		slot:  make([]int32, card),
		cells: make([]accCell, 0, groupsHint*na),
	}
	if hasDistinct {
		t.distinct = make([]distinctCell, 0, groupsHint*na)
	}
	return t
}

// merge folds one chunk partial into the table. Cells are merged into
// zeroed slab cells, never copied: cached partials are shared between
// queries and workers, and a copied distinct cell would alias its sketch.
func (t *groupTable) merge(part *partial) {
	na := t.na
	for i, gid := range part.gids {
		s := t.slot[gid]
		if s == 0 {
			t.n++
			s = int32(t.n)
			t.slot[gid] = s
			for j := 0; j < na; j++ {
				t.cells = append(t.cells, accCell{})
				if t.distinct != nil {
					t.distinct = append(t.distinct, distinctCell{})
				}
			}
		}
		dst := t.cells[int(s-1)*na : int(s)*na]
		for j := range dst {
			dst[j].merge(&part.accs[i*na+j])
		}
		if t.distinct != nil {
			dst := t.distinct[int(s-1)*na : int(s)*na]
			for j := range dst {
				dst[j].merge(&part.distinct[i*na+j])
			}
		}
	}
}

// cell returns aggregate j's accumulator of a group present in the table.
func (t *groupTable) cell(gid uint32, j int) *accCell {
	return &t.cells[(int(t.slot[gid])-1)*t.na+j]
}

// distinctCell returns the COUNT(DISTINCT) state beside cell(gid, j), in a
// plan that has a DISTINCT aggregate.
func (t *groupTable) distinctCell(gid uint32, j int) *distinctCell {
	return &t.distinct[(int(t.slot[gid])-1)*t.na+j]
}

// gids returns the groups present, in ascending global-id order.
func (t *groupTable) gids() []uint32 {
	out := make([]uint32, 0, t.n)
	for gid, s := range t.slot {
		if s != 0 {
			out = append(out, uint32(gid))
		}
	}
	return out
}
