package cluster

// Mixer is the paper's intermediate serving-tree node made real: an inner
// node that answers PartialQuery exactly like a leaf, but computes the
// answer by fanning the sub-query out to its children — leaves or deeper
// mixers — with the same dispatch machinery the coordinator uses, and
// merging the child partials into one. Because a Mixer satisfies Leaf
// (and RowCounter), trees compose recursively: a parent cannot tell a
// mixer from a leaf, in-process or across the wire (ServeNode registers
// the identical RPC surface under both the "Leaf" and "Mixer" names).

import (
	"context"
	"fmt"

	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
)

// Mixer is an inner node of the serving tree.
type Mixer struct {
	dispatcher
	name string
}

// NewMixer builds an inner node over childSets; childSets[i] holds the
// replicas of child subtree i (replica mixers are legal — two mixers over
// the same leaves hedge each other the way leaf replicas do).
func NewMixer(name string, childSets [][]Leaf, opts Options) *Mixer {
	m := &Mixer{name: name}
	m.setChildren(childSets, opts)
	return m
}

// Name implements Leaf.
func (m *Mixer) Name() string { return m.name }

// PartialQuery implements Leaf: gather the children's partials and return
// ONE merged partial — unfinalized, so the parent keeps merging (AVG
// division, ORDER BY and LIMIT happen once, at the root). Children that
// never answered are charged to the stats (RowsTotal grows, RowsCovered
// does not), which is how a leaf death three levels down still shows up
// in the root's Coverage; the error is non-nil only when not a single
// child answered, or when the text is longer than any child would parse.
func (m *Mixer) PartialQuery(ctx context.Context, sqlText string) (*exec.Partial, error) {
	if err := sql.CheckLength(sqlText); err != nil {
		return nil, err
	}
	if m.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.Deadline)
		defer cancel()
	}
	merged, missing, err := m.gather(ctx, sqlText)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.Queries++
	if len(missing) > 0 {
		m.stats.PartialAnswers++
	}
	m.mu.Unlock()
	return merged, nil
}

// NumRows implements RowCounter: the rows this subtree should span — the
// sum over every child, asking unknown ones through their own Stat path.
// It errors while any child's count is unknown rather than undercount,
// so a parent never learns a too-small total for coverage accounting.
func (m *Mixer) NumRows(ctx context.Context) (int64, error) {
	m.refreshRows(ctx)
	var total int64
	for i, s := range m.shards {
		n := s.knownRows()
		if n <= 0 {
			return 0, fmt.Errorf("cluster: mixer %s: child %d row count unknown", m.name, i)
		}
		total += n
	}
	return total, nil
}
