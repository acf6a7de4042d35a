package main

import (
	"net"

	"powerdrill"
	"powerdrill/internal/cluster"
	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/ingest"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
)

// answer is one query's reply as the benchmark keeps it.
type answer struct {
	rows     [][]powerdrill.Value
	stats    powerdrill.QueryStats
	coverage float64
}

// counters are the cumulative counters a store exports; zero where the store
// has no such layer (a built store reads no disk, a store without a result
// cache has no cache counters).
type counters struct {
	io    powerdrill.IOStats
	mem   powerdrill.MemoryStats
	cache powerdrill.CacheStats
}

// node is one store as the workloads drive it. A timed run uses the public
// powerdrill.Store (pubNode), exactly what a user of the library calls. A
// traced run assembles the same store from the internal packages (engNode) so
// that it can call the steps of a query one by one and put a span around each.
type node interface {
	query(q string, parent *span) (*answer, error)
	appendRows(tbl *powerdrill.Table, parent *span) error
	// settle seals the write buffer and folds the ingest segments into one.
	settle(parent *span) error
	ingestStats() powerdrill.IngestStats
	serve(l net.Listener) error
	counters() counters
	close() error
}

// engine is what differs between the stores of the workloads; the import
// options (options) are the same for all.
type engine struct {
	budget     int64 // resident-byte budget of a store opened from disk; 0 = unlimited
	cacheBytes int64 // result cache; 0 = off
	sequential bool  // Parallelism 1: the reference the answers are checked against
}

func (c *config) options(e engine) powerdrill.Options {
	o := powerdrill.Options{
		PartitionFields:   []string{"country", "table_name"},
		MaxChunkRows:      c.chunkRows,
		OptimizeElements:  true,
		ResultCacheBytes:  e.cacheBytes,
		MemoryBudgetBytes: e.budget,
	}
	if e.sequential {
		o.Parallelism = 1
	}
	return o
}

// build imports a table into a resident store.
func (c *config) build(tbl *powerdrill.Table, e engine, tr *tracer) (node, error) {
	o := c.options(e)
	if tr == nil {
		s, err := powerdrill.Build(tbl, o)
		if err != nil {
			return nil, err
		}
		return pubNode{s}, nil
	}
	cs, err := colstore.FromTable(tbl, colstore.Options{
		PartitionFields:  o.PartitionFields,
		MaxChunkRows:     o.MaxChunkRows,
		OptimizeElements: o.OptimizeElements,
	})
	if err != nil {
		return nil, err
	}
	return &engNode{cs: cs, eng: exec.New(cs, engineOptions(o)), tr: tr}, nil
}

// open opens a saved store lazily; with appends it also attaches the ingest
// path, as powerdrill.Open and the first Append would.
func (c *config) open(dir string, e engine, appends bool, tr *tracer, parent *span) (node, error) {
	o := c.options(e)
	sp := tr.start("colstore.open", parent)
	defer sp.end()
	if tr == nil {
		s, _, err := powerdrill.Open(dir, o)
		if err != nil {
			return nil, err
		}
		return pubNode{s}, nil
	}
	cs, _, err := colstore.OpenLazy(dir, memmgr.New(o.MemoryBudgetBytes, o.MemoryPolicy))
	if err != nil {
		return nil, err
	}
	n := &engNode{cs: cs, eng: exec.New(cs, engineOptions(o)), tr: tr}
	if appends {
		n.w, err = ingest.Attach(dir, cs, n.eng, ingest.Opts{EngineOpts: engineOptions(o)})
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

func engineOptions(o powerdrill.Options) exec.Options {
	return exec.Options{ResultCacheBytes: o.ResultCacheBytes, Parallelism: o.Parallelism}
}

// pubNode is the public API, untraced.
type pubNode struct{ s *powerdrill.Store }

func (n pubNode) query(q string, _ *span) (*answer, error) {
	res, err := n.s.Query(q)
	if err != nil {
		return nil, err
	}
	return &answer{rows: res.Rows, stats: res.Stats, coverage: res.Coverage}, nil
}

func (n pubNode) appendRows(tbl *powerdrill.Table, _ *span) error { return n.s.Append(tbl) }

func (n pubNode) settle(*span) error {
	if err := n.s.Flush(); err != nil {
		return err
	}
	_, err := n.s.CompactNow()
	return err
}

func (n pubNode) ingestStats() powerdrill.IngestStats {
	st, _ := n.s.IngestStats()
	return st
}

func (n pubNode) serve(l net.Listener) error { return powerdrill.ServeShard(l, n.s) }

func (n pubNode) counters() counters {
	var c counters
	c.io, _ = n.s.IOStats()
	c.mem, _ = n.s.MemStats()
	c.cache, _ = n.s.ResultCacheStats()
	return c
}

func (n pubNode) close() error { return n.s.Close() }

// engNode is the same store assembled from colstore, exec and ingest, with a
// span around every call into them.
type engNode struct {
	cs  *colstore.Store
	eng *exec.Engine
	w   *ingest.Writer // nil without an append path
	tr  *tracer
}

// query runs the steps of Engine.Query (Store.Query with an append path) one
// by one: parse, then either snapshot + run, or run-partial + finalize; a row
// scan has no partial form and runs whole. The query span carries what the
// query did to each layer, as the difference of the store's counters.
func (n *engNode) query(q string, parent *span) (*answer, error) {
	qs := n.tr.start("query", parent)
	defer qs.end()
	before := n.counters()

	sp := n.tr.start("sql.parse", qs)
	stmt, err := sql.Parse(q)
	sp.end()
	if err != nil {
		return nil, err
	}
	var res *exec.Result
	switch {
	case n.w != nil:
		sp = n.tr.start("ingest.snapshot", qs)
		snap, serr := n.w.Snapshot()
		sp.end()
		if serr != nil {
			return nil, serr
		}
		sp = n.tr.start("ingest.snapshot_run", qs)
		res, err = snap.Run(stmt)
		sp.end()
		snap.Release()
	case isRowScan(stmt):
		sp = n.tr.start("exec.run", qs)
		res, err = n.eng.Run(stmt)
		sp.end()
	default:
		sp = n.tr.start("exec.run_partial", qs)
		part, perr := n.eng.RunPartial(stmt)
		sp.end()
		if perr != nil {
			return nil, perr
		}
		sp = n.tr.start("exec.finalize", qs)
		res, err = exec.FinalizePartial(stmt, part)
		sp.end()
	}
	if err != nil {
		return nil, err
	}
	qs.Counts = queryCounts(res.Stats, before, n.counters())
	return &answer{rows: res.Rows, stats: res.Stats, coverage: res.Coverage}, nil
}

func isRowScan(stmt *sql.SelectStmt) bool {
	for _, item := range stmt.Items {
		if sql.HasAggregate(item.Expr) {
			return false
		}
	}
	return len(stmt.GroupBy) == 0
}

func (n *engNode) appendRows(tbl *powerdrill.Table, parent *span) error {
	sp := n.tr.start("ingest.append", parent)
	defer sp.end()
	sp.Counts = &counts{Rows: int64(tbl.NumRows())}
	return n.w.Append(tbl)
}

func (n *engNode) settle(parent *span) error {
	sp := n.tr.start("ingest.flush", parent)
	err := n.w.Flush()
	sp.end()
	if err != nil {
		return err
	}
	sp = n.tr.start("ingest.compact_now", parent)
	_, err = n.w.CompactNow()
	sp.end()
	return err
}

func (n *engNode) ingestStats() powerdrill.IngestStats {
	if n.w == nil {
		return powerdrill.IngestStats{}
	}
	return n.w.Stats()
}

func (n *engNode) serve(l net.Listener) error { return cluster.Serve(l, n.eng) }

func (n *engNode) counters() counters {
	var c counters
	c.io, _ = n.cs.IOStats()
	if mgr := n.cs.MemManager(); mgr != nil {
		c.mem = mgr.Stats()
	}
	c.cache, _ = n.eng.CacheStats()
	return c
}

func (n *engNode) close() error {
	var err error
	if n.w != nil {
		err = n.w.Close()
	}
	if cerr := n.cs.Close(); err == nil {
		err = cerr
	}
	return err
}
