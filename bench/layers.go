package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"powerdrill"
	"powerdrill/internal/cluster"
	"powerdrill/internal/exec"
)

// layerMetrics computes the per-layer table of a traced run from its spans
// and from the differences of the counters the program exports. Only spans
// inside timed clicks count, except the set-up's open and save calls.
func layerMetrics(rep *report, spans []*span, clicks []clickRec, before, after counters, app *appender, samples []ingestSample) {
	durs := map[string][]float64{} // span name → durations in ns
	var total counts
	for _, s := range spans {
		if s.Click > 0 || s.Name == "colstore.open" || s.Name == "colstore.save" || s.Name == "ingest.append" {
			durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		}
		if s.Click > 0 || s.Name == "ingest.append" {
			total.add(s.Counts)
		}
	}
	p90 := func(name string) float64 {
		v, _ := percentile(durs[name], 90) // 0 when too few samples
		return v
	}

	rep.set("sql.parse_us", median(durs["sql.parse"])/1e3)
	rep.set("exec.run_partial_p50_ms", median(durs["exec.run_partial"])/1e6)
	rep.set("exec.run_partial_p90_ms", p90("exec.run_partial")/1e6)
	rep.set("exec.finalize_us", median(durs["exec.finalize"])/1e3)
	rep.set("exec.row_scan_ms", median(durs["exec.run"])/1e6)
	scanNs := sum(durs["exec.run_partial"]) + sum(durs["exec.run"]) + sum(durs["ingest.snapshot_run"])
	rep.set("exec.scan_ns_per_row", ratio(scanNs, float64(total.RowsScanned)))
	rows := float64(total.RowsSkipped + total.RowsCached + total.RowsScanned)
	rep.set("exec.skipped_frac", ratio(float64(total.RowsSkipped), rows))
	rep.set("exec.cached_frac", ratio(float64(total.RowsCached), rows))
	rep.set("exec.scanned_frac", ratio(float64(total.RowsScanned), rows))
	rep.set("exec.kernel_chunk_frac", ratio(float64(total.KernelChunks), float64(total.KernelChunks+total.ScalarChunks)))

	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	rep.set("cache.hit_rate", ratio(float64(hits), float64(hits+misses)))
	rep.set("cache.evictions", float64(after.cache.Evictions-before.cache.Evictions))

	rep.set("colstore.cold_loads", float64(total.ColdLoads))
	rep.set("colstore.disk_bytes_read", float64(total.DiskBytesRead))
	rep.set("colstore.read_calls", float64(total.ReadCalls))
	rep.set("colstore.coalesced_frac", ratio(float64(total.CoalescedReads), float64(total.CoalescedReads+total.ReadRuns)))
	rep.set("colstore.decompress_ms", float64(total.DecompressNanos)/1e6)
	rep.set("colstore.checksum_verified", float64(total.ChecksumVerified))
	rep.set("colstore.open_ms", median(durs["colstore.open"])/1e6)
	rep.set("colstore.save_ms", median(durs["colstore.save"])/1e6)

	rep.set("memmgr.hit_rate", ratio(float64(total.MemHits), float64(total.MemHits+total.MemColdLoads)))
	rep.set("memmgr.evictions", float64(total.Evictions))
	rep.set("memmgr.evicted_bytes", float64(total.EvictedBytes))
	rep.set("memmgr.resident_bytes", float64(after.mem.ResidentBytes))

	if app != nil {
		app.report(rep.metrics, "ingest.")
		rep.set("ingest.append_us_per_row", ratio(sum(durs["ingest.append"])/1e3, float64(total.Rows)))
		rep.set("ingest.snapshot_us", median(durs["ingest.snapshot"])/1e3)
		rep.set("ingest.snapshot_run_ms", median(durs["ingest.snapshot_run"])/1e6)
		ingestMetrics(rep, clicks, samples)
	}

	rep.set("trace.click_p50_ms", median(clickMs(clicks)))
	rep.set("trace.clicks", float64(len(clicks)))
	rep.set("trace.spans", float64(len(spans)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ingestSample is the append path's state at one instant.
type ingestSample struct {
	at time.Time
	st powerdrill.IngestStats
}

// sampler reads IngestStats every 100 ms while a traced click-ingest runs.
type sampler struct {
	quit, done chan struct{}
	samples    []ingestSample
}

func startSampler(store node) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	take := func() { s.samples = append(s.samples, ingestSample{time.Now(), store.ingestStats()}) }
	take()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				take()
			case <-s.quit:
				take()
				return
			}
		}
	}()
	return s
}

// stop takes a last sample and returns them all; nil-safe.
func (s *sampler) stop() []ingestSample {
	if s == nil {
		return nil
	}
	close(s.quit)
	<-s.done
	return s.samples
}

// compactAt is the segment count at which the background compactor starts
// (the library's default IngestCompactMinSegments).
const compactAt = 4

// ingestMetrics counts seals and compactions and splits the clicks into
// quiet ones and ones that overlapped maintenance. From outside, maintenance
// shows only in the counters: an interval between two samples is busy when a
// seal or a compaction finished in it, when sealed rows were waiting to be
// committed, or when enough segments were live for the compactor to be due.
func ingestMetrics(rep *report, clicks []clickRec, samples []ingestSample) {
	first, last := samples[0].st, samples[len(samples)-1].st
	rep.set("ingest.seals", float64(last.Seals-first.Seals))
	rep.set("ingest.compactions", float64(last.Compactions-first.Compactions))
	segMax := 0
	type interval struct{ from, to time.Time }
	var busy []interval
	for i, s := range samples {
		segMax = max(segMax, s.st.Segments)
		if i == 0 {
			continue
		}
		prev := samples[i-1].st
		if s.st.Seals != prev.Seals || s.st.Compactions != prev.Compactions ||
			s.st.SealingRows > 0 || prev.SealingRows > 0 || s.st.Segments >= compactAt || prev.Segments >= compactAt {
			busy = append(busy, interval{samples[i-1].at, s.at})
		}
	}
	rep.set("ingest.segments_max", float64(segMax))

	t0 := samples[0].at // the sampler starts just before the timed phase; close enough for 100 ms intervals
	var quiet, during []float64
	for _, c := range clicks {
		from, to := t0.Add(c.start), t0.Add(c.end)
		overlaps := false
		for _, b := range busy {
			if from.Before(b.to) && b.from.Before(to) {
				overlaps = true
				break
			}
		}
		if overlaps {
			during = append(during, c.ms())
		} else {
			quiet = append(quiet, c.ms())
		}
	}
	rep.set("ingest.click_ms_quiet", median(quiet))
	rep.set("ingest.click_ms_maintenance", median(during))
}

// fanOut calls fn for children 0..n-1 at once, as a tree node does, and
// returns how long each took and the first error.
func fanOut(n int, fn func(i int) error) ([]int64, error) {
	durs := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = fn(i)
			durs[i] = int64(time.Since(t0))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return durs, err
		}
	}
	return durs, nil
}

// The levels of the tree, bottom up, as a traced run times them.
const (
	levelEngine  = iota // the leaf engines, called in-process
	levelLeafRPC        // the same leaves through their RPC servers
	levelMixer          // the mixers through theirs
	levelRoot           // the whole tree
	levels
)

// wireTimes are the costs of moving one query's partials, timed on the
// partials the leaves returned.
type wireTimes struct {
	encodeUs, decodeUs, mergeUs, bytes []float64
}

// levelPass is one pass of a traced click-tree run: the sessions sent to one
// level of a freshly started tree.
type levelPass struct {
	level   int
	d       *deployment
	remotes []*cluster.RemoteLeaf // the level's nodes, for the two RPC levels
	// Once record is set (after the warm-up), durs gets one entry per query:
	// how long each of the level's nodes took.
	record bool
	durs   [][]int64
	wire   *wireTimes
}

func newLevelPass(level int, d *deployment, wire *wireTimes) *levelPass {
	lp := &levelPass{level: level, d: d, wire: wire}
	switch level {
	case levelLeafRPC:
		for _, replicas := range d.leafAddrs {
			lp.remotes = append(lp.remotes, cluster.NewRemoteLeaf(replicas[0]))
		}
	case levelMixer:
		for _, addr := range d.mixerAddrs {
			lp.remotes = append(lp.remotes, cluster.NewRemoteLeaf(addr))
		}
	}
	return lp
}

// ask sends q to every node of the level at once, as the level above would.
// Only the root returns a finished answer.
func (lp *levelPass) ask(q string, parent *span) (*answer, error) {
	a := &answer{coverage: 1}
	var ds []int64
	var err error
	switch lp.level {
	case levelEngine:
		ds, err = fanOut(treeShards, func(i int) error {
			_, err := lp.d.stores[i*treeReplicas].query(q, parent) // replica 0, the one the mixers ask first
			return err
		})
	case levelRoot:
		t0 := time.Now()
		a, err = lp.d.ask(q, parent)
		ds = []int64{int64(time.Since(t0))}
	default:
		parts := make([]*exec.Partial, len(lp.remotes))
		ds, err = fanOut(len(lp.remotes), func(i int) (err error) {
			parts[i], err = lp.remotes[i].PartialQuery(context.Background(), q)
			return err
		})
		if lp.record && err == nil && lp.level == levelLeafRPC {
			err = lp.wire.time(parts)
		}
	}
	if lp.record {
		lp.durs = append(lp.durs, ds)
	}
	return a, err
}

func (lp *levelPass) close() {
	for _, r := range lp.remotes {
		r.Close()
	}
	lp.d.close()
}

// traceTree times each level of the tree in a pass of its own over the same
// sessions, each against a freshly started tree, so the result caches are in
// the same state for a given query in every pass. A level's self time is its
// time minus the slowest child in the pass below — the same arithmetic as
// selfTime, on spans synthesized from the four passes.
func traceTree(c *config, w workload, dir string, rep *report) error {
	var (
		durs            [levels][][]int64
		engine          *tracer // the engine pass's real spans
		rootPass        *phase
		wire            wireTimes
		before, after   counters
		hedges, retries int64
		sessions        int
	)
	for level := 0; level < levels; level++ {
		tr := newTracer()
		d, err := w.setup(c, filepath.Join(dir, fmt.Sprint("level", level)), tr, tr.start("setup", nil))
		if err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		lp := newLevelPass(level, d, &wire)
		warm := phase{t0: time.Now()}
		warm.runSession(lp.ask, d.sessions.session(0), 0, nil, rep)
		lp.record = true

		// The engine pass runs for its share of the time; the others repeat
		// its sessions.
		more := func(done int, _ time.Duration) bool { return done < sessions }
		var clickTr *tracer
		if level == levelEngine {
			engine, clickTr = tr, tr
			share := *c
			share.seconds /= levels
			more = share.untilDone
		}
		if level == levelRoot {
			before = d.counters()
			hedges, retries = d.dispatchCounts()
		}
		p := timed(d.sessions, lp.ask, more, clickTr, rep)
		if level == levelEngine {
			sessions = len(p.clicks) / clicksPerSession
		}
		if level == levelRoot {
			after = d.counters()
			h, r := d.dispatchCounts()
			hedges, retries = h-hedges, r-retries
			rootPass = p
		}
		durs[level] = lp.durs
		lp.close()
	}
	rep.sessions, rep.clicks = sessions, len(rootPass.clicks)
	checkAgainstReference(c, w, rootPass.clicks, rep)

	levelSpans := synthesize(durs, len(engine.spans))
	spans := append(append([]*span(nil), engine.spans...), levelSpans...)
	layerMetrics(rep, spans, rootPass.clicks, before, after, nil, nil)
	kids := childrenOf(levelSpans)
	self := map[string][]float64{}
	for _, s := range levelSpans {
		self[s.Name] = append(self[s.Name], float64(selfTime(s, kids[s.ID])))
	}
	rep.set("cluster.rpc_overhead_ms", median(self["cluster.leaf_rpc"])/1e6)
	rep.set("cluster.mixer_self_ms", median(self["cluster.mixer"])/1e6)
	rep.set("cluster.root_self_ms", median(self["cluster.root"])/1e6)
	rep.set("cluster.wire_encode_us", median(wire.encodeUs))
	rep.set("cluster.wire_decode_us", median(wire.decodeUs))
	rep.set("cluster.merge_us", median(wire.mergeUs))
	rep.set("cluster.partial_bytes", median(wire.bytes))
	rep.set("cluster.hedges", float64(hedges))
	rep.set("cluster.retries", float64(retries))
	return writeTrace(c.outDir, traceFile{Workload: w.name, Host: host(c), Metrics: rep.metrics, Spans: spans})
}

// dispatchCounts sums the hedges and retries of the root and the mixers.
func (d *deployment) dispatchCounts() (hedges, retries int64) {
	st := d.root.Stats()
	hedges, retries = st.Hedges, st.Retries
	for _, m := range d.mixers {
		st := m.Stats()
		hedges += st.Hedges
		retries += st.Retries
	}
	return hedges, retries
}

// time encodes, decodes and merges one query's leaf partials the way the
// tree does (two leaves per mixer, two mixers at the root).
func (w *wireTimes) time(parts []*exec.Partial) error {
	copies := make([]*exec.Partial, len(parts))
	for i, p := range parts {
		t0 := time.Now()
		blob := exec.EncodePartial(p)
		enc := time.Since(t0)
		t0 = time.Now()
		cp, err := exec.DecodePartial(blob)
		if err != nil {
			return err
		}
		w.decodeUs = append(w.decodeUs, float64(time.Since(t0))/1e3)
		w.encodeUs = append(w.encodeUs, float64(enc)/1e3)
		w.bytes = append(w.bytes, float64(len(blob)))
		copies[i] = cp
	}
	t0 := time.Now()
	per := treeShards / treeMixers
	for m := 0; m < treeMixers; m++ {
		for _, p := range copies[m*per+1 : (m+1)*per] {
			if err := exec.MergePartials(copies[m*per], p); err != nil {
				return err
			}
		}
		if m > 0 {
			if err := exec.MergePartials(copies[0], copies[m*per]); err != nil {
				return err
			}
		}
	}
	w.mergeUs = append(w.mergeUs, float64(time.Since(t0))/1e3)
	return nil
}

// synthesize lays the four passes' durations of each query over one another
// as a span tree — root over mixers over leaf RPCs over leaf engines, all
// starting together — so that selfTime gives each level's own share. Queries
// are laid end to end on the root pass's time line.
func synthesize(durs [levels][][]int64, firstID int) []*span {
	var out []*span
	add := func(name string, parent *span, click int, start, dur int64) *span {
		s := &span{ID: firstID + len(out) + 1, Name: name, Click: click, Start: start, End: start + dur}
		if parent != nil {
			s.Parent = parent.ID
		}
		out = append(out, s)
		return s
	}
	per := treeShards / treeMixers
	at := int64(0)
	for q := range durs[levelRoot] {
		click := q/queriesPerClick + 1
		root := add("cluster.root", nil, click, at, durs[levelRoot][q][0])
		for m := 0; m < treeMixers; m++ {
			mixer := add("cluster.mixer", root, click, at, durs[levelMixer][q][m])
			for i := m * per; i < (m+1)*per; i++ {
				rpc := add("cluster.leaf_rpc", mixer, click, at, durs[levelLeafRPC][q][i])
				add("cluster.leaf_engine", rpc, click, at, durs[levelEngine][q][i])
			}
		}
		at = root.End
	}
	return out
}
