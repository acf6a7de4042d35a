package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"powerdrill"
)

// config is one run's size and schedule. The full size is fixed in main;
// -smoke shrinks it.
type config struct {
	rows      int
	chunkRows int // MaxChunkRows, a hundredth of rows: 100 chunks and more
	seed      int64
	// The timed phase clicks through whole sessions until seconds have
	// passed and minSessions are done (104 clicks, the fewest for which the
	// p90 has ten samples beyond it).
	seconds     float64
	minSessions int
	// setupReps is how many times the deployment is set up; setup_s is the
	// median and the last one is used.
	setupReps int
	// The appender's schedule: one batch of batchRows every batchEvery.
	batchRows  int
	batchEvery time.Duration
	workDir    string // scratch space for store directories
	outDir     string // where traced runs leave their span files
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	sessions  int
	clicks    int
	attempted int
	failed    int
	problems  []string          // the first few failures, for the reader
	metrics   map[string]metric // end-to-end (untraced run) or per-layer (traced run)
	diag      map[string]metric // printed, not bounded
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// clickRec is one timed click.
type clickRec struct {
	session, pos int
	start, end   time.Duration // since the phase began
	rows         [][][]powerdrill.Value
}

func (c clickRec) ms() float64 { return ms(int64(c.end - c.start)) }

// phase is a run of sessions against one deployment.
type phase struct {
	t0     time.Time
	clicks []clickRec
	cells  int64
	wall   time.Duration
	// afterClick, if set, runs between clicks (the warm-up measures the heap there).
	afterClick func()
}

func clickMs(clicks []clickRec) []float64 {
	out := make([]float64, len(clicks))
	for i, c := range clicks {
		out[i] = c.ms()
	}
	return out
}

// runSession sends one session's clicks, each click's queries back to back,
// the next click only after the last reply: one user, closed loop. Click
// latency runs from the first send to the last reply.
func (p *phase) runSession(ask func(string, *span) (*answer, error), sess []click, si int, tr *tracer, rep *report) {
	for pos, c := range sess {
		cs := tr.start("click", nil)
		if cs != nil {
			cs.Click = len(p.clicks) + 1
		}
		rec := clickRec{session: si, pos: pos, start: time.Since(p.t0), rows: make([][][]powerdrill.Value, len(c.queries))}
		for qi, q := range c.queries {
			rep.attempted++
			a, err := ask(q, cs)
			switch {
			case err != nil:
				rep.fail("session %d click %d query %d: %v", si, pos, qi, err)
			case a.coverage < 1:
				rep.fail("session %d click %d query %d: coverage %v", si, pos, qi, a.coverage)
			default:
				p.cells += a.stats.CellsCovered
				rec.rows[qi] = a.rows
			}
		}
		rec.end = time.Since(p.t0)
		cs.end()
		for qi, rows := range rec.rows {
			rec.rows[qi] = copyRows(rows)
		}
		p.clicks = append(p.clicks, rec)
		if p.afterClick != nil {
			p.afterClick()
		}
	}
	p.wall = time.Since(p.t0)
}

// copyRows copies a result out of whatever it was cut from: a row scan's ten
// rows are the head of a slice of every row scanned, and keeping them would
// keep all of it, and grow the heap by the table with every click.
func copyRows(rows [][]powerdrill.Value) [][]powerdrill.Value {
	if rows == nil {
		return nil // a failed query stays marked as such
	}
	out := make([][]powerdrill.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]powerdrill.Value(nil), r...)
	}
	return out
}

// timed runs sessions 1, 2, … (0 is the warm-up) until more says stop.
func timed(gen *sessions, ask func(string, *span) (*answer, error), more func(done int, elapsed time.Duration) bool, tr *tracer, rep *report) *phase {
	p := &phase{t0: time.Now()}
	for done := 0; more(done, time.Since(p.t0)); done++ {
		p.runSession(ask, gen.session(done+1), done+1, tr, rep)
	}
	return p
}

// untilDone is the stop rule of a timed phase.
func (c *config) untilDone(done int, elapsed time.Duration) bool {
	return done < c.minSessions || elapsed.Seconds() < c.seconds
}

// run measures one workload. Untraced, it reports the end-to-end metrics;
// traced, the per-layer ones. Both check the answers.
func run(c *config, w workload, traced bool) (*report, error) {
	dir, err := os.MkdirTemp(c.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{workload: w.name, metrics: map[string]metric{}, diag: map[string]metric{}}
	if traced {
		for _, d := range perLayerDefs {
			rep.metrics[d.name] = metric{0, d.unit} // a layer the workload bypasses reports 0
		}
		if w.tree {
			return rep, traceTree(c, w, dir, rep)
		}
	}

	heapBefore := liveHeap()
	var tr *tracer
	reps := c.setupReps
	if traced {
		tr, reps = newTracer(), 1
	}
	var d *deployment
	var setups []float64
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		sub := filepath.Join(dir, fmt.Sprint("setup", i))
		t0 := time.Now()
		sp := tr.start("setup", nil)
		if d, err = w.setup(c, sub, tr, sp); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		sp.end()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { d.close() }()

	// Warm-up: session 0, untimed. The heap is what stays live after a
	// forced collection, at its largest over the warm-up's clicks (a store
	// under a budget holds more after a wide click than after a narrow one),
	// less what was live before the set-ups (earlier workloads of a suite
	// leave some). The raw table and the earlier set-ups are gone by then
	// and the appender's batches do not exist yet.
	var heap uint64
	warm := phase{t0: time.Now(), afterClick: func() { heap = max(heap, liveHeap()) }}
	warm.runSession(d.ask, d.sessions.session(0), 0, nil, rep)
	before := d.counters()

	var app *appender
	more := c.untilDone
	if w.appends {
		app = startAppender(c, d.stores[0])
		more = func(done int, elapsed time.Duration) bool { return c.untilDone(done, elapsed) || !app.finished() }
	}
	var smp *sampler
	if traced && w.appends {
		smp = startSampler(d.stores[0])
	}
	p := timed(d.sessions, d.ask, more, tr, rep)
	if app != nil {
		app.wait(rep)
	}
	samples := smp.stop()
	after := d.counters()
	rep.sessions, rep.clicks = len(p.clicks)/clicksPerSession, len(p.clicks)

	var disk float64
	if w.appends {
		if err := d.stores[0].settle(nil); err != nil {
			rep.fail("flush and compact: %v", err)
		}
		disk = bytesPerRow(d.dir, c.rows+app.ackedRows)
		checkIngest(c, d, app, rep)
	} else {
		if d.dir != "" {
			disk = bytesPerRow(d.dir, c.rows)
		}
		checkAgainstReference(c, w, p.clicks, rep)
	}

	if traced {
		layerMetrics(rep, tr.spans, p.clicks, before, after, app, samples)
		rep.set("colstore.disk_bytes_per_row", disk)
		return rep, writeTrace(c.outDir, traceFile{Workload: w.name, Host: host(c), Metrics: rep.metrics, Spans: tr.spans})
	}
	endToEnd(rep, p, median(setups), (float64(heap)-float64(heapBefore))/1e6)
	if d.dir != "" {
		rep.diag["disk_bytes_per_row"] = metric{disk, "bytes/row"}
	}
	if app != nil {
		app.report(rep.diag, "")
	}
	return rep, nil
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// endToEnd fills in what a user of the system sees.
func endToEnd(rep *report, p *phase, setupS, heapMB float64) {
	lat := clickMs(p.clicks)
	p90, err := percentile(lat, 90)
	if err != nil {
		rep.problems = append(rep.problems, "click_p90_ms: "+err.Error())
	}
	rep.metrics["click_p50_ms"] = metric{median(lat), "ms"}
	rep.metrics["click_p90_ms"] = metric{p90, "ms"}
	rep.metrics["cells_per_s"] = metric{float64(p.cells) / p.wall.Seconds(), "1/s"}
	rep.metrics["heap_mb"] = metric{heapMB, "MB"}
	rep.metrics["setup_s"] = metric{setupS, "s"}
}

// counters sums the counters of every store of the deployment.
func (d *deployment) counters() counters {
	var t counters
	for _, n := range d.stores {
		c := n.counters()
		t.io.ReadCalls += c.io.ReadCalls
		t.io.BytesRead += c.io.BytesRead
		t.io.DecompressNanos += c.io.DecompressNanos
		t.io.ChecksumVerified += c.io.ChecksumVerified
		t.mem.Hits += c.mem.Hits
		t.mem.ColdLoads += c.mem.ColdLoads
		t.mem.Evictions += c.mem.Evictions
		t.mem.EvictedBytes += c.mem.EvictedBytes
		t.mem.ResidentBytes += c.mem.ResidentBytes
		t.cache.Hits += c.cache.Hits
		t.cache.Misses += c.cache.Misses
		t.cache.Evictions += c.cache.Evictions
	}
	return t
}

// bytesPerRow is the size of everything under dir over the rows it holds.
func bytesPerRow(dir string, rows int) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file compaction removed meanwhile is not part of the store
	})
	return float64(total) / float64(rows)
}

// checkAgainstReference replays the first, the middle and the last timed
// session on a sequential store built fresh from the same table, and demands
// the same rows bit for bit: the repository's invariant is that parallelism,
// eviction and topology never change an answer. (Replaying every session
// would take as long as the timed phase; the run's time is capped.)
func checkAgainstReference(c *config, w workload, clicks []clickRec, rep *report) {
	tbl := c.generate()
	ref, err := c.build(tbl, engine{sequential: true}, nil)
	if err != nil {
		rep.fail("reference build: %v", err)
		return
	}
	gen := newSessions(tbl, c.seed, w.tree)
	last := clicks[len(clicks)-1].session
	check := map[int]bool{1: true, (1 + last) / 2: true, last: true}
	for _, rec := range clicks {
		if !check[rec.session] {
			continue
		}
		for qi, q := range gen.session(rec.session)[rec.pos].queries {
			if rec.rows[qi] == nil {
				continue // failed already
			}
			rep.attempted++
			want, err := ref.query(q, nil)
			if err != nil {
				rep.fail("reference: %v", err)
			} else if !sameRows(rec.rows[qi], want.rows) {
				rep.fail("session %d click %d query %d differs from the sequential store: %s", rec.session, rec.pos, qi, q)
			}
		}
	}
}

// sameRows compares two results exactly; floats by their bits.
func sameRows(a, b [][]powerdrill.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.Kind() != y.Kind() {
				return false
			}
			if x.Kind() == powerdrill.KindFloat64 {
				if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
					return false
				}
			} else if x != y {
				return false
			}
		}
	}
	return true
}

// appender appends batches on a fixed schedule, beside the clicking user:
// an open loop, so each batch is timed from the instant it was due and a
// stall is charged to the batches queued behind it.
type appender struct {
	batches   []*powerdrill.Table
	done      chan struct{}
	ackMs     []float64
	appendNs  int64
	lateMaxMs float64
	ackedRows int
	err       error // the schedule stops at the first failed append
}

// startAppender generates the batches from the seed and starts the schedule.
func startAppender(c *config, store node) *appender {
	n := int(c.seconds / c.batchEvery.Seconds())
	more := powerdrill.GenerateQueryLogs(n*c.batchRows, c.seed+1)
	a := &appender{done: make(chan struct{})}
	for i := 0; i < n; i++ {
		a.batches = append(a.batches, sliceRows(more, i*c.batchRows, (i+1)*c.batchRows))
	}
	t0 := time.Now()
	go func() {
		defer close(a.done)
		for i, b := range a.batches {
			due := t0.Add(time.Duration(i) * c.batchEvery)
			time.Sleep(time.Until(due))
			began := time.Now()
			a.lateMaxMs = max(a.lateMaxMs, ms(int64(began.Sub(due))))
			if err := store.appendRows(b, nil); err != nil {
				a.err = err
				return
			}
			a.appendNs += int64(time.Since(began))
			a.ackMs = append(a.ackMs, ms(int64(time.Since(due))))
			a.ackedRows += b.NumRows()
		}
	}()
	return a
}

func (a *appender) finished() bool {
	select {
	case <-a.done:
		return true
	default:
		return false
	}
}

// wait ends the schedule and counts every batch as an operation.
func (a *appender) wait(rep *report) {
	<-a.done
	rep.attempted += len(a.batches)
	if a.err != nil {
		rep.fail("append: %v", a.err)
	}
}

// report names the appender's numbers; prefix is "ingest." in the layer table.
func (a *appender) report(into map[string]metric, prefix string) {
	p90, _ := percentile(a.ackMs, 90) // 0 when a smoke run has too few batches
	into[prefix+"append_ack_p50_ms"] = metric{median(a.ackMs), "ms"}
	into[prefix+"append_ack_p90_ms"] = metric{p90, "ms"}
	into[prefix+"appender_late_max_ms"] = metric{a.lateMaxMs, "ms"}
}

// sliceRows is rows [from, to) of tbl as a table of its own.
func sliceRows(tbl *powerdrill.Table, from, to int) *powerdrill.Table {
	out := powerdrill.NewTable(tbl.Name)
	for _, col := range tbl.Cols {
		switch col.Kind {
		case powerdrill.KindString:
			out.AddStringColumn(col.Name, col.Strs[from:to])
		case powerdrill.KindInt64:
			out.AddInt64Column(col.Name, col.Ints[from:to])
		case powerdrill.KindFloat64:
			out.AddFloat64Column(col.Name, col.Floats[from:to])
		}
	}
	return out
}

// checkIngest closes the store, opens it again and demands that it holds
// the base rows plus every acknowledged row, and that one full click on it
// equals the same click on a store built fresh from those rows.
func checkIngest(c *config, d *deployment, app *appender, rep *report) {
	if err := d.stores[0].close(); err != nil {
		rep.fail("close: %v", err)
	}
	reopened, err := c.open(d.dir, engine{}, true, nil, nil)
	if err != nil {
		rep.fail("reopen: %v", err)
		return
	}
	d.stores = []node{reopened}

	rep.attempted++
	got, err := reopened.query("SELECT COUNT(*) AS n FROM data;", nil)
	if want := int64(c.rows + app.ackedRows); err != nil {
		rep.fail("count after reopen: %v", err)
	} else if n := got.rows[0][0].Int(); n != want {
		rep.fail("store holds %d rows after reopen, want %d (base + acknowledged)", n, want)
	}

	all := c.generate()
	for _, b := range app.batches[:len(app.ackMs)] {
		for i, col := range all.Cols {
			col.Strs = append(col.Strs, b.Cols[i].Strs...)
			col.Ints = append(col.Ints, b.Cols[i].Ints...)
		}
	}
	fresh, err := c.build(all, engine{sequential: true}, nil)
	if err != nil {
		rep.fail("fresh build: %v", err)
		return
	}
	for qi, q := range d.sessions.session(0)[0].queries {
		rep.attempted++
		got, gerr := reopened.query(q, nil)
		want, werr := fresh.query(q, nil)
		if gerr != nil || werr != nil {
			rep.fail("final click query %d: %v %v", qi, gerr, werr)
		} else if !sameRows(got.rows, want.rows) {
			rep.fail("final click query %d differs from a fresh build: %s", qi, q)
		}
	}
}
