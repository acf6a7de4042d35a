package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"powerdrill"
)

// span is one timed call into a layer. Spans are recorded only by the
// benchmark, on its own side of each layer boundary, kept in memory and
// written out once at the end of a traced run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 = top level
	Click  int     `json:"click"`            // 0 = outside any click; else the click's number from 1
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the tracer started
	End    int64   `json:"end_ns"`
	Counts *counts `json:"counts,omitempty"`

	tr *tracer
}

// counts is what a span's call did, as counted by the program's own exported
// counters: QueryStats of the reply, and the differences of colstore.IOStats
// and memmgr.Stats across the call.
type counts struct {
	Rows             int64 `json:"rows,omitempty"` // rows appended (ingest.append)
	RowsScanned      int64 `json:"rows_scanned,omitempty"`
	RowsCached       int64 `json:"rows_cached,omitempty"`
	RowsSkipped      int64 `json:"rows_skipped,omitempty"`
	KernelChunks     int64 `json:"kernel_chunks,omitempty"`
	ScalarChunks     int64 `json:"scalar_chunks,omitempty"`
	CellsCovered     int64 `json:"cells_covered,omitempty"`
	ColdLoads        int64 `json:"cold_loads,omitempty"` // (column, chunk) entries and dictionaries
	DiskBytesRead    int64 `json:"disk_bytes_read,omitempty"`
	ReadRuns         int64 `json:"read_runs,omitempty"`
	CoalescedReads   int64 `json:"coalesced_reads,omitempty"`
	ChecksumVerified int64 `json:"checksum_verified,omitempty"`
	ReadCalls        int64 `json:"read_calls,omitempty"`
	DecompressNanos  int64 `json:"decompress_ns,omitempty"`
	MemHits          int64 `json:"mem_hits,omitempty"`
	MemColdLoads     int64 `json:"mem_cold_loads,omitempty"`
	Evictions        int64 `json:"evictions,omitempty"`
	EvictedBytes     int64 `json:"evicted_bytes,omitempty"`
}

func queryCounts(qs powerdrill.QueryStats, before, after counters) *counts {
	return &counts{
		RowsScanned:      qs.RowsScanned,
		RowsCached:       qs.RowsCached,
		RowsSkipped:      qs.RowsSkipped,
		KernelChunks:     int64(qs.KernelChunks),
		ScalarChunks:     int64(qs.ScalarChunks),
		CellsCovered:     qs.CellsCovered,
		ColdLoads:        int64(qs.ColdChunkLoads + qs.ColdDictLoads),
		DiskBytesRead:    qs.DiskBytesRead,
		ReadRuns:         int64(qs.ReadRuns),
		CoalescedReads:   int64(qs.CoalescedReads),
		ChecksumVerified: int64(qs.ChecksumVerified),
		ReadCalls:        after.io.ReadCalls - before.io.ReadCalls,
		DecompressNanos:  after.io.DecompressNanos - before.io.DecompressNanos,
		MemHits:          after.mem.Hits - before.mem.Hits,
		MemColdLoads:     after.mem.ColdLoads - before.mem.ColdLoads,
		Evictions:        after.mem.Evictions - before.mem.Evictions,
		EvictedBytes:     after.mem.EvictedBytes - before.mem.EvictedBytes,
	}
}

func (c *counts) add(o *counts) {
	if o == nil {
		return
	}
	c.Rows += o.Rows
	c.RowsScanned += o.RowsScanned
	c.RowsCached += o.RowsCached
	c.RowsSkipped += o.RowsSkipped
	c.KernelChunks += o.KernelChunks
	c.ScalarChunks += o.ScalarChunks
	c.CellsCovered += o.CellsCovered
	c.ColdLoads += o.ColdLoads
	c.DiskBytesRead += o.DiskBytesRead
	c.ReadRuns += o.ReadRuns
	c.CoalescedReads += o.CoalescedReads
	c.ChecksumVerified += o.ChecksumVerified
	c.ReadCalls += o.ReadCalls
	c.DecompressNanos += o.DecompressNanos
	c.MemHits += o.MemHits
	c.MemColdLoads += o.MemColdLoads
	c.Evictions += o.Evictions
	c.EvictedBytes += o.EvictedBytes
}

// tracer collects spans. A nil tracer records nothing, so an untraced run
// pays a nil check per call site and no more.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil = top level); it inherits the
// parent's click.
func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, tr: t}
	if parent != nil {
		s.Parent, s.Click = parent.ID, parent.Click
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = int64(time.Since(s.tr.t0))
	}
}

func (s *span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children (parallel calls) are counted once, so
// the self time of a fan-out is what remains after its slowest child.
func selfTime(s *span, children []*span) int64 {
	cs := append([]*span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered, edge := int64(0), s.Start
	for _, c := range cs {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - covered
}

// childrenOf indexes spans by parent.
func childrenOf(spans []*span) map[int][]*span {
	m := map[int][]*span{}
	for _, s := range spans {
		m[s.Parent] = append(m[s.Parent], s)
	}
	return m
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string            `json:"workload"`
	Host     fingerprint       `json:"host"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []*span           `json:"spans"`
}

func writeTrace(dir string, f traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+f.Workload+".json"), blob, 0o644)
}
