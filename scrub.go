package powerdrill

import (
	"errors"
	"time"

	"powerdrill/internal/ingest"
)

// ScrubFile is one file's verdict from an offline scrub: path (relative
// to the store root), kind, size, records verified, and the first
// failure found (empty when clean).
type ScrubFile = ingest.ScrubFile

// ScrubReport is the result of scrubbing a store directory: one verdict
// per file plus totals. Corrupt > 0 means at least one file failed
// verification.
type ScrubReport = ingest.ScrubReport

// Scrub verifies every checksummed byte of the store directory at dir —
// base column files, generation manifests, sealed segments, WAL frames
// and the virtual sidecar — without opening it for query, so it works
// on stores too corrupt to open. Read-only: corruption is reported, one
// verdict per file, never repaired. A store of an older format generation
// is not verified: its manifest's verdict names Upgrade.
func Scrub(dir string) (*ScrubReport, error) {
	return ingest.ScrubStore(dir)
}

// Scrub verifies the on-disk files of this store in place; the store
// must have been opened from a directory (Open). Queries may run
// concurrently — the scrub only reads. See the package-level Scrub.
func (s *Store) Scrub() (*ScrubReport, error) {
	if s.dir == "" {
		return nil, errors.New("powerdrill: scrub requires a store opened from disk (use Open or the package-level Scrub)")
	}
	return ingest.ScrubStore(s.dir)
}

// ScrubStatus summarizes one background scrub pass
// (Options.ScrubInterval).
type ScrubStatus struct {
	// Time is when the pass finished; Elapsed how long it took. /statz
	// shows them as an RFC 3339 time and milliseconds.
	Time    time.Time     `json:"-"`
	Elapsed time.Duration `json:"-"`
	// Files, Records and Corrupt are the pass totals: files visited,
	// checksummed records verified clean, files that failed.
	Files   int `json:"files"`
	Records int `json:"records"`
	Corrupt int `json:"corrupt"`
	// Failures lists the failing files' verdicts ("path: error"), capped
	// at scrubFailureCap entries.
	Failures []string `json:"failures,omitempty"`
	// Err is set when the pass itself could not run (the directory walk
	// failed); the per-file verdicts above are then from no files.
	Err string `json:"err,omitempty"`
}

const scrubFailureCap = 8

// LastScrub returns the most recent background scrub verdict; ok is
// false while no pass has completed (or scrubbing is off).
func (s *Store) LastScrub() (ScrubStatus, bool) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.scrubLast == nil {
		return ScrubStatus{}, false
	}
	return *s.scrubLast, true
}

// startScrubLoop begins the background cadence: one pass per interval
// (no immediate pass — an Open should not double its disk traffic), each
// pass recorded for LastScrub. Close stops the loop.
func (s *Store) startScrubLoop(interval time.Duration) {
	stop := make(chan struct{})
	s.scrubMu.Lock()
	s.scrubStop = stop
	s.scrubMu.Unlock()
	s.scrubWG.Add(1)
	go func() {
		defer s.scrubWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.scrubOnce()
			}
		}
	}()
}

// scrubOnce runs one pass and records the verdict.
func (s *Store) scrubOnce() {
	start := time.Now()
	status := ScrubStatus{}
	rep, err := ingest.ScrubStore(s.dir)
	status.Time = time.Now()
	status.Elapsed = time.Since(start)
	if err != nil {
		status.Err = err.Error()
	} else {
		status.Files = len(rep.Files)
		status.Records = rep.Records
		status.Corrupt = rep.Corrupt
		for _, f := range rep.Files {
			if f.OK() || len(status.Failures) >= scrubFailureCap {
				continue
			}
			status.Failures = append(status.Failures, f.Path+": "+f.Err)
		}
	}
	s.scrubMu.Lock()
	s.scrubLast = &status
	s.scrubMu.Unlock()
}

// stopScrubLoop halts the cadence and waits for an in-flight pass.
func (s *Store) stopScrubLoop() {
	s.scrubMu.Lock()
	if s.scrubStop != nil {
		close(s.scrubStop)
		s.scrubStop = nil
	}
	s.scrubMu.Unlock()
	s.scrubWG.Wait()
}
