package ingest

// Offline scrub of a full store directory: the base colstore, every
// generation manifest, every live segment, the WAL files, and the
// virtual sidecar. One verdict per file; the walk never stops at the
// first failure, so one pass maps all the damage. Read-only — scrub is
// safe against a directory another process has open, and repair stays
// an operator decision.

import (
	"fmt"
	"path/filepath"

	"powerdrill/internal/colstore"
)

// ScrubFile is one file's verdict; see colstore.ScrubFile.
type ScrubFile = colstore.ScrubFile

// ScrubReport is the result of scrubbing a store directory.
type ScrubReport struct {
	// Files holds one verdict per file visited, in walk order: base
	// store, generation manifests, segments, WAL files, sidecars.
	Files []ScrubFile
	// Records is the total number of checksummed records verified clean.
	Records int
	// Corrupt is how many files failed (Files[i].Err != "").
	Corrupt int
}

// add appends verdicts and updates the tallies.
func (r *ScrubReport) add(files ...ScrubFile) {
	for _, f := range files {
		r.Files = append(r.Files, f)
		r.Records += f.Records
		if !f.OK() {
			r.Corrupt++
		}
	}
}

// ScrubStore verifies every checksummed byte of the store at dir: the
// base colstore (manifest, column files, virtual sidecar), each
// generation manifest's integrity check, each live segment's colstore,
// and each WAL file's frame chain. It opens nothing for query and
// repairs nothing. A base store or segment of an old format generation
// gets one verdict, on its manifest, naming `pdrill upgrade`.
func ScrubStore(dir string) (*ScrubReport, error) {
	if _, err := vfs().Stat(filepath.Join(dir, "manifest.json")); err != nil {
		return nil, fmt.Errorf("ingest: scrub: %s is not a store directory: %w", dir, err)
	}
	rep := &ScrubReport{}
	rep.add(colstore.ScrubDir(dir, dir)...)

	// Every generation manifest gets a verdict, not just the newest: a
	// torn older file is harmless (readers skip it) but still evidence
	// of a crash worth surfacing.
	best := scrubGenManifests(dir, rep)

	// Segments of the authoritative generation: each is a full colstore.
	if best != nil {
		for _, seg := range best.Segments {
			rep.add(colstore.ScrubDir(dir, filepath.Join(dir, seg.Dir))...)
		}
	}

	scrubWAL(dir, best, rep)
	return rep, nil
}

// scrubGenManifests verdicts every MANIFEST.gen-* file and returns the
// newest clean one (nil when none).
func scrubGenManifests(dir string, rep *ScrubReport) *genManifest {
	walk, err := genChain(dir).Walk()
	if err != nil {
		return nil
	}
	for _, f := range walk.Files {
		rep.add(colstore.GenScrubFile(f.Name, "gen-manifest", f))
	}
	return walk.Newest
}

// scrubWAL verdicts every WAL file. A torn tail is legal only in the
// highest-sequence file (the crash point a restart will truncate at);
// anywhere else it is corruption the replay pass would refuse.
func scrubWAL(dir string, best *genManifest, rep *ScrubReport) {
	seqs, err := listWALFiles(dir)
	if err != nil || len(seqs) == 0 {
		return
	}
	done := map[int]bool{}
	floor := 0
	if best != nil {
		floor = best.WalFloor
		for _, s := range best.WalDone {
			done[s] = true
		}
	}
	last := seqs[len(seqs)-1]
	for _, seq := range seqs {
		path := filepath.Join(dir, walRel(seq))
		f := ScrubFile{Path: walRel(seq), Kind: "wal"}
		payloads, good, size, err := readWALFrames(path)
		f.Bytes = size
		f.Records = len(payloads)
		switch {
		case err != nil:
			f.Err = err.Error()
		case good < size && seq != last:
			f.Err = fmt.Sprintf("torn or corrupt frame at byte %d (only the newest WAL may end torn)", good)
		case good < size:
			// The newest WAL's torn tail is the crash point; replay
			// truncates there. Clean, but worth counting precisely.
			f.Kind = "wal (torn tail, truncated at replay)"
		case seq < floor || done[seq]:
			// Retired but not yet deleted: harmless, replay skips it.
			f.Kind = "wal (retired)"
		}
		rep.add(f)
	}
}
