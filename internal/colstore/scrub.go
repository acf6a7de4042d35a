package colstore

// Offline scrub: walk a persisted store directory and verify every
// record checksum without building a queryable store. The scrub is how
// latent corruption — a torn write no error ever surfaced, bit rot under
// cold data — is found before a query trips over it. It never repairs;
// it reports, one verdict per file, and the operator decides (restore
// the file, recompact, or strip the CRC to read around it).

import "path/filepath"

// ScrubFile is one file's verdict from an offline scrub.
type ScrubFile struct {
	// Path is the file's path relative to the scrub root.
	Path string
	// Kind classifies the file: "manifest", "column", "sidecar-manifest",
	// "sidecar-column", "gen-manifest" or "wal".
	Kind string
	// Bytes is the file's size as read.
	Bytes int64
	// Records is how many checksummed records were verified.
	Records int
	// Err is empty when the file verified clean; otherwise the first
	// failure found (checksum mismatch, parse failure, unreadable file, a
	// manifest of an old format generation — which records no checksums,
	// so nothing under it can be verified).
	Err string
}

// OK reports whether the file verified clean.
func (f ScrubFile) OK() bool { return f.Err == "" }

// scrubRel renders path relative to root for a verdict, falling back to
// the full path when it is not under root.
func scrubRel(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return rel
	}
	return path
}

// GenScrubFile renders a generation file's walk verdict as a scrub verdict.
func GenScrubFile(path, kind string, f GenFile) ScrubFile {
	out := ScrubFile{Path: path, Kind: kind, Bytes: f.Bytes}
	if f.Err != nil {
		out.Err = f.Err.Error()
	} else {
		out.Records = 1
	}
	return out
}

// ScrubDir verifies one colstore directory offline: the manifest, every
// column file's record checksums, and the virtual/ sidecar (manifest
// generations plus sidecar column files). root anchors the verdict
// paths; pass dir itself for a standalone store. The walk continues past
// failures — every file gets a verdict.
func ScrubDir(root, dir string) []ScrubFile {
	m, mBytes, err := readManifest(dir)
	if err == nil {
		err = m.checkCurrent(dir)
	}
	mf := ScrubFile{Path: scrubRel(root, filepath.Join(dir, "manifest.json")), Kind: "manifest", Bytes: mBytes}
	if err != nil {
		mf.Err = err.Error()
		return []ScrubFile{mf}
	}
	out := []ScrubFile{mf}
	for _, mc := range m.Columns {
		out = append(out, scrubColumnFile(root, dir, m.Codec != "", mc, "column"))
	}
	return append(out, scrubSidecar(root, dir)...)
}

// scrubColumnFile verifies one column file's record checksums.
func scrubColumnFile(root, dir string, compressed bool, mc manifestCol, kind string) ScrubFile {
	path := filepath.Join(dir, mc.File)
	f := ScrubFile{Path: scrubRel(root, path), Kind: kind}
	data, err := vfs().ReadFile(path)
	if err != nil {
		f.Err = err.Error()
		return f
	}
	f.Bytes = int64(len(data))
	n, err := verifyColumnFile(mc, compressed, data, path)
	f.Records = n
	if err != nil {
		f.Err = err.Error()
	}
	return f
}

// scrubSidecar verifies the virtual/ sidecar: every generation manifest
// (not just the newest — a corrupt older one is still worth a verdict)
// and the column files of the newest clean generation.
func scrubSidecar(root, dir string) []ScrubFile {
	walk, err := walkSidecar(dir)
	if err != nil {
		return nil
	}
	var out []ScrubFile
	for _, f := range walk.Files {
		path := filepath.Join(dir, virtualSubdir, f.Name)
		out = append(out, GenScrubFile(scrubRel(root, path), "sidecar-manifest", f))
	}
	if best := walk.Newest; best != nil {
		// Sidecar column files use the framing their manifest records;
		// their manifest paths are store-root-relative.
		for _, mc := range best.Columns {
			out = append(out, scrubColumnFile(root, dir, best.Codec != "", mc, "sidecar-column"))
		}
	}
	return out
}
