// Package ingest is the streaming append path: rows arrive through a
// Writer, buffer in a dictionary-encoded in-memory write chunk, and are
// sealed into immutable on-disk *segments* committed through a chain of
// numbered generation manifests. A query pins one generation (plus the
// sealed-but-uncommitted chunks and a frozen prefix of the write buffer)
// and sees a bit-for-bit consistent cut of the append stream while
// appends, seals and compactions continue underneath it.
//
// The paper's system assumes data is imported in bulk (Section 2.2); this
// package grows that pipeline into an LSM-shaped ingestion path that
// reuses it wholesale: every sealed segment is a full colstore built by
// the same FromTable import (same partitioning, reordering and dictionary
// options as the base store) and saved in the same on-disk format
// (docs/format.md), so the lazy reader, memory budget and chunk-skipping
// machinery apply to appended data unchanged.
//
// Durability protocol. A store directory with appends holds
//
//	<dir>/MANIFEST.gen-000007.json   the newest generation manifest
//	<dir>/segs/seg-000012/...        one colstore per sealed segment
//
// next to the untouched base manifest. Sealing writes the segment
// directory first, then commits by claiming the *next* generation file
// exclusively (colstore.GenChain); readers take the highest clean
// generation. A crash between the two leaves an orphan
// segment directory and no manifest — the previous generation stays
// authoritative and the orphan is garbage-collected on the next Attach.
// Readers that predate this package ignore MANIFEST.gen-* files entirely
// and keep seeing the base store.
package ingest

import (
	"fmt"
	"path/filepath"
	"strings"

	"powerdrill/internal/colstore"
)

// Generation manifests live at the store root so HasGenerations can
// decide with one directory listing; segment directories live under segs/.
const (
	genPrefix  = "MANIFEST.gen-"
	genSuffix  = ".json"
	segsSubdir = "segs"
)

// genChain is dir's chain of generation manifests.
func genChain(dir string) colstore.GenChain[genManifest] {
	return colstore.GenChain[genManifest]{
		Dir: dir, Prefix: genPrefix, Suffix: genSuffix,
		Fields: func(m *genManifest) (*int, *uint32) { return &m.Gen, &m.Check },
	}
}

// genName renders the manifest file name of a generation.
func genName(gen int) string { return genChain("").Name(gen) }

// segRel renders the store-relative directory of a segment.
func segRel(seq int) string {
	return filepath.Join(segsSubdir, fmt.Sprintf("seg-%06d", seq))
}

// genSegment is one sealed segment as recorded in a generation manifest.
type genSegment struct {
	// Dir is the segment's directory relative to the store root.
	Dir string `json:"dir"`
	// Rows is the segment's row count (recorded so reopen and stats do
	// not need to open the segment to know its size).
	Rows int `json:"rows"`
}

// genManifest is one committed generation: the complete list of live
// segments. Each seal or compaction writes a whole new manifest rather
// than editing the previous one, so a generation is immutable once its
// file exists and a reader holding it never sees the segment list change.
type genManifest struct {
	Gen int `json:"gen"`
	// NextSeg is the next unused segment sequence number. It only grows,
	// even across compactions that shrink the segment list, so a retired
	// segment's directory name is never reused while a snapshot might
	// still hold it.
	NextSeg  int          `json:"next_seg"`
	Segments []genSegment `json:"segments"`
	// WalFloor retires every WAL sequence below it: their rows are
	// committed in Segments, so replay skips (and deletes) those files.
	// The floor is the lowest sequence any not-yet-committed write chunk
	// still holds; it only rises.
	WalFloor int `json:"wal_floor,omitempty"`
	// WalDone lists committed WAL sequences at or above WalFloor — the
	// sequences of this commit's chunk (and earlier commits) that an
	// older uncommitted chunk's sequence still pins below the floor.
	// Their files are deleted right after the commit; the list covers
	// the crash window between commit and deletion.
	WalDone []int `json:"wal_done,omitempty"`
	// Check is, with Gen, the generation chain's own: a torn or bit-flipped
	// generation file fails its CRC and is skipped exactly like one that
	// fails to parse (colstore.GenChain).
	Check uint32 `json:"check,omitempty"`
}

// HasGenerations reports whether dir carries ingest state — a committed
// generation manifest, or WAL files left by a writer that crashed before
// its first commit (those rows must be recovered, so the public Open
// must attach a Writer for them too). Errors read as "no".
func HasGenerations(dir string) bool {
	entries, err := vfs().ReadDir(dir)
	if err != nil {
		return false
	}
	for _, ent := range entries {
		if _, ok := colstore.ParseGenSeq(ent.Name(), genPrefix, genSuffix); ok {
			return true
		}
	}
	if seqs, err := listWALFiles(dir); err == nil && len(seqs) > 0 {
		return true
	}
	return false
}

// readGenerations returns dir's newest clean generation manifest. Torn
// files are skipped (a crashed writer's partial claim must not mask the
// previous generation). Returns (nil, 0, nil) when the directory has no
// generations at all.
func readGenerations(dir string) (*genManifest, int, error) {
	walk, err := genChain(dir).Walk()
	if err != nil || walk.Newest == nil {
		return nil, 0, err
	}
	return walk.Newest, walk.Seq, nil
}

// commitGeneration claims m.Gen's manifest file exclusively. fs.ErrExist
// means another writer committed this generation first — with the
// single-writer-per-directory contract that is a usage error, surfaced
// rather than merged.
func commitGeneration(dir string, m *genManifest) error {
	return genChain(dir).Commit(m.Gen, m)
}

// Upgrade rewrites the store at oldDir, ingest state included, as a
// current-generation store at newDir: each live segment of the newest clean
// generation manifest (colstore.Upgrade), a byte-for-byte copy of each WAL
// file, that manifest committed again, and the base last — so nothing opens
// newDir until everything is written. Virtual sidecars are caches and stay
// behind.
func Upgrade(oldDir, newDir string) error {
	if _, err := vfs().Stat(filepath.Join(newDir, "manifest.json")); err == nil {
		return fmt.Errorf("ingest: upgrade: %s already holds a store", newDir)
	}
	m, _, err := readGenerations(oldDir)
	var seqs []int
	if err == nil {
		seqs, err = listWALFiles(oldDir)
	}
	if err == nil && (m != nil || len(seqs) > 0) {
		err = vfs().MkdirAll(filepath.Join(newDir, segsSubdir), 0o755)
	}
	for i := 0; err == nil && m != nil && i < len(m.Segments); i++ {
		seg := m.Segments[i].Dir
		err = colstore.Upgrade(filepath.Join(oldDir, seg), filepath.Join(newDir, seg))
	}
	for i := 0; err == nil && i < len(seqs); i++ {
		var blob []byte
		if blob, err = vfs().ReadFile(filepath.Join(oldDir, walRel(seqs[i]))); err == nil {
			err = vfs().WriteFile(filepath.Join(newDir, walRel(seqs[i])), blob, 0o644)
		}
	}
	if err == nil && m != nil {
		err = commitGeneration(newDir, m)
	}
	if err != nil {
		return fmt.Errorf("ingest: upgrade: %w", err)
	}
	return colstore.Upgrade(oldDir, newDir)
}

// gcGenerations removes, from a walk of dir's chain, superseded generation
// manifests, torn manifests that failed to read (the walk's newest is the
// newest *clean* generation and this writer holds the directory, so any
// other numbered file is a crashed commit's garbage), and orphan segment
// directories not referenced by the newest manifest — the leftovers of a writer that
// crashed between writing a segment and committing it, or of
// retirements whose removal was interrupted. WAL files are never
// touched: the replay pass owns their lifecycle, and sweeping one here
// would throw away acknowledged rows. With no committed generation every
// numbered manifest is garbage and so is every segment directory. Only called from Attach, before any snapshot
// exists and before WAL replay, so nothing live can reference what it
// deletes. Removal errors are ignored: garbage that survives is
// re-collected next time.
func gcGenerations(dir string, walk colstore.GenWalk[genManifest]) {
	for _, f := range walk.Files {
		if f.Seq != walk.Seq {
			_ = vfs().Remove(filepath.Join(dir, f.Name))
		}
	}
	for _, ent := range walk.Other {
		if name := ent.Name(); strings.HasPrefix(name, genPrefix) && strings.HasSuffix(name, ".tmp") {
			_ = vfs().Remove(filepath.Join(dir, name))
		}
	}
	live := map[string]bool{}
	if walk.Newest != nil {
		for _, seg := range walk.Newest.Segments {
			live[filepath.Base(seg.Dir)] = true
		}
	}
	segEntries, err := vfs().ReadDir(filepath.Join(dir, segsSubdir))
	if err != nil {
		return
	}
	for _, ent := range segEntries {
		if _, isWal := isWalName(ent.Name()); isWal {
			continue
		}
		if !live[ent.Name()] {
			_ = vfs().RemoveAll(filepath.Join(dir, segsSubdir, ent.Name()))
		}
	}
}
