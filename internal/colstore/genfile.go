package colstore

// Generation chains: the commit protocol behind every manifest chain in the
// store ("MANIFEST.gen-NNNNNN.json" ingest generations,
// "virtual/manifest.gen-NNNNNN.json" sidecar generations). A writer
// commits state by claiming the *next* numbered file exclusively; readers
// take the highest-numbered file that parses and passes its own CRC. Two
// writers racing on the same generation number: exactly one wins the claim,
// the other re-reads the winner's file, merges, and claims the next number
// — nothing committed is ever lost, and a crashed writer's partial file is
// skipped by readers (the previous generation stays authoritative).
// GenChain is the one implementation of that walk and of the commit; the
// chains differ only in directory, file name and manifest type.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// GenChain names one chain of generation manifests: the files
// Dir/Prefix+NNNNNN+Suffix, each the indented JSON of an M. Fields locates
// the two fields every generation manifest carries: its own sequence
// number, and the CRC32C of its canonical marshal with that CRC zeroed.
type GenChain[M any] struct {
	Dir, Prefix, Suffix string
	Fields              func(*M) (gen *int, check *uint32)
}

// GenFile is one numbered file of a chain as a walk found it.
type GenFile struct {
	Name  string
	Seq   int
	Bytes int64
	// Err says why the file is not a clean generation (unreadable,
	// unparseable, named for another generation, failed its CRC); nil when
	// it is one.
	Err error
}

// GenWalk is one listing of a chain's directory: every numbered file with
// its verdict, every other entry untouched (for the garbage collectors),
// and the newest clean generation — nil with Seq -1 when there is none.
type GenWalk[M any] struct {
	Newest *M
	Seq    int
	Files  []GenFile
	Other  []fs.DirEntry
}

// Name renders the file name of generation seq.
func (c GenChain[M]) Name(seq int) string {
	return fmt.Sprintf("%s%06d%s", c.Prefix, seq, c.Suffix)
}

// walkLists bounds how many times one Walk lists the directory.
const walkLists = 4

// Walk lists the chain's directory and reads every numbered file. A file
// that fails is a crashed or in-flight writer's torn claim, or bit rot: it
// gets a verdict and never masks an older clean generation. A file that
// vanished between the listing and its read was superseded by a concurrent
// commit: it gets no verdict, and the directory is listed again, up to
// walkLists times in all, so that the generation which superseded it is
// seen. The only error is a directory that cannot be listed.
func (c GenChain[M]) Walk() (GenWalk[M], error) {
	for lists := 1; ; lists++ {
		w, vanished, err := c.walk()
		if err != nil || !vanished || lists == walkLists {
			return w, err
		}
	}
}

// walk is one listing of Walk; vanished reports a numbered file that was
// listed but gone when read.
func (c GenChain[M]) walk() (w GenWalk[M], vanished bool, err error) {
	w.Seq = -1
	entries, err := vfs().ReadDir(c.Dir)
	if err != nil {
		return w, false, err
	}
	for _, ent := range entries {
		seq, ok := ParseGenSeq(ent.Name(), c.Prefix, c.Suffix)
		if !ok {
			w.Other = append(w.Other, ent)
			continue
		}
		m, n, err := c.read(ent.Name(), seq)
		if errors.Is(err, fs.ErrNotExist) {
			vanished = true
			continue
		}
		w.Files = append(w.Files, GenFile{Name: ent.Name(), Seq: seq, Bytes: n, Err: err})
		if err == nil && seq > w.Seq {
			w.Newest, w.Seq = m, seq
		}
	}
	return w, vanished, nil
}

// read loads one generation file and checks it against its name and its
// own CRC. Files written before the CRC existed (check 0) pass.
func (c GenChain[M]) read(name string, seq int) (*M, int64, error) {
	blob, err := vfs().ReadFile(filepath.Join(c.Dir, name))
	if err != nil {
		return nil, 0, err
	}
	n := int64(len(blob))
	m := new(M)
	if err := json.Unmarshal(blob, m); err != nil {
		return nil, n, fmt.Errorf("parse: %w", err)
	}
	gen, check := c.Fields(m)
	if *gen != seq {
		return nil, n, fmt.Errorf("gen %d recorded in file named for gen %d", *gen, seq)
	}
	if want := *check; want != 0 {
		*check = 0
		canon, err := json.MarshalIndent(m, "", "  ")
		*check = want
		if err != nil || CRC32C(canon) != want {
			return nil, n, errors.New("integrity check failed (torn or bit-flipped manifest)")
		}
	}
	return m, n, nil
}

// Commit publishes m as generation seq by claiming the chain's file of that
// number exclusively, with the sequence number and CRC filled in.
// fs.ErrExist means another writer committed seq first.
func (c GenChain[M]) Commit(seq int, m *M) error {
	gen, check := c.Fields(m)
	*gen, *check = seq, 0
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	*check = CRC32C(blob)
	if blob, err = json.MarshalIndent(m, "", "  "); err != nil {
		return err
	}
	return ClaimFileExclusive(filepath.Join(c.Dir, c.Name(seq)), blob)
}

// claimSeq numbers this process's ClaimFileExclusive calls.
var claimSeq atomic.Uint64

// ClaimFileExclusive writes blob to path atomically and exclusively: the
// file appears with its full content or not at all, and if path already
// exists the claim fails with fs.ErrExist and nothing is written. The
// content is staged in a temp file and published with os.Link (atomic,
// fails on an existing target); filesystems without hard links fall back
// to O_EXCL creation, which keeps exclusivity but lets a reader racing the
// write observe a partial file — tolerable for generation files, whose
// readers skip anything that does not parse.
//
// The temp file's name is unique to the call, not only to the process: two
// stores of one process can claim the same generation with different
// content (both materialized a virtual column), and on a shared temp file
// one would link the other's half-written bytes.
func ClaimFileExclusive(path string, blob []byte) error {
	tmp := fmt.Sprintf("%s.%d.%d.tmp", path, os.Getpid(), claimSeq.Add(1))
	if err := vfs().WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	err := vfs().Link(tmp, path)
	_ = vfs().Remove(tmp)
	if err == nil {
		return nil
	}
	if errors.Is(err, fs.ErrExist) {
		return fs.ErrExist
	}
	// No hard-link support: claim with O_EXCL instead.
	f, cerr := vfs().OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if cerr != nil {
		if errors.Is(cerr, fs.ErrExist) {
			return fs.ErrExist
		}
		return cerr
	}
	_, werr := f.Write(blob)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ParseGenSeq extracts the generation number from a file name of the form
// prefix+NNNN+suffix (e.g. "manifest.gen-000012.json"); ok is false for
// names that do not match.
func ParseGenSeq(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
