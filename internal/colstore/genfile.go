package colstore

// Generation-file helpers: the commit primitive behind every manifest
// chain in the store ("MANIFEST.gen-NNNNNN.json" ingest generations,
// "virtual/manifest.gen-NNNNNN.json" sidecar generations). A writer
// commits state by claiming the *next* numbered file exclusively; readers
// take the highest-numbered file that parses. Two writers racing on the
// same generation number: exactly one wins the claim, the other re-reads
// the winner's file, merges, and claims the next number — nothing
// committed is ever lost, and a crashed writer's partial file is skipped
// by readers (the previous generation stays authoritative).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

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
