package colstore

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"powerdrill/internal/faultfs"
)

// TestClaimFileExclusiveSameProcessRace races many claimants of one
// process, each with a blob of its own, on one generation file: exactly one
// wins, every other is told the file exists, the published file is the
// winner's blob byte for byte, and no temp file is left behind. With a temp
// name shared by the process the claimants wrote one temp file together and
// could publish a mix of their blobs.
func TestClaimFileExclusiveSameProcessRace(t *testing.T) {
	const claimants = 16
	for round := 0; round < 50; round++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.gen-000007.json")
		blobs := make([][]byte, claimants)
		for i := range blobs {
			// Different lengths and contents, large enough that a write
			// takes several pages.
			blobs[i] = bytes.Repeat([]byte{byte('a' + i)}, 64<<10+i*4099)
		}
		errs := make([]error, claimants)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < claimants; i++ {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				errs[i] = ClaimFileExclusive(path, blobs[i])
			}(i)
		}
		start.Done()
		done.Wait()

		winner := -1
		for i, err := range errs {
			switch {
			case err == nil && winner >= 0:
				t.Fatalf("round %d: claimants %d and %d both won", round, winner, i)
			case err == nil:
				winner = i
			case !errors.Is(err, fs.ErrExist):
				t.Fatalf("round %d: claimant %d: got %v, want fs.ErrExist", round, i, err)
			}
		}
		if winner < 0 {
			t.Fatalf("round %d: nobody won the claim", round)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[winner]) {
			t.Fatalf("round %d: published file (%d bytes) is not winner %d's blob (%d bytes)",
				round, len(got), winner, len(blobs[winner]))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("round %d: temp file %s left behind", round, e.Name())
			}
		}
	}
}

// supersedingFS is the filesystem as a reader sees it while a writer
// commits: the first read of file runs commit, which publishes the next
// generation and removes this one.
type supersedingFS struct {
	faultfs.OS
	file   string
	commit func()
	done   bool
}

func (f *supersedingFS) ReadFile(name string) ([]byte, error) {
	if name == f.file && !f.done {
		f.done = true
		f.commit()
	}
	return f.OS.ReadFile(name)
}

// TestGenChainWalkSeesSupersedingGeneration: a walk that lists generation 1
// and finds it gone when it reads it — a writer committed 2 and removed 1
// in between — lists the directory again and returns generation 2, with no
// verdict for the vanished file.
func TestGenChainWalkSeesSupersedingGeneration(t *testing.T) {
	type gen struct {
		Gen   int    `json:"gen"`
		Check uint32 `json:"check"`
	}
	chain := GenChain[gen]{
		Dir: t.TempDir(), Prefix: "gen-", Suffix: ".json",
		Fields: func(g *gen) (*int, *uint32) { return &g.Gen, &g.Check },
	}
	if err := chain.Commit(1, &gen{}); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(chain.Dir, chain.Name(1))
	defer faultfs.Swap(&supersedingFS{file: first, commit: func() {
		if err := chain.Commit(2, &gen{}); err != nil {
			t.Error(err)
		}
		if err := os.Remove(first); err != nil {
			t.Error(err)
		}
	}})()
	w, err := chain.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if w.Newest == nil || w.Seq != 2 {
		t.Fatalf("walk found generation %d (%v), want 2", w.Seq, w.Newest)
	}
	if len(w.Files) != 1 || w.Files[0].Seq != 2 || w.Files[0].Err != nil {
		t.Fatalf("walk verdicts = %+v, want generation 2 clean alone", w.Files)
	}
}
