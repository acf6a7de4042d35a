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
