package cluster

import (
	"context"
	"errors"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
)

// TestLocalLeafCancel: an in-process leaf hands its context to the engine,
// so a leaf given an already-cancelled context returns the error without
// scanning a chunk or keeping a pin.
func TestLocalLeafCancel(t *testing.T) {
	s, err := colstore.FromTable(logs(3000), storeOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := colstore.Save(s, dir, "zippy"); err != nil {
		t.Fatal(err)
	}
	mgr := memmgr.New(0, "")
	lazy, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	leaf := NewLocalLeaf("leaf", exec.New(lazy, exec.Options{}))
	const q = `SELECT country, COUNT(*) FROM data GROUP BY country;`
	if _, err := leaf.PartialQuery(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	before := leaf.Engine().Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := leaf.PartialQuery(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := leaf.Engine().Stats(); after.ChunksScanned != before.ChunksScanned || after.Queries != before.Queries {
		t.Fatalf("the cancelled leaf query scanned: %+v, before %+v", after, before)
	}
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned after cancellation", st.PinnedBytes)
	}
}
