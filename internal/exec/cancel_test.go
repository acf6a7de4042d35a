package exec

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/faultfs"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
)

// cancelFS passes every call through to the real filesystem and counts
// the ReadAt calls on the files of one store, noting each that starts at
// a chunk record or at a dictionary frame: the first chunk read, or under
// onFrame the first frame read, cancels the armed context.
type cancelFS struct {
	faultfs.OS
	dir            string
	chunks, frames map[string]map[int64]bool // file -> record offsets
	onFrame        bool
	frameReads     []string // the file of every frame read, in order
	mu             sync.Mutex
	cancel         context.CancelFunc // fired and cleared by the first read that cancels
	// only, when set, restricts the trigger to that file's records.
	only  string
	calls int64    // every ReadAt
	reads []string // the file of every chunk read, in order
}

// newCancelFS maps the chunk records and frames of every column of the
// store at dir.
func newCancelFS(t *testing.T, dir string) *cancelFS {
	t.Helper()
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := &cancelFS{dir: dir, chunks: map[string]map[int64]bool{}, frames: map[string]map[int64]bool{}}
	offsets := func(rs []colstore.RecordRange) map[int64]bool {
		offs := map[int64]bool{}
		for _, rr := range rs {
			offs[rr.Off] = true
		}
		return offs
	}
	for _, c := range r.Columns() {
		file, frames, chunks, err := r.ColumnRecords(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		fs.chunks[filepath.Base(file)], fs.frames[filepath.Base(file)] = offsets(chunks), offsets(frames)
	}
	return fs
}

// fileOf is the file holding the named column's records.
func (fs *cancelFS) fileOf(t *testing.T, col string) string {
	t.Helper()
	r, _, err := colstore.NewReader(fs.dir)
	if err != nil {
		t.Fatal(err)
	}
	file, _, _, err := r.ColumnRecords(col)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(file)
}

func (fs *cancelFS) Open(name string) (faultfs.File, error) {
	f, err := fs.OS.Open(name)
	if err != nil || !strings.HasPrefix(name, fs.dir) {
		return f, err
	}
	base := filepath.Base(name)
	return &cancelFile{File: f, fs: fs, offs: fs.chunks[base], frames: fs.frames[base]}, nil
}

type cancelFile struct {
	faultfs.File
	fs           *cancelFS
	offs, frames map[int64]bool
}

func (f *cancelFile) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.calls++
	file := filepath.Base(f.Name())
	if f.offs[off] {
		fs.reads = append(fs.reads, file)
	}
	if f.frames[off] {
		fs.frameReads = append(fs.frameReads, file)
	}
	if fs.cancel != nil && (fs.onFrame && f.frames[off] || !fs.onFrame && f.offs[off]) && (fs.only == "" || fs.only == file) {
		fs.cancel()
		fs.cancel = nil
	}
	return f.File.ReadAt(p, off)
}

// take returns the ReadAt calls and the files of the chunk reads since the
// last take.
func (fs *cancelFS) take() (int64, []string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	calls, reads := fs.calls, fs.reads
	fs.calls, fs.reads = 0, nil
	return calls, reads
}

// lazyCancelEngine opens the saved store at dir lazily under an unlimited
// budget and returns an engine over it and the store's manager.
func lazyCancelEngine(t *testing.T, dir string, opts Options) (*Engine, *memmgr.Manager) {
	t.Helper()
	mgr := memmgr.New(0, "")
	s, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, opts), mgr
}

// runCancelled runs q on e under ctx and requires it to fail with
// context.Canceled, leaving nothing pinned in mgr.
func runCancelled(t *testing.T, ctx context.Context, e *Engine, mgr *memmgr.Manager, q string) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunContext(ctx, stmt); !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: err = %v, want context.Canceled", q, err)
	}
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("%s: %d bytes still pinned after cancellation", q, st.PinnedBytes)
	}
}

const cancelGroupBy = `SELECT table_name, COUNT(*) AS c FROM data WHERE latency > 300 GROUP BY table_name ORDER BY c DESC, table_name ASC;`

// TestCancelBeforeScan: a query whose context is cancelled before it
// starts returns context.Canceled, scans nothing and pins nothing, and the
// engine answers the same query normally afterwards.
func TestCancelBeforeScan(t *testing.T) {
	e, mgr := lazyCancelEngine(t, savedReorderedStore(t, 6000, "zippy"), Options{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{cancelGroupBy, `SELECT latency FROM data WHERE country = "de" ORDER BY latency DESC LIMIT 5;`} {
		runCancelled(t, ctx, e, mgr, q)
		if st := e.Stats(); st.Queries != 0 || st.ChunksScanned != 0 {
			t.Fatalf("%s: a cancelled query counted: %+v", q, st)
		}
	}
	if _, err := query(e, cancelGroupBy); err != nil {
		t.Fatal(err)
	}
}

// TestColdPinCancelStopsBatches: on a lazy store at Parallelism 1, a
// context cancelled by the first chunk read stops the pin at the end of
// that batch: the chunks of the query's other column are never read, as
// the store's own IOStats confirm against an uncancelled run.
func TestColdPinCancelStopsBatches(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "zippy")
	fs := newCancelFS(t, dir)
	defer faultfs.Swap(fs)()
	const q = `SELECT table_name, COUNT(*) AS c FROM data WHERE country IN ("de", "us", "fr") GROUP BY table_name;`

	full, _ := lazyCancelEngine(t, dir, Options{Parallelism: 1})
	if _, err := query(full, q); err != nil {
		t.Fatal(err)
	}
	fullIO, _ := full.Store().IOStats()
	_, fullReads := fs.take()

	e, mgr := lazyCancelEngine(t, dir, Options{Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs.cancel = cancel
	runCancelled(t, ctx, e, mgr, q)
	io, _ := e.Store().IOStats()
	calls, reads := fs.take()

	files := func(reads []string) map[string]int {
		n := map[string]int{}
		for _, f := range reads {
			n[f]++
		}
		return n
	}
	fullFiles, gotFiles := files(fullReads), files(reads)
	if len(fullFiles) != 2 {
		t.Fatalf("the uncancelled query read chunks of %d files, want 2: %v", len(fullFiles), fullFiles)
	}
	if len(gotFiles) != 1 {
		t.Fatalf("the cancelled query read chunks of %d files, want the first batch's only: %v", len(gotFiles), gotFiles)
	}
	for f, n := range gotFiles {
		if n != fullFiles[f] {
			t.Fatalf("%s: %d chunk reads, want the whole first batch's %d", f, n, fullFiles[f])
		}
	}
	// IOStats counts every read the query made, and the unread batch's
	// are not among them.
	if io.ReadCalls != calls {
		t.Fatalf("IOStats: %d read calls, the filesystem saw %d", io.ReadCalls, calls)
	}
	if skipped := int64(len(fullReads) - len(reads)); io.ReadCalls > fullIO.ReadCalls-skipped {
		t.Fatalf("IOStats: %d read calls, want at most %d (the uncancelled %d less the %d chunk reads of the unread batch)",
			io.ReadCalls, fullIO.ReadCalls-skipped, fullIO.ReadCalls, skipped)
	}
}

// TestGateCancelWhileWaiting: a query waiting at a gate whose only token
// another caller holds leaves when its context is cancelled, and gives
// back the pins it took before the gate.
func TestGateCancelWhileWaiting(t *testing.T) {
	gate := NewGate(1)
	e, mgr := lazyCancelEngine(t, savedReorderedStore(t, 6000, "zippy"), Options{Parallelism: 1, Gate: gate})
	if _, err := gate.AcquireUpTo(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(cancelGroupBy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx, stmt)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("the query ran past a full gate: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled query stayed at the gate")
	}
	if st := mgr.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned after cancellation", st.PinnedBytes)
	}
	if gate.InUse() != 1 {
		t.Fatalf("gate: %d tokens in use, want the holder's 1", gate.InUse())
	}
	gate.Release(1)
	if _, err := query(e, cancelGroupBy); err != nil {
		t.Fatal(err)
	}
}

// TestRowScanCancelBetweenRounds: a row scan whose context is cancelled
// by its first round's chunk read starts no further round — the one chunk
// read is all it reads — though uncancelled it reads several rounds.
func TestRowScanCancelBetweenRounds(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "zippy")
	fs := newCancelFS(t, dir)
	defer faultfs.Swap(fs)()
	// No ORDER BY and a LIMIT no round reaches: every round runs.
	const q = `SELECT latency FROM data WHERE latency > 300 LIMIT 100000;`

	full, _ := lazyCancelEngine(t, dir, Options{Parallelism: 1})
	if _, err := query(full, q); err != nil {
		t.Fatal(err)
	}
	if _, reads := fs.take(); len(reads) < 3 {
		t.Fatalf("the uncancelled row scan made %d chunk reads, want several rounds'", len(reads))
	}

	e, mgr := lazyCancelEngine(t, dir, Options{Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs.cancel = cancel
	runCancelled(t, ctx, e, mgr, q)
	if _, reads := fs.take(); len(reads) != 1 {
		t.Fatalf("the cancelled row scan made %d chunk reads, want its first round's 1", len(reads))
	}
}

// TestRestrictionMemoCancelNotPoisoned: a group-by with a WHERE clause,
// cancelled once its pins are taken — as its scan starts, after the
// selection it would publish was laid out — publishes no memo and caches
// no partial: the same WHERE clause then answers bit for bit as on a fresh
// engine, compiling its restriction afresh, and the first uncancelled
// query finds the result cache empty.
func TestRestrictionMemoCancelNotPoisoned(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "zippy")
	fs := newCancelFS(t, dir)
	defer faultfs.Swap(fs)()
	opts := Options{Parallelism: 1, ResultCacheBytes: 1 << 20}
	e, mgr := lazyCancelEngine(t, dir, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The group column is pinned last: its chunk read cancels the query
	// with every pin batch but its own already read.
	fs.only, fs.cancel = fs.fileOf(t, "table_name"), cancel
	runCancelled(t, ctx, e, mgr, cancelGroupBy)

	fresh, _ := lazyCancelEngine(t, dir, opts)
	for i, q := range []string{
		cancelGroupBy,
		`SELECT country, SUM(latency) AS s FROM data WHERE latency > 300 GROUP BY country ORDER BY country ASC;`,
	} {
		want, err := query(fresh, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := query(e, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, q, want, got)
		if i == 0 && (got.Stats.MasksBuilt == 0 || got.Stats.MasksBuilt != want.Stats.MasksBuilt) {
			t.Fatalf("%s: built %d masks, a fresh engine %d: the cancelled query left a memo", q, got.Stats.MasksBuilt, want.Stats.MasksBuilt)
		}
		if i == 0 && got.Stats.ChunksCached != 0 {
			t.Fatalf("%s: %d chunks answered from the result cache the cancelled query left", q, got.Stats.ChunksCached)
		}
	}
}

// takeFrames returns the files of the frame reads since the last call.
func (fs *cancelFS) takeFrames() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	reads := fs.frameReads
	fs.frameReads = nil
	return reads
}

// TestFramePinCancel: dictionary-frame pins stop at a cancelled context as
// chunk pins do. A cold group-by whose first frame read cancels it returns
// context.Canceled, reads no frame after that one and leaves nothing
// pinned: SUM(latency)'s frames are pinned first and COUNT(DISTINCT
// user)'s are never read (PinChunkFrames), and of a composite key's two
// columns only the first column's frames are (pinFull). Uncancelled, each
// query reads frames of two columns.
func TestFramePinCancel(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "zippy")
	fs := newCancelFS(t, dir)
	defer faultfs.Swap(fs)()
	fs.onFrame = true
	for _, q := range []string{
		`SELECT country, SUM(latency) AS s, COUNT(DISTINCT user) AS d FROM data GROUP BY country;`,
		`SELECT country, user, SUM(latency) AS s FROM data GROUP BY country, user;`,
	} {
		full, _ := lazyCancelEngine(t, dir, Options{Parallelism: 1})
		fs.takeFrames()
		if _, err := query(full, q); err != nil {
			t.Fatal(err)
		}
		if files := slices.Compact(fs.takeFrames()); len(files) < 2 {
			t.Fatalf("%s: the uncancelled query read frames of %v, want two columns'", q, files)
		}

		e, mgr := lazyCancelEngine(t, dir, Options{Parallelism: 1})
		ctx, cancel := context.WithCancel(context.Background())
		fs.cancel = cancel
		runCancelled(t, ctx, e, mgr, q)
		cancel()
		if reads := fs.takeFrames(); len(reads) != 1 {
			t.Fatalf("%s: the cancelled query made frame reads %v, want the first only", q, reads)
		}
	}
}
