package exec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
)

// TestIndexRecordsPagedThroughBudget: a column's layout record is a
// memory-manager entry of its own, loaded on first use. On a lazy store
// with a budget that holds the whole store, opening loads no layout; a
// range leaf and an IN leaf on latency each load latency's layout and the
// group column's, no other. Answers match the resident store's. A byte
// flipped in a layout record fails the first query that touches the column
// with a *ChecksumError, and the scrub reports the column file.
func TestIndexRecordsPagedThroughBudget(t *testing.T) {
	dir := savedReorderedStore(t, 6000, "zippy")
	eagerStore, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := memmgr.New(2*residentFootprint(t, eagerStore), "")
	lazyStore, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	eager := New(eagerStore, Options{Parallelism: 2})
	lazy := New(lazyStore, Options{Parallelism: 2})
	resident := func(col string) bool {
		key := lazyStore.CacheNamespace() + "\x00" + col + "#index"
		if cold := mgr.PinResident([]string{key}, make([]any, 1), nil); len(cold) > 0 {
			return false
		}
		mgr.Release(key)
		return true
	}
	loaded := func() []string {
		var cols []string
		for _, col := range lazyStore.Columns() {
			if resident(col) {
				cols = append(cols, col)
			}
		}
		return cols
	}
	if idx := loaded(); len(idx) > 0 {
		t.Fatalf("opening loaded layouts of %v", idx)
	}
	for _, q := range []string{
		`SELECT country, COUNT(*) AS c FROM data WHERE latency > 500 GROUP BY country ORDER BY country ASC;`,
		`SELECT country, COUNT(*) AS c FROM data WHERE latency IN (12, 500, 3000) GROUP BY country ORDER BY country ASC;`,
	} {
		want, err := query(eager, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := query(lazy, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, q, want, got)
		if idx := loaded(); strings.Join(idx, ",") != "latency,country" {
			t.Errorf("%s: layouts of %v loaded, want latency's and country's", q, idx)
		}
	}

	// A flipped byte in table_name's layout record, found from the
	// manifest.
	var m struct {
		Columns []struct {
			Name  string `json:"name"`
			File  string `json:"file"`
			Index struct {
				Off int64 `json:"off"`
				Len int64 `json:"len"`
			} `json:"index"`
		} `json:"columns"`
	}
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	var file string
	for _, c := range m.Columns {
		if c.Name != "table_name" {
			continue
		}
		file = filepath.Join(dir, c.File)
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		data[c.Index.Off+c.Index.Len/2] ^= 0x04
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		t.Fatalf("a flipped byte in a layout record failed the open: %v", err)
	}
	e := New(corrupt, Options{Parallelism: 2})
	if _, err := query(e, `SELECT country, COUNT(*) AS c FROM data GROUP BY country;`); err != nil {
		t.Fatalf("a query not touching table_name: %v", err)
	}
	var ce *colstore.ChecksumError
	_, err = query(e, `SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name;`)
	if !errors.As(err, &ce) || ce.Path != file {
		t.Fatalf("the first query touching table_name: err = %v, want a ChecksumError in %s", err, file)
	}
	dirty := 0
	for _, f := range colstore.ScrubDir(dir, dir) {
		if !f.OK() {
			dirty++
			if filepath.Join(dir, f.Path) != file || !strings.Contains(f.Err, "checksum mismatch") {
				t.Errorf("scrub: %s: %s", f.Path, f.Err)
			}
		}
	}
	if dirty != 1 {
		t.Fatalf("scrub found %d dirty files, want table_name's", dirty)
	}
}

// TestOlderBloomRecordsVerifiedNotRead runs colstore's testdata/bloom8: a
// generation-8 store written by the last build that kept per-chunk Bloom
// filters, whose sparse columns (timestamp, table_name, latency, user)
// each end in a Bloom record after the layout, with a date(timestamp)
// sidecar and expected.json, that build's resident answers. The eager open
// answers as that build did; the lazy one refuses the old generation, and
// the upgrade answers as that build did, lazily, with and without a tight
// budget, and scrubs clean with no Bloom record left. The eager open
// verifies every Bloom record with the rest of its file and reads nothing
// of it: a byte flipped inside table_name's Bloom record fails the eager
// open, and so the upgrade, with a *ChecksumError, and the store with its
// Bloom records left out of the manifest upgrades to the very bytes the
// store with them does.
func TestOlderBloomRecordsVerifiedNotRead(t *testing.T) {
	src := filepath.Join("..", "colstore", "testdata", "bloom8")
	blob, err := os.ReadFile(filepath.Join(src, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var answers []struct {
		SQL  string     `json:"sql"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(blob, &answers); err != nil {
		t.Fatal(err)
	}
	answer := func(s *colstore.Store, label string) {
		t.Helper()
		e := New(s, Options{Parallelism: 2})
		for _, a := range answers {
			res, err := query(e, a.SQL)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, a.SQL, err)
			}
			var got [][]string
			for _, row := range res.Rows {
				var r []string
				for _, v := range row {
					r = append(r, v.String())
				}
				got = append(got, r)
			}
			if fmt.Sprint(got) != fmt.Sprint(a.Rows) {
				t.Fatalf("%s: %s = %v, want %v", label, a.SQL, got, a.Rows)
			}
		}
	}

	dir := copyFixture(t, src)
	eager, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	answer(eager, "Open")
	if _, _, err := colstore.OpenLazy(dir, memmgr.New(0, "")); !errors.Is(err, colstore.ErrOldFormat) {
		t.Fatalf("OpenLazy of a generation-8 store: err = %v, want ErrOldFormat", err)
	}
	up := filepath.Join(t.TempDir(), "up")
	if err := colstore.Upgrade(dir, up); err != nil {
		t.Fatal(err)
	}
	lazy, _, err := colstore.OpenLazy(up, memmgr.New(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	answer(lazy, "OpenLazy of the upgrade")
	lazy.Close()
	tight, _, err := colstore.OpenLazy(up, memmgr.New(residentFootprint(t, eager)/4, ""))
	if err != nil {
		t.Fatal(err)
	}
	answer(tight, "OpenLazy of the upgrade, a quarter of the footprint")
	tight.Close()

	// The upgrade's scrub verifies every frame, chunk and layout record,
	// and finds no Bloom record.
	r, _, err := colstore.NewReader(up)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, files := map[string]int{}, []string{"manifest.json"}
	for _, meta := range r.Columns() {
		file, frames, chunks, err := r.ColumnRecords(meta.Name)
		if err != nil {
			t.Fatal(err)
		}
		want[file] = len(frames) + len(chunks) + 1
		files = append(files, file)
	}
	for _, f := range colstore.ScrubDir(up, up) {
		if !f.OK() {
			t.Fatalf("scrub: %s: %s", f.Path, f.Err)
		}
		if n, ok := want[f.Path]; ok && f.Records != n {
			t.Errorf("scrub verified %d records of %s, want %d", f.Records, f.Path, n)
		}
	}

	// The manifest's Bloom records, and the same store with none in it.
	var m map[string]any
	if blob, err = os.ReadFile(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	blooms := map[string]string{}
	var flipAt int64 // inside table_name's Bloom record
	for _, c := range m["columns"].([]any) {
		c := c.(map[string]any)
		if ref, ok := c["bloom"].(map[string]any); ok {
			blooms[c["name"].(string)] = c["file"].(string)
			if c["name"] == "table_name" {
				flipAt = int64(ref["off"].(float64)) + 3
			}
			delete(c, "bloom")
		}
	}
	if len(blooms) != 4 {
		t.Fatalf("Bloom records on %v, want the four sparse columns", blooms)
	}
	stripped := copyFixture(t, src)
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stripped, "manifest.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	upStripped := filepath.Join(t.TempDir(), "up")
	if err := colstore.Upgrade(stripped, upStripped); err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		a, errA := os.ReadFile(filepath.Join(up, file))
		b, errB := os.ReadFile(filepath.Join(upStripped, file))
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Fatalf("%s differs between the upgrades with and without Bloom records (%v, %v)", file, errA, errB)
		}
	}

	// A flipped byte inside table_name's Bloom record.
	path := filepath.Join(dir, blooms["table_name"])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[flipAt] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *colstore.ChecksumError
	if _, _, err := colstore.Open(dir); !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("eager Open of a flipped Bloom record: err = %v, want a ChecksumError in %s", err, path)
	}
	if err := colstore.Upgrade(dir, filepath.Join(t.TempDir(), "up")); !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("upgrade of a flipped Bloom record: err = %v, want a ChecksumError in %s", err, path)
	}
}

// copyFixture copies a committed store directory into a temp dir, since
// an open may write to its sidecar.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
