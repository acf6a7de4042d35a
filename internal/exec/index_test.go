package exec

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/memmgr"
)

// TestIndexRecordsPagedThroughBudget: a column's layout and Bloom records
// are memory-manager entries of their own, loaded on first use. On a lazy
// store with a budget that holds the whole store, opening loads no index
// record; a range leaf on latency loads latency's layout and no Bloom
// record; an IN leaf on latency, whose chunks carry filters, loads exactly
// one Bloom record, latency's. Answers match the resident store's. A byte
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
	resident := func(col, record string) bool {
		key := lazyStore.CacheNamespace() + "\x00" + col + "#" + record
		if cold := mgr.PinResident([]string{key}, make([]any, 1), nil); len(cold) > 0 {
			return false
		}
		mgr.Release(key)
		return true
	}
	loaded := func(record string) []string {
		var cols []string
		for _, col := range lazyStore.Columns() {
			if resident(col, record) {
				cols = append(cols, col)
			}
		}
		return cols
	}
	if idx, blooms := loaded("index"), loaded("bloom"); len(idx)+len(blooms) > 0 {
		t.Fatalf("opening loaded layouts of %v and Bloom records of %v", idx, blooms)
	}
	for _, c := range []struct {
		q      string
		blooms string
	}{
		{`SELECT country, COUNT(*) AS c FROM data WHERE latency > 500 GROUP BY country ORDER BY country ASC;`, ""},
		{`SELECT country, COUNT(*) AS c FROM data WHERE latency IN (12, 500, 3000) GROUP BY country ORDER BY country ASC;`, "latency"},
	} {
		want, err := eager.Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, c.q, want, got)
		if idx := loaded("index"); strings.Join(idx, ",") != "latency,country" {
			t.Errorf("%s: layouts of %v loaded, want latency's and country's", c.q, idx)
		}
		if blooms := strings.Join(loaded("bloom"), ","); blooms != c.blooms {
			t.Errorf("%s: Bloom records of [%s] loaded, want [%s]", c.q, blooms, c.blooms)
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
	if _, err := e.Query(`SELECT country, COUNT(*) AS c FROM data GROUP BY country;`); err != nil {
		t.Fatalf("a query not touching table_name: %v", err)
	}
	var ce *colstore.ChecksumError
	_, err = e.Query(`SELECT table_name, COUNT(*) AS c FROM data WHERE country = "de" GROUP BY table_name;`)
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
