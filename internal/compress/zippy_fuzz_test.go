package compress_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/compress"
	"powerdrill/internal/workload"
)

// FuzzZippyVsReference: arbitrary bytes, decoded into a dst holding an
// arbitrary prefix with arbitrary spare capacity, give the index-writing
// decoder and the byte-at-a-time reference the same output bytes and the
// same verdict, and leave the prefix untouched. Seeded with the records a
// cold load decompresses — every dictionary record and the first chunk
// records of each column of a zippy-saved click table — and with the
// codec corpus's compressed forms.
func FuzzZippyVsReference(f *testing.F) {
	for _, rec := range clickRecords(f) {
		f.Add(rec, []byte("prefix"), uint16(0))
		f.Add(rec, []byte{}, uint16(len(rec)*8))
	}
	for _, s := range []string{"", "a", "cat", "powerdrill powerdrill powerdrill", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"} {
		f.Add(compress.Zippy{}.Compress(nil, []byte(s)), []byte("p"), uint16(3))
	}
	f.Fuzz(func(t *testing.T, src, prefix []byte, spare uint16) {
		compress.RequireZippyMatchesReference(t, "fuzz", src, prefix, int(spare))
	})
}

// clickRecords saves a small click table with zippy and returns the
// compressed records of its column files: each column's first dictionary
// frames and first chunk records.
func clickRecords(tb testing.TB) [][]byte {
	tb.Helper()
	const rows, chunksPerColumn = 20_000, 8
	s, err := colstore.FromTable(workload.QueryLogs(workload.LogsSpec{Rows: rows, Seed: 1}), colstore.Options{
		PartitionFields: []string{"country", "table_name"}, MaxChunkRows: rows / 100, OptimizeElements: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := colstore.Save(s, dir, "zippy"); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var m struct {
		Columns []struct {
			File   string `json:"file"`
			Frames []struct {
				Off int64 `json:"off"`
				Len int64 `json:"len"`
			} `json:"frames"`
			Chunks []struct {
				COff int64 `json:"coff"`
				CLen int64 `json:"clen"`
			} `json:"chunks"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		tb.Fatal(err)
	}
	var recs [][]byte
	for _, c := range m.Columns {
		data, err := os.ReadFile(filepath.Join(dir, c.File))
		if err != nil {
			tb.Fatal(err)
		}
		for _, fr := range c.Frames[:min(len(c.Frames), chunksPerColumn)] {
			recs = append(recs, data[fr.Off:fr.Off+fr.Len])
		}
		for _, ch := range c.Chunks[:min(len(c.Chunks), chunksPerColumn)] {
			recs = append(recs, data[ch.COff:ch.COff+ch.CLen])
		}
	}
	return recs
}
