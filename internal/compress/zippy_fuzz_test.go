package compress_test

import (
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
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	var recs [][]byte
	for _, col := range r.Columns() {
		file, frames, chunks, err := r.ColumnRecords(col.Name)
		if err != nil {
			tb.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			tb.Fatal(err)
		}
		for _, fr := range frames[:min(len(frames), chunksPerColumn)] {
			recs = append(recs, data[fr.Off:fr.Off+fr.Len])
		}
		for _, ch := range chunks[:min(len(chunks), chunksPerColumn)] {
			recs = append(recs, data[ch.Off:ch.Off+ch.Len])
		}
	}
	return recs
}
