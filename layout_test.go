package powerdrill

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"powerdrill/internal/colstore"
)

// layoutCases are the tables and import options whose saved stores
// TestLayoutDigests pins: the bench layout, a three-field key, an int64
// leading field, a reordered import, no partitioning at all, and a float
// column holding both zeros (whose dictionary keeps the sign of the last
// zero in store order).
var layoutCases = []struct {
	name string
	tbl  func() *Table
	opts Options
	want string
	// chunks is the digest of the chunk records alone (chunkDigest),
	// recorded from generation 6 and unchanged by generation 7, which
	// moved only the dictionaries' bytes, by generation 8, which moved
	// the index out of the manifest into records after the chunks, and by
	// generation 9, which gave a numeric frame's index entry its first key.
	chunks string
}{
	{
		name:   "bench",
		tbl:    func() *Table { return GenerateQueryLogs(50_000, 1) },
		opts:   Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true},
		want:   "b0253444384453a0fa6b096c233d06e340dbb1a51e17c74c76c366f6051b1698",
		chunks: "fadcb123539eb661b4c007684ae4bee1782823d28094e739f36944b52296896d",
	},
	{
		name:   "three-fields",
		tbl:    func() *Table { return GenerateQueryLogs(30_000, 2) },
		opts:   Options{PartitionFields: []string{"country", "table_name", "user"}, MaxChunkRows: 1000, OptimizeElements: true},
		want:   "fab9ea844c89b62cd7c3f0c70eb27ce17c9ba999cac43801beadd2413aab9ff8",
		chunks: "d3c4c5e6caa0a3689e4112ae5752331589ce38dbe3281c2ca9eba98d3905680f",
	},
	{
		name:   "int64-field",
		tbl:    func() *Table { return GenerateQueryLogs(20_000, 3) },
		opts:   Options{PartitionFields: []string{"latency", "country"}, MaxChunkRows: 1500, OptimizeElements: true},
		want:   "6417bd64f24eef849ebe3edf691da10e04439ae2ba7faf05f02315950736319a",
		chunks: "e75f1fd65b39fcb14a958238055de750f70d3aba79506fda55db76b03ea43e10",
	},
	{
		name:   "reorder",
		tbl:    func() *Table { return GenerateQueryLogs(40_000, 4) },
		opts:   Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true, Reorder: true},
		want:   "eaf3ddc423102654dc007b1e8c30b33bc9be562a3d3b4dadb1ed694e280c52a1",
		chunks: "1910f1fe8eca0e9705cc8187215c6fab44a5fe3fb9590ffc618a4bfdd4c2e8f1",
	},
	{
		name:   "unpartitioned",
		tbl:    func() *Table { return GenerateQueryLogs(20_000, 5) },
		opts:   Options{},
		want:   "9c12dbdde714a3a1ed7776083536c8d7b5df863f3e88acbc6a02d07e2143042b",
		chunks: "4f6d7fd11a25c17e3e95fc10de3dddec302194dd73438c0f1ae5371329980c05",
	},
	{
		name: "signed-zeros",
		tbl: func() *Table {
			tbl := GenerateQueryLogs(20_000, 6)
			lat := tbl.Column("latency").Ints
			score := make([]float64, len(lat))
			for i, l := range lat {
				switch l % 5 {
				case 0:
					score[i] = math.Copysign(0, -1)
				case 1:
					score[i] = 0
				default:
					score[i] = float64(l%97) / 8
				}
			}
			return tbl.AddFloat64Column("score", score)
		},
		opts:   Options{PartitionFields: []string{"country"}, MaxChunkRows: 2500, OptimizeElements: true},
		want:   "68a82c4dc2a434712e84cf10ba2859faefec21e1df6dcc68748df52341dcc38a",
		chunks: "694bda7f48804ecdbf8f6d36907f175f2f40021d1b844f7b6e7d3f3815b1b299",
	},
}

// TestLayoutDigests holds the saved form of each layout case to a SHA-256,
// so any change to partitioning, reordering, dictionary ranking or chunk
// assembly that moves a single byte of a store fails here. The chunk
// records are held apart to the digest generation 6 gave them: a change of
// the dictionary framing moves the store's digest and must leave these.
func TestLayoutDigests(t *testing.T) {
	for _, tc := range layoutCases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Build(tc.tbl(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := s.Save(dir, "zippy"); err != nil {
				t.Fatal(err)
			}
			if got := dirDigest(t, dir); got != tc.want {
				t.Errorf("saved store digest %s, want %s", got, tc.want)
			}
			if got := chunkDigest(t, dir); got != tc.chunks {
				t.Errorf("chunk records digest %s, want %s", got, tc.chunks)
			}
		})
	}
}

// dirDigest hashes every file under dir, in path order, with its relative
// path.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(dir, p)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chunkDigest hashes the chunk records of a store saved with a codec: for
// each column in manifest order, its file name, then the bytes of every
// chunk record at the file range its layout record gives it.
func chunkDigest(t *testing.T, dir string) string {
	t.Helper()
	r, _, err := colstore.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := sha256.New()
	for _, col := range r.Columns() {
		file, _, chunks, err := r.ColumnRecords(col.Name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(file))
		h.Write([]byte{0})
		for _, ch := range chunks {
			if ch.Off < 0 || ch.Len <= 0 || ch.Off+ch.Len > int64(len(data)) {
				t.Fatalf("%s: chunk record [%d,%d) outside the file", file, ch.Off, ch.Off+ch.Len)
			}
			h.Write(data[ch.Off : ch.Off+ch.Len])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
