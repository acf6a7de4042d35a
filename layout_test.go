package powerdrill

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
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
	// moved only the dictionaries' bytes.
	chunks string
}{
	{
		name:   "bench",
		tbl:    func() *Table { return GenerateQueryLogs(50_000, 1) },
		opts:   Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true},
		want:   "9437ffd1fae0ae51e5c751923203419f769c24109a590e616e5393e48642f0e3",
		chunks: "fadcb123539eb661b4c007684ae4bee1782823d28094e739f36944b52296896d",
	},
	{
		name:   "three-fields",
		tbl:    func() *Table { return GenerateQueryLogs(30_000, 2) },
		opts:   Options{PartitionFields: []string{"country", "table_name", "user"}, MaxChunkRows: 1000, OptimizeElements: true},
		want:   "c82b70a0f6d33450c8d6fb722b1e89f0c8a1f769233fe3b949e56498ef2cb841",
		chunks: "d3c4c5e6caa0a3689e4112ae5752331589ce38dbe3281c2ca9eba98d3905680f",
	},
	{
		name:   "int64-field",
		tbl:    func() *Table { return GenerateQueryLogs(20_000, 3) },
		opts:   Options{PartitionFields: []string{"latency", "country"}, MaxChunkRows: 1500, OptimizeElements: true},
		want:   "89d2ddac52887d6130a47ead948241982bfd4e3052ce8b63f09eff1605e5a303",
		chunks: "e75f1fd65b39fcb14a958238055de750f70d3aba79506fda55db76b03ea43e10",
	},
	{
		name:   "reorder",
		tbl:    func() *Table { return GenerateQueryLogs(40_000, 4) },
		opts:   Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true, Reorder: true},
		want:   "4e50c6ba2082cf37ab6ada1379d34629ff3c9fa071058069e679e3d530689ae0",
		chunks: "1910f1fe8eca0e9705cc8187215c6fab44a5fe3fb9590ffc618a4bfdd4c2e8f1",
	},
	{
		name:   "unpartitioned",
		tbl:    func() *Table { return GenerateQueryLogs(20_000, 5) },
		opts:   Options{},
		want:   "f1630f3fdaee70f155f723a2e8dc5969f7935952753fab1f08c71b32ddcbfaea",
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
		want:   "d88bf99d97e8442109e904c15b0869dfee00df163649d32564fd0661325af87d",
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
// chunk record at the file range the manifest gives it.
func chunkDigest(t *testing.T, dir string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Columns []struct {
			File   string `json:"file"`
			Chunks []struct {
				COff int64 `json:"coff"`
				CLen int64 `json:"clen"`
			} `json:"chunks"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range m.Columns {
		data, err := os.ReadFile(filepath.Join(dir, c.File))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(c.File))
		h.Write([]byte{0})
		for _, ch := range c.Chunks {
			if ch.COff < 0 || ch.CLen <= 0 || ch.COff+ch.CLen > int64(len(data)) {
				t.Fatalf("%s: chunk record [%d,%d) outside the file", c.File, ch.COff, ch.COff+ch.CLen)
			}
			h.Write(data[ch.COff : ch.COff+ch.CLen])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
