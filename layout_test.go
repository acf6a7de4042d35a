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
}{
	{
		name: "bench",
		tbl:  func() *Table { return GenerateQueryLogs(50_000, 1) },
		opts: Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true},
		want: "6668079c9005bb51e221ae78bd3f2e4a210e9d2553e01bf9a960c72888e30042",
	},
	{
		name: "three-fields",
		tbl:  func() *Table { return GenerateQueryLogs(30_000, 2) },
		opts: Options{PartitionFields: []string{"country", "table_name", "user"}, MaxChunkRows: 1000, OptimizeElements: true},
		want: "a871820ae9edcdc133ab621efeabcf37da564e60ba34695feee0bedae359dec0",
	},
	{
		name: "int64-field",
		tbl:  func() *Table { return GenerateQueryLogs(20_000, 3) },
		opts: Options{PartitionFields: []string{"latency", "country"}, MaxChunkRows: 1500, OptimizeElements: true},
		want: "09fa6743db1e825bf0025cce696308bd8b3f587b314fdf1de469df0ec42b1a25",
	},
	{
		name: "reorder",
		tbl:  func() *Table { return GenerateQueryLogs(40_000, 4) },
		opts: Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true, Reorder: true},
		want: "8e31049564ae623c4844f126a672e26e3628de5e6c78c267aeda22888d2e36a8",
	},
	{
		name: "unpartitioned",
		tbl:  func() *Table { return GenerateQueryLogs(20_000, 5) },
		opts: Options{},
		want: "2009a259c6ab3c5e402200bd14cb0016ba1ce655de1298fefff160d6acec0d92",
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
		opts: Options{PartitionFields: []string{"country"}, MaxChunkRows: 2500, OptimizeElements: true},
		want: "95cb830a59f04bd0b83b22d78d843478ef1077c2e3ecf9b148b5e77e857a49ac",
	},
}

// TestLayoutDigests holds the saved form of each layout case to a SHA-256
// recorded when the case was added, so any change to partitioning,
// reordering, dictionary ranking or chunk assembly that moves a single
// byte of a store fails here.
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
