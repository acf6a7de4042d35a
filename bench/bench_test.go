package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

func TestSessionsAreDeterministicAndDistinct(t *testing.T) {
	c := smokeConfig(7)
	tbl := c.generate()
	for _, tree := range []bool{false, true} {
		a, b := newSessions(tbl, 7, tree), newSessions(tbl, 7, tree)
		other := newSessions(tbl, 8, tree)
		for i := 0; i < 5; i++ {
			sess := a.session(i)
			if !reflect.DeepEqual(sess, b.session(i)) {
				t.Fatalf("tree=%v: session %d differs between two generators with one seed", tree, i)
			}
			if reflect.DeepEqual(sess, other.session(i)) {
				t.Errorf("tree=%v: session %d is the same under seeds 7 and 8", tree, i)
			}
			if i > 0 && reflect.DeepEqual(sess, a.session(i-1)) {
				t.Errorf("tree=%v: sessions %d and %d are the same", tree, i-1, i)
			}
			if len(sess) != clicksPerSession {
				t.Fatalf("session has %d clicks, want %d", len(sess), clicksPerSession)
			}
			for ci, cl := range sess {
				if len(cl.queries) != queriesPerClick {
					t.Fatalf("click has %d queries, want %d", len(cl.queries), queriesPerClick)
				}
				seen := map[string]bool{}
				for _, q := range cl.queries {
					if seen[q] {
						t.Errorf("tree=%v session %d click %d sends a query twice: %s", tree, i, ci, q)
					}
					seen[q] = true
				}
			}
		}
	}
}

func TestCountrySetsKeepTheirShare(t *testing.T) {
	c := smokeConfig(3)
	g := newSessions(c.generate(), 3, false)
	share := map[string]float64{}
	for i, v := range g.countries.values {
		share[v] = g.countries.share(i)
	}
	for i := 0; i < 20; i++ {
		total := 0.0
		for _, v := range g.countrySet(rand.New(rand.NewSource(int64(i)))) {
			total += share[v]
		}
		if total < countryShare-countryShareTol || total > countryShare+countryShareTol {
			t.Errorf("country set %d covers %.3f of the rows, want %.2f±%.2f", i, total, countryShare, countryShareTol)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got, err := percentile(s, 90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(s, 95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and was not refused")
	}
	if _, err := percentile(s[:99], 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(s, 50); err == nil {
		t.Error("p50 is not a tail percentile and was not refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(start, end int64) *span { return &span{Start: start, End: end} }
	cases := []struct {
		name     string
		parent   *span
		children []*span
		want     int64
	}{
		{"no children", sp(0, 100), nil, 100},
		{"sequential children", sp(0, 100), []*span{sp(10, 30), sp(40, 70)}, 50},
		{"a fan-out leaves what follows its slowest child", sp(0, 100), []*span{sp(0, 60), sp(0, 90), sp(0, 20)}, 10},
		{"overlap counts once", sp(0, 100), []*span{sp(10, 50), sp(30, 70)}, 40},
		{"a child is clipped to its parent", sp(50, 100), []*span{sp(0, 60), sp(90, 150)}, 30},
		{"a child slower than its parent leaves nothing", sp(0, 100), []*span{sp(0, 120)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSynthesizedLevelsGiveSelfTimes(t *testing.T) {
	var durs [levels][][]int64
	durs[levelEngine] = [][]int64{{10, 20, 30, 40}}
	durs[levelLeafRPC] = [][]int64{{15, 22, 36, 41}}
	durs[levelMixer] = [][]int64{{30, 50}}
	durs[levelRoot] = [][]int64{{57}}
	spans := synthesize(durs, 100)
	kids := childrenOf(spans)
	self := map[string][]int64{}
	for _, s := range spans {
		if s.ID <= 100 {
			t.Fatalf("span id %d collides with the engine pass's", s.ID)
		}
		self[s.Name] = append(self[s.Name], selfTime(s, kids[s.ID]))
	}
	want := map[string][]int64{
		"cluster.root":        {7},          // 57 − slower mixer (50)
		"cluster.mixer":       {8, 9},       // 30 − 22, 50 − 41
		"cluster.leaf_rpc":    {5, 2, 6, 1}, // RPC − engine
		"cluster.leaf_engine": {10, 20, 30, 40},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestSmoke runs every workload at smoke size, timed and traced, and holds
// each to what it was chosen for: the layer it exercises shows work, the
// layers it bypasses show none.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	expect := map[string]func(m map[string]metric) string{
		"click-resident": func(m map[string]metric) string {
			if m["colstore.cold_loads"].Value != 0 || m["cache.hit_rate"].Value != 0 {
				return "a resident store without a cache loaded from disk or hit a cache"
			}
			return ""
		},
		"click-cold": func(m map[string]metric) string {
			if m["memmgr.evictions"].Value == 0 || m["colstore.disk_bytes_read"].Value == 0 {
				return "a store four times its budget evicted nothing or read nothing"
			}
			return ""
		},
		"click-ingest": func(m map[string]metric) string {
			if m["ingest.seals"].Value == 0 || m["ingest.append_ack_p50_ms"].Value == 0 {
				return "appends were not sealed or not timed"
			}
			return ""
		},
		"click-tree": func(m map[string]metric) string {
			if m["cache.hit_rate"].Value == 0 || m["cluster.partial_bytes"].Value == 0 {
				return "the leaves' caches were never hit or no partial crossed the wire"
			}
			return ""
		},
	}
	for _, w := range workloads {
		c := smokeConfig(1)
		c.workDir, c.outDir = t.TempDir(), t.TempDir()
		for _, traced := range []bool{false, true} {
			rep, err := run(c, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, rep.failed, rep.attempted, rep.problems)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
				if msg := expect[w.name](rep.metrics); msg != "" {
					t.Errorf("%s: %s", w.name, msg)
				}
				if _, err := os.Stat(c.outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rep.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := rep.metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the driver's description of the
// benchmark and the program's own lists equal.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	asEntries := func(defs []def) []entry {
		var out []entry
		for _, d := range defs {
			out = append(out, entry{d.name, d.unit})
		}
		return out
	}
	if want := asEntries(endToEndDefs); !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end is %v, the program reports %v", spec.EndToEnd, want)
	}
	if want := asEntries(perLayerDefs); !reflect.DeepEqual(spec.PerLayer, want) {
		t.Errorf("per_layer is %v, the program reports %v", spec.PerLayer, want)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads are %v, the program runs %v", names, want)
	}
}
