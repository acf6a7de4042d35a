package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"time"

	"powerdrill"
	"powerdrill/internal/exec"
)

// statzPayload is the JSON shape of the /statz endpoint. A section is the
// struct that owns its counters, marshalled under the owner's json tags;
// beside an owner sit only the values computed from it for display.
type statzPayload struct {
	Rows        int          `json:"rows"`
	Chunks      int          `json:"chunks"`
	Memory      *memoryStatz `json:"memory,omitempty"`
	Engine      exec.Stats   `json:"engine"`
	ResultCache *cacheStatz  `json:"result_cache,omitempty"`
	// Ingest is present when the store has an active append path: the
	// committed generation, live segments and buffer state.
	Ingest *powerdrill.IngestStats `json:"ingest,omitempty"`
	// LastScrub is present once a background scrub pass (-scrub-interval)
	// has completed: when it ran, what it covered, and the verdicts.
	LastScrub *scrubStatz `json:"last_scrub,omitempty"`
	// Cluster is present in coordinator mode (-shards, -connect) and mixer
	// mode (-mixer): fan-out counters and per-child health.
	Cluster *clusterStatz `json:"cluster,omitempty"`
}

// The owners, each beside what is computed from it: hit rates, the
// scrub's time in RFC 3339, durations in milliseconds.
type (
	memoryStatz struct {
		powerdrill.MemoryStats
		HitRate float64 `json:"hit_rate"`
	}
	cacheStatz struct {
		powerdrill.CacheStats
		HitRate float64 `json:"hit_rate"`
	}
	scrubStatz struct {
		powerdrill.ScrubStatus
		Time      string  `json:"time"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	clusterStatz struct {
		powerdrill.ClusterStats
		Leaves []leafStatz `json:"leaves"`
	}
	leafStatz struct {
		powerdrill.LeafHealth
		LatencyEWMAMS float64 `json:"latency_ewma_ms"`
	}
)

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func memStatz(ms powerdrill.MemoryStats, ok bool) *memoryStatz {
	if !ok {
		return nil
	}
	return &memoryStatz{ms, ms.HitRate()}
}

// dispatchStatz renders a dispatcher's fan-out counters and per-child
// health: coordinators and mixers share the shape.
func dispatchStatz(st powerdrill.ClusterStats, health []powerdrill.LeafHealth) *clusterStatz {
	s := &clusterStatz{ClusterStats: st}
	for _, h := range health {
		s.Leaves = append(s.Leaves, leafStatz{h, millis(h.LatencyEWMA)})
	}
	return s
}

func writeStatz(w http.ResponseWriter, p *statzPayload) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}

// mixerStatzHandler serves a mixer node's runtime counters: its own
// fan-out statistics and its view of its children's health.
func mixerStatzHandler(m *powerdrill.Mixer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeStatz(w, &statzPayload{Cluster: dispatchStatz(m.Stats(), m.Health())})
	})
}

// statzHandler serves the leaf's runtime counters as JSON.
func statzHandler(store *powerdrill.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := statzPayload{
			Rows:   store.NumRows(),
			Chunks: store.NumChunks(),
			Memory: memStatz(store.MemStats()),
			Engine: store.EngineStats(),
		}
		if cs, ok := store.ResultCacheStats(); ok {
			p.ResultCache = &cacheStatz{cs, cs.HitRate()}
		}
		if ss, ok := store.LastScrub(); ok {
			p.LastScrub = &scrubStatz{ss, ss.Time.Format(time.RFC3339), millis(ss.Elapsed)}
		}
		if is, ok := store.IngestStats(); ok {
			p.Ingest = &is
		}
		writeStatz(w, &p)
	})
}

// ingestRequest is the JSON body of POST /ingest: a columnar batch, one
// entry per store column, all the same length.
type ingestRequest struct {
	Columns []ingestColumn `json:"columns"`
}

type ingestColumn struct {
	Name string `json:"name"`
	// Kind is "string", "int64" or "float64"; exactly one of the value
	// arrays must be set accordingly.
	Kind   string    `json:"kind"`
	Strs   []string  `json:"strs,omitempty"`
	Ints   []int64   `json:"ints,omitempty"`
	Floats []float64 `json:"floats,omitempty"`
}

// maxIngestBodyBytes bounds the body of one POST /ingest: the batch is
// decoded in memory whole, so a client that wants to send more sends
// several batches.
const maxIngestBodyBytes = 16 << 20

// ingestHandler appends a POSTed batch through the store's streaming
// ingestion path; the rows are visible to queries as soon as the request
// returns. ?flush=1 additionally seals the write buffer (durability
// barrier). A body over maxIngestBodyBytes is refused with 413, and
// nothing of it appended.
func ingestHandler(store *powerdrill.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a columnar batch", http.StatusMethodNotAllowed)
			return
		}
		var req ingestRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBodyBytes)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		tbl := powerdrill.NewTable("data")
		rows := -1
		for _, c := range req.Columns {
			var n int
			switch c.Kind {
			case "string":
				tbl, n = tbl.AddStringColumn(c.Name, c.Strs), len(c.Strs)
			case "int64":
				tbl, n = tbl.AddInt64Column(c.Name, c.Ints), len(c.Ints)
			case "float64":
				tbl, n = tbl.AddFloat64Column(c.Name, c.Floats), len(c.Floats)
			default:
				http.Error(w, "column "+c.Name+": kind must be string, int64 or float64", http.StatusBadRequest)
				return
			}
			if rows >= 0 && n != rows {
				http.Error(w, "ragged batch: columns differ in length", http.StatusBadRequest)
				return
			}
			rows = n
		}
		if err := store.Append(tbl); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if r.URL.Query().Get("flush") != "" {
			if err := store.Flush(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{"appended": rows, "rows": store.NumRows()})
	})
}

// statzMux routes the leaf observability endpoints: /statz counters and
// /ingest streaming appends.
func statzMux(store *powerdrill.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/statz", statzHandler(store))
	mux.Handle("/ingest", ingestHandler(store))
	return mux
}

// coordinatorStatzHandler serves the coordinator's runtime counters:
// cluster fan-out stats, per-leaf breaker health and latency, and the
// shared memory manager's accounting.
func coordinatorStatzHandler(c *powerdrill.Cluster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeStatz(w, &statzPayload{Cluster: dispatchStatz(c.Stats(), c.Health()), Memory: memStatz(c.MemStats())})
	})
}

// queryResponse is the JSON shape of the coordinator's /query endpoint.
type queryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Coverage is the fraction of rows the answer spans; < 1 marks a
	// partial answer served because shards were unreachable.
	Coverage      float64 `json:"coverage"`
	ShardsMissing int64   `json:"shards_missing"`
}

// queryHandler answers GET /query?q=SQL against the cluster.
func queryHandler(c *powerdrill.Cluster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			// net/url rejects a literal ';' anywhere in the query string,
			// silently dropping the pair that contains it — and SQL ends in
			// one. Retry with semicolons escaped so a hand-typed curl works.
			if vs, err := url.ParseQuery(strings.ReplaceAll(r.URL.RawQuery, ";", "%3B")); err == nil {
				q = vs.Get("q")
			}
		}
		if q == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		res, err := c.QueryContext(r.Context(), q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp := queryResponse{Columns: res.Columns, Rows: make([][]string, len(res.Rows)), Coverage: res.Coverage, ShardsMissing: res.Stats.ShardsMissing}
		for i, row := range res.Rows {
			resp.Rows[i] = make([]string, len(row))
			for j, v := range row {
				resp.Rows[i][j] = v.String()
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
}

// serveCoordinatorStatz starts the coordinator observability listener.
func serveCoordinatorStatz(addr string, c *powerdrill.Cluster) error {
	mux := http.NewServeMux()
	mux.Handle("/statz", coordinatorStatzHandler(c))
	mux.Handle("/query", queryHandler(c))
	return http.ListenAndServe(addr, mux)
}
