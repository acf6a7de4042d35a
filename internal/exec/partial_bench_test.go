package exec

import (
	"context"
	"sync"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/sql"
	"powerdrill/internal/workload"
)

// partialPathShards are four shards of the click benchmark's table, built
// the way bench/ builds them.
var partialPathShards = sync.OnceValues(func() ([]*Engine, error) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 200_000, Seed: 1})
	var engines []*Engine
	for _, shard := range tbl.Shard(4) {
		s, err := colstore.FromTable(shard, colstore.Options{
			PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 2000, OptimizeElements: true,
		})
		if err != nil {
			return nil, err
		}
		engines = append(engines, New(s, Options{}))
	}
	return engines, nil
})

// BenchmarkPartialPath times what a chart's result costs between the leaf's
// group table and the root's rows, stage by stage, one pass over four
// shards per iteration: emit (the group table wrapped as a partial, then
// resolved, as RunPartial does), encode, decode, merge 4, finalize — and
// path, all of them in the order a query runs them. wire-B is the four
// partials' bytes on the wire.
func BenchmarkPartialPath(b *testing.B) {
	engines, err := partialPathShards()
	if err != nil {
		b.Fatal(err)
	}
	for _, chart := range []struct{ name, query string }{
		{"two-key", "SELECT country AS k, user AS u, COUNT(*) AS v FROM data GROUP BY k, u ORDER BY v DESC, k ASC, u ASC LIMIT 10;"},
		{"date", "SELECT date(timestamp) AS k, AVG(latency) AS v FROM data GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;"},
		{"distinct", "SELECT country AS k, COUNT(DISTINCT table_name) AS v FROM data GROUP BY k ORDER BY v DESC, k ASC LIMIT 10;"},
	} {
		stmt, err := sql.Parse(chart.query)
		if err != nil {
			b.Fatal(err)
		}
		// One scanned group table per shard, pinned for the benchmark's life.
		plans, tables := make([]*plan, len(engines)), make([]*groupSet, len(engines))
		for i, e := range engines {
			ps := e.store.NewPinSet()
			defer ps.Release()
			if plans[i], err = e.prepare(context.Background(), stmt, ps); err != nil {
				b.Fatal(err)
			}
			if tables[i], _, err = e.executeChunks(plans[i]); err != nil {
				b.Fatal(err)
			}
		}
		emit := func() []*Partial {
			parts := make([]*Partial, len(engines))
			for i, e := range engines {
				if parts[i], err = e.emitPartial(plans[i], tables[i]); err != nil {
					b.Fatal(err)
				}
				parts[i].resolve()
			}
			return parts
		}
		encode := func(parts []*Partial) [][]byte {
			blobs := make([][]byte, len(parts))
			for i, p := range parts {
				blobs[i] = EncodePartial(p)
			}
			return blobs
		}
		decode := func(blobs [][]byte) []*Partial {
			parts := make([]*Partial, len(blobs))
			for i, blob := range blobs {
				if parts[i], err = DecodePartial(blob); err != nil {
					b.Fatal(err)
				}
			}
			return parts
		}
		merge := func(parts []*Partial) *Partial {
			merged, err := MergeAll(parts)
			if err != nil {
				b.Fatal(err)
			}
			return merged
		}
		finalize := func(merged *Partial) {
			if _, err := FinalizePartial(stmt, merged); err != nil {
				b.Fatal(err)
			}
		}
		parts := emit()
		blobs := encode(parts)
		merged := merge(decode(blobs))
		wire := 0
		for _, blob := range blobs {
			wire += len(blob)
		}
		for _, stage := range []struct {
			name string
			run  func()
		}{
			{"emit", func() { emit() }},
			{"encode", func() { encode(parts) }},
			{"decode", func() { decode(blobs) }},
			{"merge4", func() { merge(parts) }},
			{"finalize", func() { finalize(merged) }},
			{"path", func() { finalize(merge(decode(encode(emit())))) }},
		} {
			b.Run(chart.name+"/"+stage.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(merged.NumGroups()), "groups")
				b.ReportMetric(float64(wire), "wire-B")
				for i := 0; i < b.N; i++ {
					stage.run()
				}
			})
		}
	}
}
