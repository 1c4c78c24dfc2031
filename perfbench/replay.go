package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"probdb/internal/core"
	"probdb/internal/query"
	"probdb/internal/server"
	"probdb/internal/wire"
)

// countNames are the per-op counts that must repeat exactly when one
// session replays the same ops over the same data.
var countNames = []string{"rows", "page_reads", "wal_bytes", "vec_tuples", "scalar_tuples", "index_probes", "index_pruned", "alloc_bytes"}

// engineRun is what one in-process replay measured.
type engineRun struct {
	counts       [][]uint64 // per op, in countNames order
	parseUs      []float64  // per statement
	firstBatchMs []float64  // per streamed read: ExecuteStream call until the first sink callback
	streamMs     []float64  // per streamed read: first sink callback until return
	codecUs      float64    // EncodeRowBatch + DecodeRowBatch, all ops
	batches      int        // non-empty sink callbacks of reads
	reads        int
	readRows     int
	readNs       int64  // ExecuteStream time of reads, sink work excluded
	readAlloc    uint64 // heap bytes ExecuteStream allocated for reads, sink work excluded
	ops          int
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// engineReplay loads a fresh in-process server.Engine exactly as deploy
// loads a server, then replays ops through one session, with spans around
// query.Parse, Engine.ExecuteStream, each sink callback and the row-batch
// codec the server would run on each batch.
func engineReplay(s *spec, dir string, load []string, ops []op, tr *tracer) (*engineRun, error) {
	eng, err := server.OpenEngine(server.EngineConfig{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open replay engine: %w", err)
	}
	defer eng.Close() //nolint:errcheck // replay engine is discarded
	for _, sql := range s.setupStmts(load) {
		if _, err := eng.Execute(sql); err != nil {
			return nil, fmt.Errorf("replay setup %.60q: %w", sql, err)
		}
	}
	run := &engineRun{}
	ctx := context.Background()
	for i, o := range ops {
		opID := int32(i)
		root := tr.begin(opID, -1, "op."+o.class)
		stmts := o.sql
		if o.kind == opTxn {
			stmts = append(append([]string{"BEGIN"}, o.sql...), "COMMIT")
		}
		vec := make([]uint64, len(countNames))
		for _, sql := range stmts {
			sp := tr.begin(opID, root, "query.Parse")
			t0 := time.Now()
			if _, err := query.Parse(sql); err != nil {
				return nil, fmt.Errorf("replay parse %.60q: %w", sql, err)
			}
			run.parseUs = append(run.parseUs, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(sp)

			var (
				first     time.Time
				seq       uint64
				rows      int
				batches   int
				sinkNs    int64
				sinkAlloc uint64
			)
			exec := tr.begin(opID, root, "server.Engine.ExecuteStream")
			a0 := allocBytes()
			t0 = time.Now()
			res, streamed, err := eng.ExecuteStream(ctx, sql, func(hdr *core.Table, batch []*core.Tuple) error {
				s0, sa0 := time.Now(), allocBytes()
				if first.IsZero() {
					first = s0
				}
				sk := tr.begin(opID, exec, "sink")
				if len(batch) > 0 {
					b := &wire.RowBatch{Seq: seq, Rows: wire.RowsOf(hdr, batch)}
					if seq == 0 {
						b.Name, b.Cols = hdr.Name, wire.ColumnsOf(hdr)
					}
					seq++
					c0 := time.Now()
					enc := tr.begin(opID, sk, "wire.EncodeRowBatch")
					payload := wire.EncodeRowBatch(b)
					tr.end(enc)
					dec := tr.begin(opID, sk, "wire.DecodeRowBatch")
					_, derr := wire.DecodeRowBatch(payload)
					tr.end(dec)
					run.codecUs += float64(time.Since(c0).Nanoseconds()) / 1e3
					if derr != nil {
						return derr
					}
					rows += len(batch)
					batches++
				}
				tr.end(sk)
				sinkAlloc += allocBytes() - sa0
				sinkNs += time.Since(s0).Nanoseconds()
				return nil
			})
			end := time.Now()
			alloc := allocBytes() - a0 - sinkAlloc
			tr.end(exec)
			if err != nil {
				return nil, fmt.Errorf("replay %.60q: %w", sql, err)
			}
			if !streamed && res.Table != nil {
				rows = len(res.Table.Rows)
			}
			if o.kind == opRead {
				run.reads++
				run.readRows += rows
				run.batches += batches
				run.readNs += end.Sub(t0).Nanoseconds() - sinkNs
				run.readAlloc += alloc
				if !first.IsZero() {
					run.firstBatchMs = append(run.firstBatchMs, float64(first.Sub(t0).Nanoseconds())/1e6)
					run.streamMs = append(run.streamMs, float64(end.Sub(first).Nanoseconds())/1e6)
				}
			}
			st := res.Stats
			for j, v := range []uint64{uint64(rows), st.PageReads, st.WALBytes, st.VecTuples, st.ScalarTuples, st.IndexProbes, st.IndexPruned, alloc} {
				vec[j] += v
			}
		}
		tr.end(root)
		run.counts = append(run.counts, vec)
		run.ops++
	}
	return run, nil
}

// notRepeating maps each count whose per-op values differ between two
// replays of the same ops to the largest difference, as a share of the
// first replay's value.
func notRepeating(a, b *engineRun) map[string]float64 {
	out := map[string]float64{}
	for j, name := range countNames {
		for i := range a.counts {
			x, y := float64(a.counts[i][j]), float64(b.counts[i][j])
			if x != y {
				out[name] = max(out[name], math.Abs(y-x)/max(x, 1))
			}
		}
	}
	return out
}

// routerProbe sends each read through the deployment's front door and then
// straight to every server behind it, one at a time on an otherwise idle
// deployment, and returns the front door's latency minus the slowest
// server's for each: the router's cost. On a single node the front door is
// the server itself, so the differences are the probe's own noise around 0.
func routerProbe(dep *deployment, reads []op) ([]float64, error) {
	rc, err := dial(dep.addr)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	var shards []*client
	defer func() {
		for _, c := range shards {
			c.close()
		}
	}()
	for _, srv := range dep.servers {
		c, err := dial(srv.Addr().String())
		if err != nil {
			return nil, err
		}
		shards = append(shards, c)
	}
	var out []float64
	for _, o := range reads {
		rp, err := rc.exec(o.sql[0], false, 0, -1)
		if err != nil {
			return nil, fmt.Errorf("router probe %.60q: %w", o.sql[0], err)
		}
		var slowest time.Duration
		for _, c := range shards {
			sp, err := c.exec(o.sql[0], false, 0, -1)
			if err != nil {
				return nil, fmt.Errorf("shard probe %.60q: %w", o.sql[0], err)
			}
			slowest = max(slowest, sp.lat)
		}
		out = append(out, float64((rp.lat-slowest).Nanoseconds())/1e6)
	}
	return out, nil
}
