package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"probdb/internal/cluster"
	"probdb/internal/server"
	"probdb/internal/storage"
)

// deployment is one booted system under test: a probserve, or a probrouter
// in front of shard probserves, all in this process on loopback. Every
// server runs with its defaults: fsync before each commit ack, and an
// auto-checkpoint once the WAL passes 1 MiB.
type deployment struct {
	dir     string
	servers []*server.Server
	router  *cluster.Router
	addr    string // what clients dial
}

// deploy boots the system for s under dir and loads it: the load
// statements, then the workload's ANALYZE/CREATE INDEX, then CHECKPOINT.
func deploy(s *spec, dir string, load []string) (*deployment, error) {
	d := &deployment{dir: dir}
	n := max(s.shards, 1)
	var shards []cluster.ShardSpec
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Addr: "127.0.0.1:0", DataDir: filepath.Join(dir, fmt.Sprintf("shard%d", i))})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("boot shard %d: %w", i, err)
		}
		if err := srv.Start(); err != nil {
			d.close()
			return nil, fmt.Errorf("start shard %d: %w", i, err)
		}
		d.servers = append(d.servers, srv)
		shards = append(shards, cluster.ShardSpec{Addr: srv.Addr().String()})
	}
	d.addr = d.servers[0].Addr().String()
	if s.shards > 0 {
		rdir := filepath.Join(dir, "router")
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			d.close()
			return nil, err
		}
		r, err := cluster.NewRouter(cluster.Config{Addr: "127.0.0.1:0", Dir: rdir, Shards: shards})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("boot router: %w", err)
		}
		if err := r.Start(); err != nil {
			d.close()
			return nil, fmt.Errorf("start router: %w", err)
		}
		d.router = r
		d.addr = r.Addr().String()
	}
	c, err := dial(d.addr)
	if err != nil {
		d.close()
		return nil, err
	}
	defer c.close()
	for _, sql := range s.setupStmts(load) {
		if _, err := c.wc.Query(sql); err != nil {
			d.close()
			return nil, fmt.Errorf("setup %.60q: %w", sql, err)
		}
	}
	return d, nil
}

// close stops the router and every shard, waiting for their sessions.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if d.router != nil {
		d.router.Shutdown(ctx) //nolint:errcheck // teardown: nothing left to report to
	}
	for _, s := range d.servers {
		s.Shutdown(ctx) //nolint:errcheck // teardown: nothing left to report to
	}
}

// heapPages sums the page count of every heap file under the deployment.
func (d *deployment) heapPages() int64 {
	var pages int64
	filepath.Walk(d.dir, func(path string, fi os.FileInfo, err error) error { //nolint:errcheck // best-effort size stamp
		if err == nil && !fi.IsDir() && filepath.Ext(path) == ".heap" {
			pages += fi.Size() / (storage.PageSize + 4)
		}
		return nil
	})
	return pages
}
