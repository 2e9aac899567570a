package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lrc"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Deployment shape, the same for every workload.
const (
	numShards   = 2
	numReplicas = 2
	// churnThreshold is lrc-churn's immediate-mode trigger: an incremental
	// update goes out after this many name changes.
	churnThreshold = 100
	// preloadBatch is the mappings per BulkCreate while loading the catalog.
	preloadBatch = 1000
)

// wireCounter counts what the benchmark's client connections move.
type wireCounter struct {
	bytes  atomic.Int64 // both directions
	writes atomic.Int64 // client-side Write calls
}

type countedConn struct {
	net.Conn
	c *wireCounter
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytes.Add(int64(n))
	return n, err
}

// deployment is one running RLS deployment plus the benchmark's clients.
type deployment struct {
	dep      *core.Deployment
	tier     *core.ShardTier
	rlis     []*core.Node
	router   *client.Router
	failover *client.Failover
	wire     wireCounter
	or       *oracle
	// engines are the storage engines the workload's operations read and
	// write: the shards' for the LRC workloads, the replicas' for
	// rli-softstate. The storage.* metrics count on these.
	engines []*storage.Engine
}

// dialer connects to a node the way core's in-process dial does (an
// unshaped netsim pipe served by Server.ServeConn), with the client end
// counted.
func (d *deployment) dialer(n *core.Node) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		clientEnd, serverEnd := netsim.Pipe(netsim.Unshaped())
		go n.Server.ServeConn(serverEnd)
		return countedConn{Conn: clientEnd, c: &d.wire}, nil
	}
}

// build assembles the deployment for a workload. dir, when set, persists
// every engine under it (lrc-churn); otherwise engines are in memory.
//
// Soft-state wiring: lrc-query and rli-softstate have shard 0 send
// uncompressed full updates and shard 1 Bloom updates to both replicas,
// driven only by explicit passes. lrc-churn has every shard in immediate
// mode sending uncompressed incremental updates to replica 0 whenever
// churnThreshold names have changed.
func build(ctx context.Context, wl string, cat *catalog, window int, dir string) (*deployment, error) {
	fast := disk.Fast()
	d := &deployment{dep: core.NewDeployment()}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	spec := func(name string) core.ServerSpec {
		s := core.ServerSpec{Name: name, Disk: &fast, MaxInFlight: window}
		if dir != "" {
			s.DataDir = filepath.Join(dir, name)
		}
		return s
	}
	for i := 0; i < numReplicas; i++ {
		s := spec(fmt.Sprintf("rli%d", i))
		s.RLI = true
		n, err := d.dep.AddServer(s)
		if err != nil {
			return nil, err
		}
		d.rlis = append(d.rlis, n)
	}
	base := spec("") // AddShardedLRCs names each shard and its DataDir
	base.BloomSizeHint = cat.size() / numShards
	if wl == wlChurn {
		base.ImmediateMode = true
		base.ImmediateThreshold = churnThreshold
		base.ImmediateInterval = time.Hour // only the threshold fires
	}
	tier, err := d.dep.AddShardedLRCs(core.ShardedLRCSpec{Prefix: "lrc", Shards: numShards, Base: base})
	if err != nil {
		return nil, err
	}
	d.tier = tier
	for _, n := range tier.Nodes {
		d.engines = append(d.engines, n.LRCEngine)
	}
	if wl == wlSoft {
		d.engines = []*storage.Engine{d.rlis[0].RLIEngine, d.rlis[1].RLIEngine}
	}

	bloom, inDB := map[string]bool{}, map[string]bool{}
	for i, shard := range tier.Nodes {
		switch {
		case wl == wlChurn:
			err = d.dep.Connect(shard.Name, d.rlis[0].Name, false)
			inDB[shard.URL] = true
		default:
			useBloom := i%2 == 1
			for _, r := range d.rlis {
				if err = d.dep.Connect(shard.Name, r.Name, useBloom); err != nil {
					break
				}
			}
			bloom[shard.URL] = useBloom
			inDB[shard.URL] = !useBloom
		}
		if err != nil {
			return nil, err
		}
	}
	urls := make([]string, len(tier.Nodes))
	for i, n := range tier.Nodes {
		urls[i] = n.URL
	}
	d.or = newOracle(cat, urls, tier.Ring.OwnerIndex, bloom, inDB)

	shards := make([]client.ShardSpec, len(tier.Nodes))
	for i, n := range tier.Nodes {
		shards[i] = client.ShardSpec{Name: tier.Names[i], Opts: client.Options{Dialer: d.dialer(n)}}
	}
	if d.router, err = client.NewRouter(ctx, client.RouterOptions{Shards: shards, PoolSize: 1, VNodes: tier.Ring.VNodes()}); err != nil {
		return nil, err
	}
	replicas := make([]client.ReplicaSpec, len(d.rlis))
	for i, n := range d.rlis {
		replicas[i] = client.ReplicaSpec{Name: n.Name, Opts: client.Options{Dialer: d.dialer(n)}}
	}
	if d.failover, err = client.NewFailover(client.FailoverOptions{Replicas: replicas}); err != nil {
		return nil, err
	}
	if err := workload.Load(ctx, d.router, catNames, cat.size(), preloadBatch); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// owner returns the shard node that owns a logical name.
func (d *deployment) owner(logical string) *core.Node {
	return d.tier.Nodes[d.tier.Ring.OwnerIndex(logical)]
}

// passResult is one soft-state pass: every shard's ForceUpdate, in turn.
type passResult struct {
	wall    time.Duration
	results []lrc.TargetResult
}

// pass pushes soft state from every shard to every target it has. With a
// span buffer each shard's ForceUpdate is a child span of parent.
func (d *deployment) pass(ctx context.Context, b *spanBuf, req, parent int64) (passResult, error) {
	start := time.Now()
	var out passResult
	for _, n := range d.tier.Nodes {
		var sp int64
		if b != nil {
			sp = b.begin("lrc.force_update", req, parent)
		}
		results := n.LRC.ForceUpdate(ctx)
		if b != nil {
			b.end(sp)
		}
		for _, r := range results {
			if r.Err != nil || r.Skipped {
				return out, fmt.Errorf("soft-state %s update %s -> %s failed (skipped=%v): %v", r.Kind, n.URL, r.URL, r.Skipped, r.Err)
			}
			out.results = append(out.results, r)
		}
	}
	out.wall = time.Since(start)
	return out, nil
}

// reconcile checks every shard's catalog counts against the oracle.
func (d *deployment) reconcile() error {
	return d.or.reconcile(func(i int) (int64, int64, error) {
		logicals, _, mappings, err := d.tier.Nodes[i].LRC.DB().Counts()
		return logicals, mappings, err
	})
}

func (d *deployment) close() {
	if d.router != nil {
		_ = d.router.Close()
	}
	if d.failover != nil {
		_ = d.failover.Close()
	}
	d.dep.Close()
}
