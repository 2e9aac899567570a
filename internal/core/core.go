// Package core is the public facade of the RLS reproduction: it assembles
// storage engines, LRC/RLI services, servers and transports into a running
// Replica Location Service deployment, either in-process (zero-syscall
// pipes, optionally shaped to LAN/WAN conditions) or on TCP listeners.
//
// A Deployment is the programmatic equivalent of the paper's static
// configuration files (§3.6: "we use a simple static configuration of LRCs
// and RLIs"): add servers, connect LRCs to the RLIs they update, dial
// clients.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/backoff"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/disk"
	"repro/internal/lrc"
	"repro/internal/netsim"
	"repro/internal/rdb"
	"repro/internal/ring"
	"repro/internal/rli"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ServerSpec describes one RLS server to add to a deployment.
type ServerSpec struct {
	// Name identifies the server within the deployment; its in-process URL
	// is "rls://<name>".
	Name string
	// LRC and RLI select the roles; at least one must be set unless the
	// server carries the membership (seed) role via Members.
	LRC bool
	RLI bool

	// Members, when set, makes this server a membership seed: it serves the
	// member join/leave/heartbeat/view opcodes from the given registry
	// (typically a *membership.Registry). The caller owns the registry's
	// lifecycle — Deployment.Close does not stop it.
	Members server.Membership

	// Listen starts a TCP listener on 127.0.0.1 (ephemeral port) in
	// addition to the in-process transport.
	Listen bool
	// ListenAddr starts a TCP listener on an explicit address (host:port),
	// taking precedence over Listen.
	ListenAddr string
	// Net shapes every connection to this server (LAN, WAN, unshaped).
	Net netsim.Profile
	// Faults optionally subjects every in-process connection dialed to this
	// server — client dials and LRC soft-state updater dials alike — to the
	// fault-injection layer, composing with Net shaping (faults outermost).
	// The chaos harness uses this to reset, stall, drop, or partition one
	// node's links mid-run and heal them later.
	Faults *netsim.Faults

	// Personality selects the database back end behaviour (MySQL-like or
	// PostgreSQL-like).
	Personality storage.Personality
	// FlushOnCommit enables the per-transaction database flush of Figure 4.
	FlushOnCommit bool
	// Disk configures the simulated device; zero value means the 2004-era
	// default model. Use disk.Fast() for cost-free storage.
	Disk *disk.Params
	// DataDir persists the database under a directory; empty runs in
	// memory.
	DataDir string

	// ImmediateMode enables incremental soft state updates (§3.3).
	ImmediateMode      bool
	ImmediateInterval  time.Duration
	ImmediateThreshold int
	// FullInterval spaces periodic full updates; zero leaves updates to
	// explicit ForceUpdate calls.
	FullInterval time.Duration
	// FullBatch overrides the names-per-frame batch size of full updates.
	FullBatch int
	// BloomSizeHint pre-sizes the LRC Bloom filter.
	BloomSizeHint int

	// RLITimeout and RLIExpireInterval configure the RLI expire thread.
	RLITimeout        time.Duration
	RLIExpireInterval time.Duration

	// Auth enables authentication/authorization; nil means open mode.
	Auth *auth.Authenticator
	// Clock overrides the time source (fake clocks in tests).
	Clock clock.Clock

	// MaxInFlight caps requests dispatched concurrently per connection by
	// this server; values <= 1 keep the lock-step per-connection loop.
	MaxInFlight int
	// SSWindow pipelines soft-state updates sent by this LRC: the number
	// of full-update batches kept in flight per RLI target
	// (lrc.Config.UpdateWindow); values <= 1 keep lock-step sends with a
	// fresh dial per update.
	SSWindow int
	// SSConns sizes the soft-state connection pool per RLI target; values
	// <= 1 use a single connection.
	SSConns int
	// SSBackoff spaces this LRC's half-open probes to quarantined RLI
	// targets; the zero value uses the backoff package defaults.
	SSBackoff backoff.Policy
	// SSFailThreshold is the consecutive-failure count after which an RLI
	// target is quarantined; zero uses backoff.DefaultFailThreshold.
	SSFailThreshold int
	// SSBreakerSeed makes per-target probe jitter deterministic for tests
	// and the chaos harness.
	SSBreakerSeed int64

	// ShardRing and ShardSelf give a sharded LRC its ring identity:
	// logical-keyed mutations whose ring owner is not ShardSelf are
	// rejected (lrc.NotOwnerError). Nil ShardRing disables sharding.
	// AddShardedLRCs fills these in; set them directly only when
	// assembling a shard tier by hand.
	ShardRing *ring.Ring
	ShardSelf string

	// IdleTimeout reaps connections idle for this long; zero disables.
	IdleTimeout time.Duration
	// SlowOpThreshold logs and counts dispatches at/above this duration;
	// zero disables.
	SlowOpThreshold time.Duration
	// StatsLogInterval emits periodic telemetry summaries; zero disables.
	StatsLogInterval time.Duration
	// Logger receives server diagnostics and telemetry summaries.
	Logger *slog.Logger
}

// Node is one running server in a deployment.
type Node struct {
	Name string
	URL  string

	Server *server.Server
	LRC    *lrc.Service
	RLI    *rli.Service

	// LRCEngine and RLIEngine are the per-role storage engines (nil when
	// the role is absent; RLIEngine is nil for Bloom-only RLIs too — it is
	// created lazily with the role).
	LRCEngine *storage.Engine
	RLIEngine *storage.Engine
	// Device is the simulated disk shared by this node's engines.
	Device *disk.Device

	net      netsim.Profile
	faults   *netsim.Faults
	listener net.Listener
	serving  chan struct{} // closed when the listener's Serve loop returns
	dep      *Deployment
}

// storageStats sums storage-engine and simulated-disk activity across the
// node's engines for the server's stats snapshot.
func (n *Node) storageStats() server.StorageStats {
	var out server.StorageStats
	for _, eng := range []*storage.Engine{n.LRCEngine, n.RLIEngine} {
		if eng == nil {
			continue
		}
		st := eng.Stats()
		out.WALAppends += st.WALAppends
		out.WALFlushes += st.WALFlushes
		out.WALBytes += st.WALBytes
		gc := st.GroupCommit
		out.GroupCommitCommits += gc.Commits
		out.GroupCommitBatches += gc.Batches
		out.GroupCommitSyncsAvoided += gc.SyncsAvoided
		if gc.MaxBatch > out.GroupCommitMaxBatch {
			out.GroupCommitMaxBatch = gc.MaxBatch
		}
		if out.GroupCommitBatchSizes == nil {
			out.GroupCommitBatchSizes = make([]int64, len(gc.BatchSizes))
		}
		for i, n := range gc.BatchSizes {
			out.GroupCommitBatchSizes[i] += n
		}
		for _, ts := range st.Tables {
			out.LatchWaits += ts.LatchWaits
			out.LatchWaitNS += ts.LatchWaitNS
		}
		sn := st.Snapshots
		if epoch := int64(sn.Epoch); epoch > out.SnapshotEpoch {
			out.SnapshotEpoch = epoch
		}
		out.SnapshotsTaken += sn.Taken
		out.VersionsPublished += sn.Published
		out.SnapshotsPinned += sn.Pinned
		if sn.OldestPinned != 0 {
			if out.SnapshotOldestPinned == 0 || int64(sn.OldestPinned) < out.SnapshotOldestPinned {
				out.SnapshotOldestPinned = int64(sn.OldestPinned)
			}
		}
		if sn.OldestPinAgeNS > out.SnapshotOldestPinAgeNS {
			out.SnapshotOldestPinAgeNS = sn.OldestPinAgeNS
		}
	}
	if n.Device != nil {
		out.DeadTupleVisits = n.Device.Stats().DeadVisits
	}
	return out
}

// Addr returns the TCP address if the node listens, else "".
func (n *Node) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Deployment is a set of RLS servers plus the wiring to reach them.
type Deployment struct {
	mu    sync.Mutex
	nodes map[string]*Node // by name
	byURL map[string]*Node
}

// NewDeployment returns an empty deployment.
func NewDeployment() *Deployment {
	return &Deployment{
		nodes: make(map[string]*Node),
		byURL: make(map[string]*Node),
	}
}

// AddServer builds and starts a server per the spec.
func (d *Deployment) AddServer(spec ServerSpec) (*Node, error) {
	if spec.Name == "" {
		return nil, errors.New("core: ServerSpec.Name is required")
	}
	if !spec.LRC && !spec.RLI && spec.Members == nil {
		return nil, fmt.Errorf("core: server %s needs at least one role", spec.Name)
	}
	d.mu.Lock()
	if _, dup := d.nodes[spec.Name]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("core: duplicate server name %q", spec.Name)
	}
	d.mu.Unlock()

	diskParams := disk.DefaultParams()
	if spec.Disk != nil {
		diskParams = *spec.Disk
	}
	if spec.Clock != nil && diskParams.Clock == nil {
		diskParams.Clock = spec.Clock
	}
	device := disk.New(diskParams)
	node := &Node{
		Name:   spec.Name,
		URL:    "rls://" + spec.Name,
		Device: device,
		net:    spec.Net,
		faults: spec.Faults,
		dep:    d,
	}

	engineFor := func(suffix string) (*storage.Engine, error) {
		opts := storage.Options{
			Personality:   spec.Personality,
			FlushOnCommit: spec.FlushOnCommit,
			Device:        device,
			Clock:         spec.Clock,
		}
		if spec.DataDir == "" {
			return storage.OpenMemory(opts), nil
		}
		return storage.Open(spec.DataDir+"/"+suffix, opts)
	}

	cleanup := func() {
		if node.LRC != nil {
			node.LRC.Close()
		}
		if node.RLI != nil {
			node.RLI.Close()
		}
		if node.LRCEngine != nil {
			node.LRCEngine.Close()
		}
		if node.RLIEngine != nil {
			node.RLIEngine.Close()
		}
	}

	if spec.LRC {
		eng, err := engineFor("lrc")
		if err != nil {
			return nil, err
		}
		node.LRCEngine = eng
		var db *rdb.LRCDB
		if len(eng.Stats().Tables) > 0 {
			db, err = rdb.OpenLRCDB(eng) // reopened persistent database
		} else {
			db, err = rdb.NewLRCDB(eng)
		}
		if err != nil {
			cleanup()
			return nil, err
		}
		svc, err := lrc.New(context.Background(), lrc.Config{
			URL:                node.URL,
			DB:                 db,
			Dial:               d.updaterDialer(spec.SSConns, spec.SSWindow),
			Clock:              spec.Clock,
			ImmediateMode:      spec.ImmediateMode,
			ImmediateInterval:  spec.ImmediateInterval,
			ImmediateThreshold: spec.ImmediateThreshold,
			FullInterval:       spec.FullInterval,
			FullBatch:          spec.FullBatch,
			BloomSizeHint:      spec.BloomSizeHint,
			UpdateWindow:       spec.SSWindow,
			Backoff:            spec.SSBackoff,
			FailThreshold:      spec.SSFailThreshold,
			BreakerSeed:        spec.SSBreakerSeed,
			ShardRing:          spec.ShardRing,
			ShardSelf:          spec.ShardSelf,
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		node.LRC = svc
		svc.Start()
	}
	if spec.RLI {
		eng, err := engineFor("rli")
		if err != nil {
			cleanup()
			return nil, err
		}
		node.RLIEngine = eng
		var db *rdb.RLIDB
		if len(eng.Stats().Tables) > 0 {
			db, err = rdb.OpenRLIDB(eng) // reopened persistent database
		} else {
			db, err = rdb.NewRLIDB(eng)
		}
		if err != nil {
			cleanup()
			return nil, err
		}
		svc, err := rli.New(rli.Config{
			URL:            node.URL,
			DB:             db,
			Clock:          spec.Clock,
			Timeout:        spec.RLITimeout,
			ExpireInterval: spec.RLIExpireInterval,
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		node.RLI = svc
		svc.Start()
	}

	srv, err := server.New(server.Config{
		URL:              node.URL,
		LRC:              node.LRC,
		RLI:              node.RLI,
		Members:          spec.Members,
		Auth:             spec.Auth,
		Clock:            spec.Clock,
		Logger:           spec.Logger,
		IdleTimeout:      spec.IdleTimeout,
		SlowOpThreshold:  spec.SlowOpThreshold,
		StatsLogInterval: spec.StatsLogInterval,
		StorageStats:     node.storageStats,
		MaxInFlight:      spec.MaxInFlight,
	})
	if err != nil {
		cleanup()
		return nil, err
	}
	node.Server = srv

	if spec.Listen || spec.ListenAddr != "" {
		addr := spec.ListenAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			cleanup()
			return nil, err
		}
		node.listener = l
		node.serving = make(chan struct{})
		go func() {
			defer close(node.serving)
			// Serve returns nil when the server closed first and net.ErrClosed
			// (through any netsim wrapping) when Deployment.Close closed the
			// listener first: both are clean shutdowns. Anything else means
			// the listener died under us and deserves a log line.
			if err := srv.Serve(netsim.WrapListener(l, spec.Net)); err != nil && !errors.Is(err, net.ErrClosed) {
				logger := spec.Logger
				if logger == nil {
					logger = slog.Default()
				}
				logger.Warn("node listener failed", "node", spec.Name, "err", err)
			}
		}()
	}

	d.mu.Lock()
	d.nodes[spec.Name] = node
	d.byURL[node.URL] = node
	d.mu.Unlock()
	return node, nil
}

// Nodes returns every server in the deployment, sorted by name.
func (d *Deployment) Nodes() []*Node {
	d.mu.Lock()
	out := make([]*Node, 0, len(d.nodes))
	for _, n := range d.nodes {
		out = append(out, n)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Node returns a server by name.
func (d *Deployment) Node(name string) (*Node, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[name]
	return n, ok
}

// dialNode opens a transport to the node: an in-process shaped pipe,
// subject to the node's fault-injection layer when one is configured.
func (d *Deployment) dialNode(n *Node) (net.Conn, error) {
	clientEnd, serverEnd := netsim.Pipe(n.net)
	go n.Server.ServeConn(serverEnd)
	if n.faults != nil {
		return n.faults.Wrap(clientEnd), nil
	}
	return clientEnd, nil
}

// resolve finds a node by deployment URL.
func (d *Deployment) resolve(url string) (*Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.byURL[url]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("core: no server with url %q in deployment", url)
}

// updaterDialer lets LRC services reach RLI nodes by URL for soft state
// updates. With conns > 1 each dial opens a pipelined connection pool; the
// window sizes the per-connection in-flight cap to match the LRC's
// soft-state update window.
func (d *Deployment) updaterDialer(conns, window int) lrc.Dialer {
	return func(ctx context.Context, url string) (lrc.Updater, error) {
		n, err := d.resolve(url)
		if err != nil {
			return nil, err
		}
		opts := client.Options{
			Dialer: func() (net.Conn, error) { return d.dialNode(n) },
		}
		if window > 1 {
			opts.MaxInFlight = window
		}
		if conns > 1 {
			return client.NewPool(ctx, opts, conns)
		}
		return client.Dial(ctx, opts)
	}
}

// DialOptions carries client identity and pipelining for Dial.
type DialOptions struct {
	DN    string
	Token string
	// MaxInFlight caps the client's concurrently outstanding requests per
	// connection; 0 leaves the client uncapped (lock-step callers never
	// notice either way — the cap only matters under concurrent calls).
	MaxInFlight int
}

// Dial opens a client to the named server over the in-process transport.
func (d *Deployment) Dial(name string, opts ...DialOptions) (*client.Client, error) {
	d.mu.Lock()
	n, ok := d.nodes[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no server named %q", name)
	}
	var o DialOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return client.Dial(context.Background(), client.Options{
		DN:          o.DN,
		Token:       o.Token,
		MaxInFlight: o.MaxInFlight,
		Dialer:      func() (net.Conn, error) { return d.dialNode(n) },
	})
}

// DialReliable opens a retrying client to the named server over the
// in-process transport: idempotent operations (queries, diagnostics) are
// retried with jittered exponential backoff and automatic redial per the
// retry options — the client-side half of the failure model the chaos
// harness exercises.
func (d *Deployment) DialReliable(name string, retry client.RetryOptions, opts ...DialOptions) (*client.Reliable, error) {
	d.mu.Lock()
	n, ok := d.nodes[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no server named %q", name)
	}
	var o DialOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return client.NewReliable(client.Options{
		DN:          o.DN,
		Token:       o.Token,
		MaxInFlight: o.MaxInFlight,
		Dialer:      func() (net.Conn, error) { return d.dialNode(n) },
	}, retry), nil
}

// DialTCP opens a client over the node's TCP listener (shaped client-side
// with the node's profile, matching the server-side shaping).
func (d *Deployment) DialTCP(name string, opts ...DialOptions) (*client.Client, error) {
	d.mu.Lock()
	n, ok := d.nodes[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no server named %q", name)
	}
	if n.listener == nil {
		return nil, fmt.Errorf("core: server %q has no TCP listener", name)
	}
	var o DialOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	addr := n.listener.Addr().String()
	return client.Dial(context.Background(), client.Options{
		DN:          o.DN,
		Token:       o.Token,
		MaxInFlight: o.MaxInFlight,
		Dialer: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return netsim.Wrap(raw, n.net), nil
		},
	})
}

// DialFailover opens a replica-aware client over the named servers: reads
// try healthy replicas first (per-replica circuit breakers steer the order)
// and fail over on transport errors, retryable statuses, and not-found —
// the read side of a replicated RLI group. The breaker configuration uses
// backoff defaults; replica breaker seeds derive from the name list order.
func (d *Deployment) DialFailover(names ...string) (*client.Failover, error) {
	if len(names) == 0 {
		return nil, errors.New("core: DialFailover needs at least one server name")
	}
	specs := make([]client.ReplicaSpec, 0, len(names))
	for _, name := range names {
		d.mu.Lock()
		n, ok := d.nodes[name]
		d.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("core: no server named %q", name)
		}
		node := n
		specs = append(specs, client.ReplicaSpec{
			Name: name,
			Opts: client.Options{
				Dialer: func() (net.Conn, error) { return d.dialNode(node) },
			},
		})
	}
	return client.NewFailover(client.FailoverOptions{Replicas: specs})
}

// DialURL opens a client to the server with the given deployment URL
// ("rls://<name>") over the in-process transport. Membership agents use
// this as their seed dialer: client.Client satisfies membership.MemberClient.
func (d *Deployment) DialURL(ctx context.Context, url string) (*client.Client, error) {
	n, err := d.resolve(url)
	if err != nil {
		return nil, err
	}
	return client.Dial(ctx, client.Options{
		Dialer: func() (net.Conn, error) { return d.dialNode(n) },
	})
}

// BootstrapStandby warm-starts the named standby RLI from a live peer
// replica: it pulls the peer's per-LRC Bloom snapshot and installs it into
// the standby, so the standby answers (possibly stale) queries immediately
// instead of waiting out a full soft-state cycle. The next incremental or
// full update from each LRC then freshens the imported state in place.
// Returns how many per-LRC filters were installed.
func (d *Deployment) BootstrapStandby(ctx context.Context, standbyName, peerName string) (int, error) {
	standby, ok := d.Node(standbyName)
	if !ok || standby.RLI == nil {
		return 0, fmt.Errorf("core: %q is not an RLI in this deployment", standbyName)
	}
	peer, ok := d.Node(peerName)
	if !ok || peer.RLI == nil {
		return 0, fmt.Errorf("core: %q is not an RLI in this deployment", peerName)
	}
	c, err := d.Dial(peerName)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	entries, err := c.RLISnapshot(ctx)
	if err != nil {
		return 0, fmt.Errorf("core: snapshot pull from %q: %w", peerName, err)
	}
	return standby.RLI.ImportSnapshot(ctx, entries)
}

// Connect registers RLI update targets: the named LRC starts sending soft
// state updates to the named RLI, either uncompressed or Bloom-compressed,
// optionally partitioned by the regular expressions.
func (d *Deployment) Connect(lrcName, rliName string, bloomUpdates bool, patterns ...string) error {
	lnode, ok := d.Node(lrcName)
	if !ok || lnode.LRC == nil {
		return fmt.Errorf("core: %q is not an LRC in this deployment", lrcName)
	}
	rnode, ok := d.Node(rliName)
	if !ok || rnode.RLI == nil {
		return fmt.Errorf("core: %q is not an RLI in this deployment", rliName)
	}
	return lnode.LRC.AddRLITarget(context.Background(), wire.RLITarget{
		URL:      rnode.URL,
		Bloom:    bloomUpdates,
		Patterns: patterns,
	})
}

// ConnectRLI wires the hierarchical-RLI extension (paper §7): the child RLI
// forwards its aggregated state — per-LRC full updates and Bloom filters —
// to the parent RLI, so queries at the parent cover everything registered
// below the child.
func (d *Deployment) ConnectRLI(childName, parentName string) error {
	child, ok := d.Node(childName)
	if !ok || child.RLI == nil {
		return fmt.Errorf("core: %q is not an RLI in this deployment", childName)
	}
	parent, ok := d.Node(parentName)
	if !ok || parent.RLI == nil {
		return fmt.Errorf("core: %q is not an RLI in this deployment", parentName)
	}
	child.RLI.ConfigureForwarding(func(ctx context.Context, url string) (rli.Updater, error) {
		n, err := d.resolve(url)
		if err != nil {
			return nil, err
		}
		return client.Dial(ctx, client.Options{
			Dialer: func() (net.Conn, error) { return d.dialNode(n) },
		})
	}, 0)
	return child.RLI.AddParent(parent.URL)
}

// Close shuts down every server and engine.
func (d *Deployment) Close() {
	d.mu.Lock()
	nodes := make([]*Node, 0, len(d.nodes))
	for _, n := range d.nodes {
		nodes = append(nodes, n)
	}
	d.mu.Unlock()
	for _, n := range nodes {
		if n.listener != nil {
			n.listener.Close()
			<-n.serving
		}
		n.Server.Close()
		if n.LRC != nil {
			n.LRC.Close()
		}
		if n.RLI != nil {
			n.RLI.Close()
		}
		if n.LRCEngine != nil {
			n.LRCEngine.Close()
		}
		if n.RLIEngine != nil {
			n.RLIEngine.Close()
		}
	}
}
