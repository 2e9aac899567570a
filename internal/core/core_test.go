package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func fastSpec(name string, lrcRole, rliRole bool) ServerSpec {
	d := disk.Fast()
	return ServerSpec{Name: name, LRC: lrcRole, RLI: rliRole, Disk: &d}
}

func newPair(t *testing.T) (*Deployment, *client.Client, *client.Client) {
	t.Helper()
	d := NewDeployment()
	t.Cleanup(d.Close)
	if _, err := d.AddServer(fastSpec("lrc1", true, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddServer(fastSpec("rli1", false, true)); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("lrc1", "rli1", false); err != nil {
		t.Fatal(err)
	}
	lc, err := d.Dial("lrc1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	rc, err := d.Dial("rli1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return d, lc, rc
}

func TestEndToEndRegisterAndDiscover(t *testing.T) {
	ctx := context.Background()
	d, lc, rc := newPair(t)

	// Register replicas at the LRC.
	if err := lc.CreateMapping(ctx, "lfn://exp/f1", "gsiftp://siteA/f1"); err != nil {
		t.Fatal(err)
	}
	if err := lc.AddMapping(ctx, "lfn://exp/f1", "gsiftp://siteB/f1"); err != nil {
		t.Fatal(err)
	}

	// Push soft state LRC -> RLI.
	node, _ := d.Node("lrc1")
	for _, res := range node.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	// Discover via the RLI, then resolve at the LRC — the paper's two-step
	// client protocol.
	lrcs, err := rc.RLIQuery(ctx, "lfn://exp/f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(lrcs) != 1 || lrcs[0] != "rls://lrc1" {
		t.Fatalf("RLI query = %v", lrcs)
	}
	targets, err := lc.GetTargets(ctx, "lfn://exp/f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("targets = %v", targets)
	}
}

func TestEndToEndPing(t *testing.T) {
	ctx := context.Background()
	_, lc, rc := newPair(t)
	if err := lc.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rc.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServerInfo(t *testing.T) {
	ctx := context.Background()
	_, lc, rc := newPair(t)
	lc.CreateMapping(ctx, "lfn://a", "pfn://a")
	info, err := lc.ServerInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "lrc" || info.LogicalNames != 1 || info.Mappings != 1 {
		t.Fatalf("lrc info = %+v", info)
	}
	rinfo, err := rc.ServerInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Role != "rli" {
		t.Fatalf("rli info = %+v", rinfo)
	}
}

func TestRoleEnforcement(t *testing.T) {
	ctx := context.Background()
	_, lc, rc := newPair(t)
	// LRC ops on an RLI-only server.
	if err := rc.CreateMapping(ctx, "lfn://x", "pfn://x"); !errors.Is(err, client.ErrUnsupported) {
		t.Fatalf("LRC op on RLI = %v", err)
	}
	// RLI ops on an LRC-only server.
	if _, err := lc.RLIQuery(ctx, "lfn://x"); !errors.Is(err, client.ErrUnsupported) {
		t.Fatalf("RLI op on LRC = %v", err)
	}
}

func TestCombinedRoleServer(t *testing.T) {
	ctx := context.Background()
	d := NewDeployment()
	defer d.Close()
	if _, err := d.AddServer(fastSpec("both", true, true)); err != nil {
		t.Fatal(err)
	}
	// Self-update: the LRC half updates the RLI half, the ESG deployment
	// pattern ("four RLS servers that function as both LRCs and RLIs").
	if err := d.Connect("both", "both", false); err != nil {
		t.Fatal(err)
	}
	c, err := d.Dial("both")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateMapping(ctx, "lfn://x", "pfn://x"); err != nil {
		t.Fatal(err)
	}
	node, _ := d.Node("both")
	for _, res := range node.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	lrcs, err := c.RLIQuery(ctx, "lfn://x")
	if err != nil || len(lrcs) != 1 {
		t.Fatalf("self-indexed query = %v, %v", lrcs, err)
	}
	info, _ := c.ServerInfo(ctx)
	if info.Role != "lrc+rli" {
		t.Fatalf("role = %q", info.Role)
	}
}

func TestErrorMapping(t *testing.T) {
	ctx := context.Background()
	_, lc, _ := newPair(t)
	lc.CreateMapping(ctx, "lfn://dup", "pfn://1")
	if err := lc.CreateMapping(ctx, "lfn://dup", "pfn://2"); !errors.Is(err, client.ErrExists) {
		t.Fatalf("duplicate = %v", err)
	}
	if _, err := lc.GetTargets(ctx, "lfn://missing"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("missing = %v", err)
	}
	if err := lc.CreateMapping(ctx, "", "pfn://x"); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("empty = %v", err)
	}
}

func TestBulkOperationsOverWire(t *testing.T) {
	ctx := context.Background()
	_, lc, _ := newPair(t)
	var ms []wire.Mapping
	for i := 0; i < 100; i++ {
		ms = append(ms, wire.Mapping{Logical: fmt.Sprintf("lfn://bulk/%03d", i), Target: fmt.Sprintf("pfn://bulk/%03d", i)})
	}
	failures, err := lc.BulkCreate(ctx, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %+v", failures)
	}
	// Re-creating everything fails per element, not per request.
	failures, err = lc.BulkCreate(ctx, ms[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 10 {
		t.Fatalf("re-create failures = %d, want 10", len(failures))
	}
	results, err := lc.BulkGetTargets(ctx, []string{"lfn://bulk/001", "lfn://nope"})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Found || results[1].Found {
		t.Fatalf("bulk query results = %+v", results)
	}
	failures, err = lc.BulkDelete(ctx, ms)
	if err != nil || len(failures) != 0 {
		t.Fatalf("bulk delete = %+v, %v", failures, err)
	}
}

func TestWildcardOverWire(t *testing.T) {
	ctx := context.Background()
	_, lc, _ := newPair(t)
	lc.CreateMapping(ctx, "lfn://w/a", "pfn://1")
	lc.CreateMapping(ctx, "lfn://w/b", "pfn://2")
	lc.CreateMapping(ctx, "lfn://z/c", "pfn://3")
	results, err := lc.WildcardTargets(ctx, "lfn://w/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("wildcard results = %+v", results)
	}
}

func TestAttributesOverWire(t *testing.T) {
	ctx := context.Background()
	_, lc, _ := newPair(t)
	lc.CreateMapping(ctx, "lfn://f", "pfn://f")
	if err := lc.DefineAttribute(ctx, "size", wire.ObjTarget, wire.AttrInt); err != nil {
		t.Fatal(err)
	}
	if err := lc.AddAttribute(ctx, "pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 4096}); err != nil {
		t.Fatal(err)
	}
	attrs, err := lc.GetAttributes(ctx, "pfn://f", wire.ObjTarget, nil)
	if err != nil || len(attrs) != 1 || attrs[0].Value.I != 4096 {
		t.Fatalf("attrs = %+v, %v", attrs, err)
	}
	hits, err := lc.SearchAttribute(ctx, "size", wire.ObjTarget, wire.CmpGE, wire.AttrValue{Type: wire.AttrInt, I: 1000})
	if err != nil || len(hits) != 1 {
		t.Fatalf("search = %+v, %v", hits, err)
	}
	if err := lc.ModifyAttribute(ctx, "pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 1}); err != nil {
		t.Fatal(err)
	}
	if err := lc.RemoveAttribute(ctx, "pfn://f", wire.ObjTarget, "size"); err != nil {
		t.Fatal(err)
	}
	if err := lc.UndefineAttribute(ctx, "size", wire.ObjTarget, false); err != nil {
		t.Fatal(err)
	}
}

func TestRLITargetManagementOverWire(t *testing.T) {
	ctx := context.Background()
	d, lc, _ := newPair(t)
	targets, err := lc.ListRLITargets(ctx)
	if err != nil || len(targets) != 1 {
		t.Fatalf("targets = %+v, %v", targets, err)
	}
	// Add a second RLI over the wire and verify updates reach it.
	if _, err := d.AddServer(fastSpec("rli2", false, true)); err != nil {
		t.Fatal(err)
	}
	if err := lc.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli2", Bloom: true}); err != nil {
		t.Fatal(err)
	}
	lc.CreateMapping(ctx, "lfn://x", "pfn://x")
	node, _ := d.Node("lrc1")
	for _, res := range node.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	rc2, err := d.Dial("rli2")
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	lrcs, err := rc2.RLIQuery(ctx, "lfn://x")
	if err != nil || len(lrcs) != 1 {
		t.Fatalf("rli2 query = %v, %v", lrcs, err)
	}
	if err := lc.RemoveRLITarget(ctx, "rls://rli2"); err != nil {
		t.Fatal(err)
	}
	targets, _ = lc.ListRLITargets(ctx)
	if len(targets) != 1 {
		t.Fatalf("targets after remove = %+v", targets)
	}
}

func TestRLILRCListOverWire(t *testing.T) {
	ctx := context.Background()
	d, lc, rc := newPair(t)
	lc.CreateMapping(ctx, "lfn://x", "pfn://x")
	node, _ := d.Node("lrc1")
	node.LRC.ForceUpdate(ctx)
	lrcs, err := rc.RLILRCList(ctx)
	if err != nil || len(lrcs) != 1 || lrcs[0] != "rls://lrc1" {
		t.Fatalf("LRC list = %v, %v", lrcs, err)
	}
}

func TestStaleRLIAnswerHandledByClient(t *testing.T) {
	ctx := context.Background()
	// §3.2: a client may get a stale RLI answer and must recover by trying
	// the LRCs. Delete the mapping after the update and observe the
	// documented stale-read behaviour.
	d, lc, rc := newPair(t)
	lc.CreateMapping(ctx, "lfn://stale", "pfn://x")
	node, _ := d.Node("lrc1")
	node.LRC.ForceUpdate(ctx)
	lc.DeleteMapping(ctx, "lfn://stale", "pfn://x")

	lrcs, err := rc.RLIQuery(ctx, "lfn://stale")
	if err != nil || len(lrcs) != 1 {
		t.Fatalf("RLI answer = %v, %v (expected stale hit)", lrcs, err)
	}
	// Following the stale pointer yields not-found at the LRC; application
	// recovers by trying other replicas.
	if _, err := lc.GetTargets(ctx, "lfn://stale"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("LRC resolution = %v, want ErrNotFound", err)
	}
}

func TestAuthenticationOverWire(t *testing.T) {
	ctx := context.Background()
	gm := auth.NewGridmap()
	gm.Add("/O=Grid/CN=Writer", "writer")
	gm.Add("/O=Grid/CN=Reader", "reader")
	acl := auth.NewACL()
	acl.Grant("writer", true, auth.PrivLRCRead, auth.PrivLRCWrite)
	acl.Grant("reader", true, auth.PrivLRCRead)
	an := auth.New(auth.Config{Enabled: true, Gridmap: gm, ACL: acl})
	an.RegisterCredential("/O=Grid/CN=Writer", "w-secret")
	an.RegisterCredential("/O=Grid/CN=Reader", "r-secret")

	d := NewDeployment()
	defer d.Close()
	spec := fastSpec("secure", true, false)
	spec.Auth = an
	if _, err := d.AddServer(spec); err != nil {
		t.Fatal(err)
	}

	// Wrong token: handshake fails.
	if _, err := d.Dial("secure", DialOptions{DN: "/O=Grid/CN=Writer", Token: "bad"}); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("bad token = %v", err)
	}
	// Unknown DN: handshake fails.
	if _, err := d.Dial("secure", DialOptions{DN: "/O=Grid/CN=Nobody", Token: "x"}); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("unknown DN = %v", err)
	}

	writer, err := d.Dial("secure", DialOptions{DN: "/O=Grid/CN=Writer", Token: "w-secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.CreateMapping(ctx, "lfn://x", "pfn://x"); err != nil {
		t.Fatal(err)
	}

	reader, err := d.Dial("secure", DialOptions{DN: "/O=Grid/CN=Reader", Token: "r-secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, err := reader.GetTargets(ctx, "lfn://x"); err != nil {
		t.Fatalf("reader query = %v", err)
	}
	if err := reader.CreateMapping(ctx, "lfn://y", "pfn://y"); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("reader write = %v, want ErrDenied", err)
	}
}

func TestTCPTransport(t *testing.T) {
	ctx := context.Background()
	d := NewDeployment()
	defer d.Close()
	spec := fastSpec("tcp-lrc", true, false)
	spec.Listen = true
	node, err := d.AddServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if node.Addr() == "" {
		t.Fatal("no TCP address")
	}
	c, err := d.DialTCP("tcp-lrc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateMapping(ctx, "lfn://tcp", "pfn://tcp"); err != nil {
		t.Fatal(err)
	}
	targets, err := c.GetTargets(ctx, "lfn://tcp")
	if err != nil || len(targets) != 1 {
		t.Fatalf("over TCP: %v, %v", targets, err)
	}
}

// lockedBuffer is a bytes.Buffer safe for the concurrent writes of a
// logger shared by goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCloseLogsNoListenerFailure checks that a clean Deployment.Close of a
// TCP node — its listener plain or netsim-shaped — logs nothing at Warn or
// above: closing the listener is a shutdown, not a listener failure.
func TestCloseLogsNoListenerFailure(t *testing.T) {
	for _, p := range []netsim.Profile{netsim.Unshaped(), netsim.LAN()} {
		t.Run(p.Name, func(t *testing.T) {
			var logs lockedBuffer
			d := NewDeployment()
			spec := fastSpec("tcp-lrc", true, false)
			spec.Listen = true
			spec.Net = p
			spec.Logger = slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
			if _, err := d.AddServer(spec); err != nil {
				d.Close()
				t.Fatal(err)
			}
			c, err := d.DialTCP("tcp-lrc")
			if err != nil {
				d.Close()
				t.Fatal(err)
			}
			if err := c.Ping(context.Background()); err != nil {
				t.Error(err)
			}
			c.Close()
			d.Close() // returns after the node's serve loop has
			if out := logs.String(); out != "" {
				t.Fatalf("clean close logged:\n%s", out)
			}
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	d := NewDeployment()
	defer d.Close()
	if _, err := d.AddServer(fastSpec("lrc1", true, false)); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := d.Dial("lrc1")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				lfn := fmt.Sprintf("lfn://c%d/%03d", g, i)
				if err := c.CreateMapping(ctx, lfn, "pfn://"+lfn); err != nil {
					errs <- err
					return
				}
				if _, err := c.GetTargets(ctx, lfn); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, _ := d.Dial("lrc1")
	defer c.Close()
	info, err := c.ServerInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.LogicalNames != clients*perClient {
		t.Fatalf("LogicalNames = %d, want %d", info.LogicalNames, clients*perClient)
	}
}

func TestImmediateModeEndToEnd(t *testing.T) {
	ctx := context.Background()
	d := NewDeployment()
	defer d.Close()
	spec := fastSpec("lrc1", true, false)
	spec.ImmediateMode = true
	spec.ImmediateInterval = time.Hour // rely on the threshold
	spec.ImmediateThreshold = 1
	if _, err := d.AddServer(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddServer(fastSpec("rli1", false, true)); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("lrc1", "rli1", false); err != nil {
		t.Fatal(err)
	}
	node, _ := d.Node("lrc1")
	node.LRC.Start()
	lc, _ := d.Dial("lrc1")
	defer lc.Close()
	rc, _ := d.Dial("rli1")
	defer rc.Close()

	if err := lc.CreateMapping(ctx, "lfn://immediate", "pfn://x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if lrcs, err := rc.RLIQuery(ctx, "lfn://immediate"); err == nil && len(lrcs) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("immediate-mode update never reached the RLI")
}

func TestPartitionedDeployment(t *testing.T) {
	ctx := context.Background()
	d := NewDeployment()
	defer d.Close()
	d.AddServer(fastSpec("lrc1", true, false))
	d.AddServer(fastSpec("rli-ligo", false, true))
	d.AddServer(fastSpec("rli-esg", false, true))
	if err := d.Connect("lrc1", "rli-ligo", false, `^lfn://ligo/`); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("lrc1", "rli-esg", false, `^lfn://esg/`); err != nil {
		t.Fatal(err)
	}
	lc, _ := d.Dial("lrc1")
	defer lc.Close()
	lc.CreateMapping(ctx, "lfn://ligo/a", "pfn://1")
	lc.CreateMapping(ctx, "lfn://esg/b", "pfn://2")
	node, _ := d.Node("lrc1")
	for _, res := range node.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	ligo, _ := d.Dial("rli-ligo")
	defer ligo.Close()
	esg, _ := d.Dial("rli-esg")
	defer esg.Close()
	if _, err := ligo.RLIQuery(ctx, "lfn://ligo/a"); err != nil {
		t.Fatal("partition member missing at rli-ligo")
	}
	if _, err := ligo.RLIQuery(ctx, "lfn://esg/b"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("out-of-partition name at rli-ligo: %v", err)
	}
	if _, err := esg.RLIQuery(ctx, "lfn://esg/b"); err != nil {
		t.Fatal("partition member missing at rli-esg")
	}
}

func TestDeploymentValidation(t *testing.T) {
	d := NewDeployment()
	defer d.Close()
	if _, err := d.AddServer(ServerSpec{Name: "x"}); err == nil {
		t.Fatal("role-less server accepted")
	}
	if _, err := d.AddServer(ServerSpec{LRC: true}); err == nil {
		t.Fatal("nameless server accepted")
	}
	d.AddServer(fastSpec("dup", true, false))
	if _, err := d.AddServer(fastSpec("dup", true, false)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := d.Dial("ghost"); err == nil {
		t.Fatal("dial of unknown server succeeded")
	}
	if err := d.Connect("ghost", "dup", false); err == nil {
		t.Fatal("connect from unknown LRC accepted")
	}
	if err := d.Connect("dup", "ghost", false); err == nil {
		t.Fatal("connect to unknown RLI accepted")
	}
}

func TestPersistentLRCAcrossDeployments(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := fastSpec("lrc1", true, false)
	spec.DataDir = dir

	d1 := NewDeployment()
	if _, err := d1.AddServer(spec); err != nil {
		t.Fatal(err)
	}
	c1, _ := d1.Dial("lrc1")
	c1.CreateMapping(ctx, "lfn://persistent", "pfn://x")
	c1.Close()
	d1.Close()

	// A second deployment reopening the same directory sees the catalog.
	d2 := NewDeployment()
	defer d2.Close()
	if _, err := d2.AddServer(spec); err != nil {
		t.Fatal(err)
	}
	c2, err := d2.Dial("lrc1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	targets, err := c2.GetTargets(ctx, "lfn://persistent")
	if err != nil || len(targets) != 1 {
		t.Fatalf("reopened catalog = %v, %v", targets, err)
	}
	if err := c2.CreateMapping(ctx, "lfn://fresh", "pfn://y"); err != nil {
		t.Fatalf("create after reopen: %v", err)
	}
}

func TestListAttributeDefsOverWire(t *testing.T) {
	ctx := context.Background()
	_, lc, _ := newPair(t)
	if err := lc.DefineAttribute(ctx, "size", wire.ObjTarget, wire.AttrInt); err != nil {
		t.Fatal(err)
	}
	defs, err := lc.ListAttributeDefs(ctx, wire.ObjTarget)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 || defs[0].Name != "size" || defs[0].Type != wire.AttrInt {
		t.Fatalf("defs = %+v", defs)
	}
	// Empty result for the other object type.
	defs, err = lc.ListAttributeDefs(ctx, wire.ObjLogical)
	if err != nil || len(defs) != 0 {
		t.Fatalf("logical defs = %+v, %v", defs, err)
	}
}
