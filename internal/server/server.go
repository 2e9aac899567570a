// Package server implements the common RLS server of §3.1: a single
// multi-threaded server process that "can be configured as an LRC, an RLI or
// both", speaking the wire protocol, authenticating clients (GSI stand-in)
// and authorizing each operation against the ACL.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/lrc"
	"repro/internal/metrics"
	"repro/internal/rdb"
	"repro/internal/rli"
	"repro/internal/wire"
)

// StorageStats aggregates storage-engine activity for the stats snapshot.
// Core wires it from the node's engines; servers built without one report
// zeros.
type StorageStats struct {
	WALAppends      int64
	WALFlushes      int64
	WALBytes        int64
	DeadTupleVisits int64

	// WAL group-commit batching and per-table latch contention.
	GroupCommitCommits      int64
	GroupCommitBatches      int64
	GroupCommitSyncsAvoided int64
	GroupCommitMaxBatch     int64
	GroupCommitBatchSizes   []int64
	LatchWaits              int64
	LatchWaitNS             int64

	// MVCC snapshot gauges (see storage.SnapshotStats): counters are summed
	// over the node's engines, Epoch and OldestPinAgeNS take the maximum,
	// OldestPinned the lowest non-zero pinned epoch.
	SnapshotEpoch          int64
	SnapshotsTaken         int64
	VersionsPublished      int64
	SnapshotsPinned        int64
	SnapshotOldestPinned   int64
	SnapshotOldestPinAgeNS int64
}

// Config configures a Server.
type Config struct {
	// URL is the server's advertised address.
	URL string
	// LRC enables the Local Replica Catalog role (may be nil).
	LRC *lrc.Service
	// RLI enables the Replica Location Index role (may be nil).
	RLI *rli.Service
	// Members enables the seed role: the server answers runtime-membership
	// ops (join/leave/heartbeat/view) against this registry (may be nil).
	// Declared as an interface because the membership package builds on the
	// core deployment facade, which imports this package.
	Members Membership
	// Auth validates connections; nil means open mode.
	Auth *auth.Authenticator
	// Logger receives connection-level diagnostics; nil discards them.
	Logger *slog.Logger
	// Clock supplies uptime timestamps; defaults to the real clock.
	Clock clock.Clock

	// IdleTimeout reaps connections that send no frame for this long
	// (handshake included), so a stalled client cannot pin a goroutine and
	// a conn-map entry forever. Zero disables deadlines, preserving the
	// seed/bench behaviour.
	IdleTimeout time.Duration
	// SlowOpThreshold logs any dispatch at or above this duration at Warn
	// level and counts it in the stats snapshot. Zero disables.
	SlowOpThreshold time.Duration
	// StatsLogInterval emits periodic telemetry summaries via Logger.
	// Zero disables.
	StatsLogInterval time.Duration
	// StorageStats supplies storage-engine counters for the stats
	// snapshot; nil reports zeros.
	StorageStats func() StorageStats

	// MaxInFlight caps the requests dispatched concurrently per
	// connection. Values <= 1 preserve the original lock-step loop (read,
	// dispatch, respond, repeat); larger values let a pipelining client
	// keep that many requests executing while responses are written
	// out-of-order with coalesced flushes.
	MaxInFlight int
	// ShedOnSaturation changes what happens when a pipelined connection's
	// in-flight window is already full as a new request arrives: instead of
	// the read loop blocking (backpressure through the transport, the
	// default), the request is answered immediately with the typed
	// StatusRetryLater — a clean load-shed the client's retry layer backs
	// off on, rather than a silent stall or close. Only meaningful with
	// MaxInFlight > 1.
	ShedOnSaturation bool
}

// opMetric is the per-operation dispatch telemetry: hot-path updates are
// atomic adds only.
type opMetric struct {
	count  metrics.Counter
	errors metrics.Counter
	lat    metrics.Histogram
}

// Server accepts connections and dispatches operations to its services.
type Server struct {
	cfg     Config
	authn   *auth.Authenticator
	log     *slog.Logger
	clk     clock.Clock
	started time.Time

	ops     []opMetric // indexed by wire.Op, len wire.NumOps
	slowOps metrics.Counter

	// Wire-protocol pipelining telemetry.
	inFlight       metrics.Gauge               // dispatches currently executing
	pipeMaxDepth   atomic.Int64                // deepest per-conn in-flight observed
	depthBuckets   [pipeBuckets]metrics.Counter // in-flight depth at dispatch
	batchBuckets   [pipeBuckets]metrics.Counter // responses per coalesced flush
	respFlushes    metrics.Counter             // coalesced-writer flushes
	flushesAvoided metrics.Counter             // responses that shared a flush
	badFrameNAKs   metrics.Counter             // StatusBadRequest NAKs for bad frames
	shedded        metrics.Counter             // StatusRetryLater load-sheds

	mu        sync.Mutex
	listeners map[net.Listener]bool
	conns     map[*wire.Conn]bool
	closed    bool
	wg        sync.WaitGroup
	logStop   chan struct{}

	// dispatchHook, when set before serving starts, runs ahead of every
	// pipelined dispatch — a test seam for deterministic ordering.
	dispatchHook func(*wire.Request)
}

// New creates a server. At least one role — LRC, RLI, or seed (membership
// registry) — must be configured.
func New(cfg Config) (*Server, error) {
	if cfg.LRC == nil && cfg.RLI == nil && cfg.Members == nil {
		return nil, errors.New("server: need at least one of the LRC, RLI and seed roles")
	}
	if cfg.URL == "" {
		return nil, errors.New("server: Config.URL is required")
	}
	authn := cfg.Auth
	if authn == nil {
		authn = auth.New(auth.Config{Enabled: false})
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	s := &Server{
		cfg:       cfg,
		authn:     authn,
		log:       log,
		clk:       clk,
		started:   clk.Now(),
		ops:       make([]opMetric, wire.NumOps),
		listeners: make(map[net.Listener]bool),
		conns:     make(map[*wire.Conn]bool),
	}
	if cfg.StatsLogInterval > 0 {
		s.logStop = make(chan struct{})
		s.wg.Add(1)
		go s.statsLogLoop()
	}
	return s, nil
}

// Role describes the configured roles as the paper names them.
func (s *Server) Role() string {
	switch {
	case s.cfg.LRC != nil && s.cfg.RLI != nil:
		return "lrc+rli"
	case s.cfg.LRC != nil:
		return "lrc"
	case s.cfg.RLI != nil:
		return "rli"
	default:
		return "seed"
	}
}

// Serve accepts connections from l until the listener fails or the server
// closes. Each connection is handled by its own goroutine (the Go analogue
// of the paper's multi-threaded server).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: closed")
	}
	s.listeners[l] = true
	s.mu.Unlock()
	for {
		raw, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.track() {
			_ = raw.Close() // closed meanwhile: the next Accept fails
			continue
		}
		go func() {
			defer s.wg.Done()
			s.handleConn(raw)
		}()
	}
}

// ServeConn handles a single pre-established connection (in-process
// transports); it blocks until the connection closes.
func (s *Server) ServeConn(raw net.Conn) {
	if !s.track() {
		_ = raw.Close()
		return
	}
	defer s.wg.Done()
	s.handleConn(raw)
}

// track counts a new connection handler in s.wg, or reports false once the
// server is closed. The check and the Add share s.mu with Close's setting
// of closed, so no Add can race the Wait that Close starts afterwards.
func (s *Server) track() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// Close stops accepting, closes active connections and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.logStop != nil {
		close(s.logStop)
	}
	// Snapshot under the lock, close outside it: Close on a listener or
	// conn is network I/O and must not serialize against handlers touching
	// s.mu (connection add/remove) while it runs.
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]*wire.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close() // best effort: shutdown proceeds regardless
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// ConnCount reports the number of live connections (for tests and stats).
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) handleConn(raw net.Conn) {
	// Per-connection root context for dispatched operations. Request
	// lifetimes are bounded by connection teardown (Close closes the conn,
	// failing the in-flight read or write), so no deadline is attached here;
	// the context carries cancellation points into the service layer.
	ctx := context.Background()
	conn := wire.NewConn(raw)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	idle := s.cfg.IdleTimeout
	if idle > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return // connection already dead; the deferred cleanup closes it
		}
	}
	id, err := s.handshake(conn)
	if err != nil {
		s.log.Debug("handshake failed", "remote", raw.RemoteAddr(), "err", err)
		return
	}
	if s.cfg.MaxInFlight > 1 {
		s.servePipelined(ctx, conn, id, idle)
		return
	}
	for {
		if idle > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		payload, err := conn.ReadFrame()
		if err != nil {
			s.logReadErr(conn, err, idle)
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			s.nakBadFrame(conn, payload, err)
			return
		}
		s.depthBuckets[0].Inc()
		start := time.Now()
		resp := s.dispatch(ctx, id, req)
		s.observe(req.Op, resp.Status, time.Since(start))
		if err := conn.WriteResponse(resp); err != nil {
			s.log.Debug("write failed", "remote", conn.RemoteAddr(), "err", err)
			return
		}
	}
}

// logReadErr classifies a read-loop exit for the debug log.
func (s *Server) logReadErr(conn *wire.Conn, err error, idle time.Duration) {
	switch {
	case err == io.EOF:
	case errors.Is(err, os.ErrDeadlineExceeded):
		s.log.Debug("idle connection reaped", "remote", conn.RemoteAddr(), "idle", idle)
	default:
		s.log.Debug("read failed", "remote", conn.RemoteAddr(), "err", err)
	}
}

// nakBadFrame answers an undecodable request frame. When the frame is long
// enough that its request ID is recoverable, a final StatusBadRequest
// response is written first so a pipelined client can distinguish the
// protocol error from network death; either way the connection closes,
// because framing state beyond the bad frame cannot be trusted.
func (s *Server) nakBadFrame(conn *wire.Conn, payload []byte, err error) {
	s.log.Debug("bad request frame", "remote", conn.RemoteAddr(), "err", err)
	if len(payload) < 8 {
		return // not even an ID to address the NAK to
	}
	resp := &wire.Response{
		ID:     binary.BigEndian.Uint64(payload),
		Status: wire.StatusBadRequest,
		Err:    "undecodable request frame: " + err.Error(),
	}
	if werr := conn.WriteResponse(resp); werr == nil {
		s.badFrameNAKs.Inc()
	}
}

// pipeBuckets are the power-of-2 histogram buckets for pipeline depth and
// response batch size: <=1, <=2, <=4, <=8, <=16, <=64, >64.
const pipeBuckets = 7

func pipeBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 64:
		return 5
	default:
		return 6
	}
}

// observeDepth records the per-connection in-flight depth seen as a request
// is admitted for dispatch.
func (s *Server) observeDepth(n int) {
	s.depthBuckets[pipeBucket(n)].Inc()
	for {
		cur := s.pipeMaxDepth.Load()
		if int64(n) <= cur || s.pipeMaxDepth.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// servePipelined is the post-handshake loop for MaxInFlight > 1: requests
// are dispatched on worker goroutines (at most MaxInFlight at once) while
// the read side keeps pulling frames, and responses are written
// out-of-order by a dedicated writer with coalesced flushes. Idle reaping
// is unchanged — the deadline covers time between received frames, not
// request execution.
func (s *Server) servePipelined(ctx context.Context, conn *wire.Conn, id auth.Identity, idle time.Duration) {
	depth := s.cfg.MaxInFlight
	sem := make(chan struct{}, depth)
	respCh := make(chan *wire.Response, depth)
	writerDone := make(chan struct{})
	go s.writeLoop(conn, respCh, writerDone)
	var wg sync.WaitGroup
	for {
		if idle > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				break
			}
		}
		payload, err := conn.ReadFrame()
		if err != nil {
			s.logReadErr(conn, err, idle)
			break
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// Let in-flight responses land first so the NAK is the last
			// frame the client sees before the close.
			wg.Wait()
			s.nakBadFrame(conn, payload, err)
			break
		}
		if s.cfg.ShedOnSaturation {
			select {
			case sem <- struct{}{}:
			default:
				// Window saturated: shed this request with the typed
				// retryable status instead of stalling the read loop (or,
				// worse, silently closing). The connection stays healthy and
				// in-flight work is untouched.
				s.shedded.Inc()
				s.observe(req.Op, wire.StatusRetryLater, 0)
				respCh <- &wire.Response{
					ID:     req.ID,
					Status: wire.StatusRetryLater,
					Err:    "in-flight window saturated, retry later",
				}
				continue
			}
		} else {
			sem <- struct{}{} // admission: bounds concurrent dispatches
		}
		s.inFlight.Add(1)
		s.observeDepth(len(sem))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.dispatchHook != nil {
				s.dispatchHook(req)
			}
			start := time.Now()
			resp := s.dispatch(ctx, id, req)
			s.observe(req.Op, resp.Status, time.Since(start))
			respCh <- resp
			s.inFlight.Add(-1)
			<-sem
		}()
	}
	wg.Wait()
	close(respCh)
	<-writerDone
}

// writeLoop serializes pipelined responses onto the connection. Flush
// policy: keep buffering while more responses are immediately available,
// flush when the response stream goes momentarily idle — a burst of
// pipelined responses then shares one flush (and one syscall). After a
// write error the connection is closed and the remaining responses are
// drained and discarded so dispatch goroutines never block on a dead peer.
func (s *Server) writeLoop(conn *wire.Conn, respCh <-chan *wire.Response, done chan<- struct{}) {
	defer close(done)
	var failed bool
	write := func(r *wire.Response) {
		if failed {
			return
		}
		if err := conn.WriteResponseNoFlush(r); err != nil {
			s.log.Debug("write failed", "remote", conn.RemoteAddr(), "err", err)
			failed = true
			_ = conn.Close()
		}
	}
	for {
		resp, ok := <-respCh
		if !ok {
			return
		}
		write(resp)
		batch := 1
	coalesce:
		for {
			select {
			case next, more := <-respCh:
				if !more {
					break coalesce
				}
				write(next)
				batch++
			default:
				break coalesce
			}
		}
		if !failed {
			if err := conn.Flush(); err != nil {
				s.log.Debug("flush failed", "remote", conn.RemoteAddr(), "err", err)
				failed = true
				_ = conn.Close()
				continue
			}
			s.respFlushes.Inc()
			s.flushesAvoided.Add(int64(batch - 1))
			s.batchBuckets[pipeBucket(batch)].Inc()
		}
	}
}

// observe folds one dispatch outcome into the per-op telemetry and flags
// slow operations.
func (s *Server) observe(op wire.Op, status wire.Status, elapsed time.Duration) {
	if !op.Valid() {
		return
	}
	m := &s.ops[op]
	m.count.Inc()
	if status != wire.StatusOK {
		m.errors.Inc()
	}
	m.lat.Observe(elapsed)
	if t := s.cfg.SlowOpThreshold; t > 0 && elapsed >= t {
		s.slowOps.Inc()
		s.log.Warn("slow op", "op", op.String(), "elapsed", elapsed, "status", status.String())
	}
}

// statsLogLoop periodically emits a one-line telemetry summary.
func (s *Server) statsLogLoop() {
	defer s.wg.Done()
	t := s.clk.NewTicker(s.cfg.StatsLogInterval)
	defer t.Stop()
	for {
		select {
		case <-s.logStop:
			return
		case <-t.C():
			s.logSummary()
		}
	}
}

func (s *Server) logSummary() {
	var total, errs int64
	for i := range s.ops {
		total += s.ops[i].count.Load()
		errs += s.ops[i].errors.Load()
	}
	s.log.Info("server stats",
		"role", s.Role(),
		"ops", total,
		"errors", errs,
		"slow_ops", s.slowOps.Load(),
		"active_conns", s.ConnCount(),
		"uptime", s.clk.Now().Sub(s.started).Round(time.Second))
}

// StatsSnapshot assembles the typed telemetry snapshot served by OpStats:
// per-op dispatch counters and latency percentiles, soft-state sender health
// (LRC role), ingest/expiry and Bloom-store occupancy (RLI role), and
// storage-engine activity.
func (s *Server) StatsSnapshot() *wire.StatsResponse {
	resp := &wire.StatsResponse{
		Role:          s.Role(),
		URL:           s.cfg.URL,
		UptimeSeconds: int64(s.clk.Now().Sub(s.started) / time.Second),
		ActiveConns:   int64(s.ConnCount()),
		SlowOps:       s.slowOps.Load(),
	}
	for op := 1; op < wire.NumOps; op++ {
		m := &s.ops[op]
		count := m.count.Load()
		if count == 0 {
			continue
		}
		h := m.lat.Snapshot()
		resp.Ops = append(resp.Ops, wire.OpStat{
			Op:     wire.Op(op),
			Count:  count,
			Errors: m.errors.Load(),
			MeanNS: int64(h.Mean),
			P50NS:  int64(h.P50),
			P95NS:  int64(h.P95),
			P99NS:  int64(h.P99),
			MaxNS:  int64(h.Max),
		})
	}
	if s.cfg.LRC != nil {
		for _, ts := range s.cfg.LRC.TargetStats() {
			st := wire.SoftStateTargetStat{
				URL:         ts.URL,
				Sent:        ts.Sent,
				Failed:      ts.Failed,
				Requeued:    ts.Requeued,
				NamesSent:   ts.NamesSent,
				BytesSent:   ts.BytesSent,
				State:       ts.State,
				ConsecFails: ts.ConsecFails,
				Skipped:     ts.Skipped,
				Probes:      ts.Probes,
			}
			if !ts.LastSuccess.IsZero() {
				st.LastSuccessUnix = ts.LastSuccess.UnixNano()
			}
			if !ts.NextProbe.IsZero() {
				st.NextProbeUnix = ts.NextProbe.UnixNano()
			}
			resp.SoftState = append(resp.SoftState, st)
		}
	}
	if s.cfg.RLI != nil {
		rst := s.cfg.RLI.Stats()
		resp.RLIExpired = rst.Expired
		resp.RLIStaleAnswers = rst.StaleAnswers
		resp.RLISessionsExpired = rst.SessionsExpired
		resp.RLISessionsAborted = rst.SessionsAborted
		resp.RLISessionsActive = int64(s.cfg.RLI.SessionCount())
		resp.RLIBloomFilters = int64(s.cfg.RLI.FilterCount())
		resp.RLIBloomBytes = s.cfg.RLI.BloomBytes()
	}
	if s.cfg.StorageStats != nil {
		ss := s.cfg.StorageStats()
		resp.WALAppends = ss.WALAppends
		resp.WALFlushes = ss.WALFlushes
		resp.WALBytes = ss.WALBytes
		resp.DeadTupleVisits = ss.DeadTupleVisits
		resp.GroupCommitCommits = ss.GroupCommitCommits
		resp.GroupCommitBatches = ss.GroupCommitBatches
		resp.GroupCommitSyncsAvoided = ss.GroupCommitSyncsAvoided
		resp.GroupCommitMaxBatch = ss.GroupCommitMaxBatch
		resp.GroupCommitBatchSizes = ss.GroupCommitBatchSizes
		resp.LatchWaits = ss.LatchWaits
		resp.LatchWaitNS = ss.LatchWaitNS
		resp.SnapshotEpoch = ss.SnapshotEpoch
		resp.SnapshotsTaken = ss.SnapshotsTaken
		resp.VersionsPublished = ss.VersionsPublished
		resp.SnapshotsPinned = ss.SnapshotsPinned
		resp.SnapshotOldestPinned = ss.SnapshotOldestPinned
		resp.SnapshotOldestPinAgeNS = ss.SnapshotOldestPinAgeNS
	}
	resp.RequestsInFlight = s.inFlight.Load()
	resp.PipelineMaxDepth = s.pipeMaxDepth.Load()
	depths := make([]int64, pipeBuckets)
	batches := make([]int64, pipeBuckets)
	for i := 0; i < pipeBuckets; i++ {
		depths[i] = s.depthBuckets[i].Load()
		batches[i] = s.batchBuckets[i].Load()
	}
	resp.PipelineDepths = depths
	resp.RespBatchSizes = batches
	resp.RespFlushes = s.respFlushes.Load()
	resp.RespFlushesAvoided = s.flushesAvoided.Load()
	resp.BadFrameNAKs = s.badFrameNAKs.Load()
	resp.SheddedRequests = s.shedded.Load()
	return resp
}

// handshake performs the Hello exchange and authentication.
func (s *Server) handshake(conn *wire.Conn) (auth.Identity, error) {
	payload, err := conn.ReadFrame()
	if err != nil {
		return auth.Identity{}, err
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		ack := wire.HelloAck{Status: wire.StatusBadRequest, Detail: err.Error()}
		_ = conn.WriteFrame(ack.Encode()) // best-effort NAK; the decode error wins
		return auth.Identity{}, err
	}
	id, err := s.authn.Authenticate(hello.DN, hello.Token)
	if err != nil {
		ack := wire.HelloAck{Status: wire.StatusDenied, Detail: err.Error()}
		_ = conn.WriteFrame(ack.Encode()) // best-effort NAK; the auth error wins
		return auth.Identity{}, err
	}
	ack := wire.HelloAck{Status: wire.StatusOK, Detail: s.cfg.URL}
	if err := conn.WriteFrame(ack.Encode()); err != nil {
		return auth.Identity{}, err
	}
	return id, nil
}

// fail builds an error response, mapping rdb sentinels to wire statuses.
func fail(id uint64, err error) *wire.Response {
	status := wire.StatusInternal
	switch {
	case errors.Is(err, rdb.ErrExists):
		status = wire.StatusExists
	case errors.Is(err, rdb.ErrNotFound):
		status = wire.StatusNotFound
	case errors.Is(err, rdb.ErrInvalid):
		status = wire.StatusBadRequest
	case errors.Is(err, wire.ErrTruncated):
		status = wire.StatusBadRequest
	}
	return &wire.Response{ID: id, Status: status, Err: err.Error()}
}

func deny(id uint64, op wire.Op) *wire.Response {
	return &wire.Response{ID: id, Status: wire.StatusDenied, Err: fmt.Sprintf("permission denied for %s", op)}
}

func unsupported(id uint64, op wire.Op, role string) *wire.Response {
	return &wire.Response{
		ID:     id,
		Status: wire.StatusUnsupported,
		Err:    fmt.Sprintf("%s not served: server role is %s", op, role),
	}
}

func ok(id uint64, body []byte) *wire.Response {
	return &wire.Response{ID: id, Status: wire.StatusOK, Body: body}
}
