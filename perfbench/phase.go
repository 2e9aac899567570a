package main

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Span names, indexed by opKind, so recording a span allocates nothing.
var (
	benchSpan  = [...]string{"windowed.get_targets", "windowed.create", "windowed.delete", "windowed.rli_query"}
	clientSpan = [...]string{"client.get_targets", "client.create", "client.delete", "client.rli_query"}
)

// exec issues one operation through the benchmark's clients, checks the
// answer and returns the call's latency. With a span buffer it records a
// root span for the whole operation (issue and check) and a child span
// for the client call.
func (d *deployment) exec(ctx context.Context, o op, b *spanBuf) (time.Duration, error) {
	var req, root, call int64
	if b != nil {
		req = b.t.request()
		root = b.begin(benchSpan[o.kind], req, 0)
		call = b.begin(clientSpan[o.kind], req, root)
	}
	var got []string
	var err error
	start := time.Now()
	switch o.kind {
	case opGet:
		got, err = d.router.GetTargets(ctx, o.logical)
	case opCreate:
		err = d.router.CreateMapping(ctx, o.logical, o.target)
	case opDelete:
		err = d.router.DeleteMapping(ctx, o.logical, o.target)
	case opRLI:
		got, err = d.failover.RLIQuery(ctx, o.logical)
	}
	lat := time.Since(start)
	if b != nil {
		b.end(call)
	}
	switch o.kind {
	case opGet:
		err = d.or.checkGet(o, got, err)
	case opCreate, opDelete:
		err = d.or.checkWrite(o, err)
	case opRLI:
		err = d.or.checkRLI(o, got, err)
	}
	if b != nil {
		b.end(root)
	}
	return lat, err
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	ops, failed   int64
	writes, reads int64
	userBytes     int64 // name bytes carried by creates and deletes
	elapsed       time.Duration
	lat           []int64 // per-operation latency, ns
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// merge adds another phase's operations, time and samples to p.
func (p *phase) merge(o phase) {
	p.ops += o.ops
	p.failed += o.failed
	p.writes += o.writes
	p.reads += o.reads
	p.userBytes += o.userBytes
	p.elapsed += o.elapsed
	p.lat = append(p.lat, o.lat...)
}

// after returns a channel closed once d has passed.
func after(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}

// runClosed runs one closed loop per stream: each worker issues its next
// operation only when the previous one has answered. With a stop channel
// the workers stop issuing once it closes; otherwise each issues perWorker
// operations. A non-nil tracer records spans for every operation.
func (d *deployment) runClosed(ctx context.Context, streams []*stream, stop <-chan struct{}, perWorker int, tr *tracer) phase {
	parts := make([]phase, len(streams))
	bufs := make([]*spanBuf, len(streams))
	if tr != nil {
		for i := range bufs {
			bufs[i] = tr.buffer()
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range streams {
		wg.Add(1)
		go func(p *phase, s *stream, b *spanBuf) {
			defer wg.Done()
			p.lat = make([]int64, 0, 1<<14)
			for n := 0; stop != nil || n < perWorker; n++ {
				if stop != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
				// Yield before each request. Client and server share
				// this process's scheduler, which hands the CPU straight
				// back to the goroutine a reply just woke; without the
				// yield one worker's requests overtake the other
				// workers' and the latency distribution describes the
				// generator, not the deployment. Separate clients would
				// each take their turn.
				runtime.Gosched()
				o := s.next()
				lat, err := d.exec(ctx, o, b)
				p.ops++
				if err != nil {
					p.failed++
				}
				if o.kind == opCreate || o.kind == opDelete {
					p.writes++
					p.userBytes += int64(len(o.logical) + len(o.target))
				} else {
					p.reads++
				}
				p.lat = append(p.lat, int64(lat))
			}
		}(&parts[i], s, bufs[i])
	}
	wg.Wait()
	total := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		p.elapsed = 0
		total.merge(p)
	}
	return total
}

// passLoop runs soft-state passes back to back until stop closes, finishing
// the pass in progress. Spans, when traced, are one root per pass with a
// child per shard's ForceUpdate.
func (d *deployment) passLoop(ctx context.Context, stop <-chan struct{}, b *spanBuf) ([]passResult, error) {
	var out []passResult
	for {
		select {
		case <-stop:
			return out, nil
		default:
		}
		var root, req int64
		if b != nil {
			req = b.t.request()
			root = b.begin("windowed.pass", req, 0)
		}
		p, err := d.pass(ctx, b, req, root)
		if b != nil {
			b.end(root)
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// Public counters the per-layer metrics are deltas of, by index.
const (
	cWireBytes = iota
	cWireWrites
	cResponses
	cFlushes
	cShed
	cWALBytes
	cWALAppends
	cPublished
	cSnapshots
	cLatchWaitNS
	cIncrementals
	cNamesSent
	cIngested
	cMallocs
	cAllocBytes
	cGCCycles
	numCounters
)

// counters is a snapshot of the public counters, or a difference of two.
type counters [numCounters]float64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func (d *deployment) counters() counters {
	var c counters
	c[cWireBytes] = float64(d.wire.bytes.Load())
	c[cWireWrites] = float64(d.wire.writes.Load())
	for _, n := range d.dep.Nodes() {
		st := n.Server.StatsSnapshot()
		c[cFlushes] += float64(st.RespFlushes)
		c[cResponses] += float64(st.RespFlushes + st.RespFlushesAvoided)
		c[cShed] += float64(st.SheddedRequests)
		if n.RLI != nil {
			c[cIngested] += float64(n.RLI.Stats().NamesIngested)
		}
	}
	for _, e := range d.engines {
		es := e.Stats()
		c[cWALBytes] += float64(es.WALBytes)
		c[cWALAppends] += float64(es.WALAppends)
		c[cPublished] += float64(es.Snapshots.Published)
		c[cSnapshots] += float64(es.Snapshots.Taken)
		for _, t := range es.Tables {
			c[cLatchWaitNS] += float64(t.LatchWaitNS)
		}
	}
	for _, n := range d.tier.Nodes {
		ls := n.LRC.Stats()
		c[cIncrementals] += float64(ls.IncrementalUpdates)
		c[cNamesSent] += float64(ls.NamesSent)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes], c[cGCCycles] = float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.NumGC)
	return c
}
