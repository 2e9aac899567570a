package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. id and parent
// are unique across buffers (buffer<<32 | index); parent 0 marks a root.
type span struct {
	name       string
	req        int64
	id, parent int64
	start, end int64 // ns since the tracer's base
}

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 1 << 20

// tracer holds spans in memory until the run writes them out. Each
// goroutine records into its own buffer, so recording takes no lock.
type tracer struct {
	base    time.Time
	bufs    []*spanBuf
	kept    atomic.Int64
	dropped atomic.Int64
	nextReq atomic.Int64
}

type spanBuf struct {
	t     *tracer
	idx   int64
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buffer returns a fresh buffer for one goroutine. Call it before the
// goroutines start.
func (t *tracer) buffer() *spanBuf {
	b := &spanBuf{t: t, idx: int64(len(t.bufs) + 1)}
	t.bufs = append(t.bufs, b)
	return b
}

// request allocates a request id shared by the spans of one operation.
func (t *tracer) request() int64 { return t.nextReq.Add(1) }

// begin opens a span and returns its id, or 0 when the cap is reached.
func (b *spanBuf) begin(name string, req, parent int64) int64 {
	if b.t.kept.Add(1) > maxSpans {
		b.t.dropped.Add(1)
		return 0
	}
	b.spans = append(b.spans, span{
		name: name, req: req, parent: parent,
		id:    b.idx<<32 | int64(len(b.spans)+1),
		start: int64(time.Since(b.t.base)),
	})
	return b.spans[len(b.spans)-1].id
}

// end closes the span id returned by begin on this buffer.
func (b *spanBuf) end(id int64) {
	if id == 0 {
		return
	}
	b.spans[id&(1<<32-1)-1].end = int64(time.Since(b.t.base))
}

// all returns every recorded span.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// spanSummary is one span name's duration and self time (duration minus
// the time its child spans cover), as medians.
type spanSummary struct {
	name         string
	n            int
	p50, p50self time.Duration
}

// summarize computes per-name medians of duration and self time. Children
// of one parent never overlap (each goroutine calls one layer at a time),
// so self time is the duration minus the children's durations.
func summarize(spans []span) []spanSummary {
	childTime := make(map[int64]int64)
	for _, s := range spans {
		if s.parent != 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	durs := make(map[string][]int64)
	selfs := make(map[string][]int64)
	for _, s := range spans {
		d := s.end - s.start
		durs[s.name] = append(durs[s.name], d)
		selfs[s.name] = append(selfs[s.name], d-childTime[s.id])
	}
	var out []spanSummary
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		sf := selfs[name]
		sort.Slice(sf, func(i, j int) bool { return sf[i] < sf[j] })
		out = append(out, spanSummary{name: name, n: len(d), p50: time.Duration(d[(len(d)-1)/2]), p50self: time.Duration(sf[(len(sf)-1)/2])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeSpans writes one tab-separated line per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	return bw.Flush()
}
