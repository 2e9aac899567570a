package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// ladderOps is how many calls each ladder rung makes.
const ladderOps = 2000

// rungResult is one ladder rung: a layer's public function called serially
// on the owning node with the workload's seeded keys.
type rungResult struct {
	name   string
	p50    latency
	allocs ratio // heap allocations per call
	bytes  ratio // heap bytes per call
}

// ladderBlock is how many calls one rung makes before the next rung of
// its path takes a turn. Interleaving the rungs of a path in blocks lets
// every rung see the same table state, so the order rungs run in does not
// bias the comparison between them.
const ladderBlock = 100

// step is one rung: its keys and the call it times.
type step struct {
	name string
	keys []op
	call func(op) error
}

// runPath times the rungs of one path, interleaved in blocks. Each call is
// a root span of its own request.
func runPath(b *spanBuf, path []step) ([]rungResult, error) {
	lat := make([][]int64, len(path))
	var mallocs, bytes []float64 = make([]float64, len(path)), make([]float64, len(path))
	spanNames := make([]string, len(path))
	for i, st := range path {
		lat[i] = make([]int64, 0, len(st.keys))
		spanNames[i] = "ladder." + st.name
	}
	b.spans = slices.Grow(b.spans, len(path)*ladderOps)
	var before, after runtime.MemStats
	for lo := 0; lo < ladderOps; lo += ladderBlock {
		for i, st := range path {
			runtime.ReadMemStats(&before)
			for _, k := range st.keys[lo : lo+ladderBlock] {
				sp := b.begin(spanNames[i], b.t.request(), 0)
				start := time.Now()
				err := st.call(k)
				lat[i] = append(lat[i], int64(time.Since(start)))
				b.end(sp)
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", st.name, err)
				}
			}
			runtime.ReadMemStats(&after)
			mallocs[i] += float64(after.Mallocs - before.Mallocs)
			bytes[i] += float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	out := make([]rungResult, len(path))
	for i, st := range path {
		p50, err := percentile(lat[i], 0.5)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", st.name, err)
		}
		out[i] = rungResult{name: st.name, p50: p50, allocs: ratio{mallocs[i], ladderOps}, bytes: ratio{bytes[i], ladderOps}}
	}
	return out, nil
}

// ladderOrder lists the rungs top-down per path; each must cost at least
// as much as the one below it.
var ladderOrder = [][]string{
	{"client.get_targets", "lrc.get_targets", "rdb.get_targets", "storage.snapshot"},
	{"client.create", "lrc.create", "rdb.create"},
	{"client.delete", "lrc.delete", "rdb.delete"},
	{"client.rli_query", "rli.query", "rdb.rli_query"},
}

// ladder replays the workload's seeded keys serially at each layer entry:
// the client (through the network and server), the owning LRC service, its
// database, and its storage engine; for the index, the Failover client,
// replica 0's RLI service and its database. Write rungs create fresh names
// and the matching delete rung removes them again.
func (d *deployment) ladder(ctx context.Context, wl string, cat *catalog, seed int64, b *spanBuf) ([]rungResult, error) {
	_, readMix := mixes(wl)
	take := func(s *stream, f func(*stream) op) []op {
		out := make([]op, ladderOps)
		for i := range out {
			out[i] = f(s)
		}
		return out
	}
	next := func(s *stream) op { return s.next() }
	create := func(s *stream) op { return s.create() }
	remove := func(s *stream) op { return s.remove() }
	reads := take(newStream(readMix, cat, seed, streamLadder), next)
	rliKeys := take(newStream(mixRLI, cat, seed, streamLadder+1), next)
	rli := d.rlis[0]

	gets := []step{
		{"client.get_targets", reads, func(o op) error {
			got, err := d.router.GetTargets(ctx, o.logical)
			return d.or.checkGet(o, got, err)
		}},
		{"lrc.get_targets", reads, func(o op) error {
			got, err := d.owner(o.logical).LRC.GetTargets(ctx, o.logical)
			return d.or.checkGet(o, got, err)
		}},
		{"rdb.get_targets", reads, func(o op) error {
			got, err := d.owner(o.logical).LRC.DB().GetTargets(o.logical)
			return d.or.checkGet(o, got, err)
		}},
		{"storage.snapshot", reads, func(o op) error {
			s, err := d.owner(o.logical).LRCEngine.Snapshot()
			if err != nil {
				return err
			}
			s.Close()
			return nil
		}},
	}
	rlis := []step{
		{"client.rli_query", rliKeys, func(o op) error {
			got, err := d.failover.RLIQuery(ctx, o.logical)
			return d.or.checkRLI(o, got, err)
		}},
		{"rli.query", rliKeys, func(o op) error {
			got, _, err := rli.RLI.QueryLRCsDetailed(ctx, o.logical)
			return d.or.checkRLI(o, got, err)
		}},
		{"rdb.rli_query", rliKeys, func(o op) error {
			got, err := rli.RLI.DB().QueryLRCs(o.logical)
			return d.or.checkRLIDB(o, got, err)
		}},
	}
	writers := []struct {
		layer          string
		create, delete func(op) error
	}{
		{"client",
			func(o op) error { return d.router.CreateMapping(ctx, o.logical, o.target) },
			func(o op) error { return d.router.DeleteMapping(ctx, o.logical, o.target) }},
		{"lrc",
			func(o op) error { return d.owner(o.logical).LRC.CreateMapping(ctx, o.logical, o.target) },
			func(o op) error { return d.owner(o.logical).LRC.DeleteMapping(ctx, o.logical, o.target) }},
		{"rdb",
			func(o op) error { return d.owner(o.logical).LRC.DB().CreateMapping(o.logical, o.target) },
			func(o op) error { return d.owner(o.logical).LRC.DB().DeleteMapping(o.logical, o.target) }},
	}
	var creates, deletes []step
	for i, w := range writers {
		s := newStream(mixChurn, cat, seed, streamLadder+2+i)
		c, del := w.create, w.delete
		creates = append(creates, step{w.layer + ".create", take(s, create), func(o op) error { return d.or.checkWrite(o, c(o)) }})
		deletes = append(deletes, step{w.layer + ".delete", take(s, remove), func(o op) error { return d.or.checkWrite(o, del(o)) }})
	}
	var out []rungResult
	for _, path := range [][]step{gets, rlis, creates, deletes} {
		r, err := runPath(b, path)
		if err != nil {
			return out, err
		}
		out = append(out, r...)
	}
	return out, nil
}
