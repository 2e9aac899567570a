// Command perfbench is the repository's benchmark: it builds an in-process
// RLS deployment (a 2-shard LRC tier behind client.Router and a 2-replica
// RLI group behind client.Failover, unshaped pipes, cost-free disk), drives
// one workload through it in closed loops, checks every answer, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload lrc-query --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans on and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Benchmark parameters. Changing any of them changes what the metrics
// mean; the run record carries them so comparisons can refuse mismatches.
const (
	catalogSize  = 50_000
	window       = 32 // requests outstanding in the windowed phase
	setupRuns    = 3  // set-ups per run; setup_s is their median
	warmupOps    = 100
	updatePasses = 5 // quiet soft-state passes after the windowed phase
	// serialShare of --seconds goes to the serial phase, the rest to the
	// windowed phase (split again between untraced and traced with --trace 1).
	serialShare = 0.3
	// rounds is how many serial-then-windowed rounds the measured time is
	// split into.
	rounds = 5
	// hardLimit stops a run that hangs, well inside the 180 s a run may take.
	hardLimit = 170 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds (serial + windowed phases)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := fs.String("root", ".", "repository root; scratch files go under <root>/.bench_build")
	out := fs.String("out", "", "also write the full run record as JSON to this file")
	compare := fs.Bool("compare", false, "compare two run records given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareRecords(fs.Args(), stdout)
	}
	if !slices.Contains(workloads, *wl) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	runtime.GOMAXPROCS(runtime.NumCPU())
	rec := newRecord(*wl, *seed, *seconds, *trace == 1, *root)
	res, err := measure(rec, filepath.Join(*root, ".bench_build"), stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	rec.Result = *res
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res) // plain struct of numbers and strings
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics and prints each as it is added.
type report struct {
	w       io.Writer
	metrics map[string]metricValue
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-44s %14.6g %-8s %s\n", name, v, unit, note)
}

func (r *report) ratio(name, unit string, q ratio) { r.add(name, unit, q.value(), q.String()) }

// measure runs the workload and prints its metrics. A wrong answer ends
// the run with a result marked incorrect; a failure to run at all returns
// a nil result.
func measure(rec *record, scratch string, w io.Writer) (*result, error) {
	p := rec.Params
	ctx := context.Background()
	cat := newCatalog(p.Catalog)
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", p.Workload, p.Seed, p.Seconds, p.Trace)
	fmt.Fprintf(w, "  record: git=%s %s nproc=%d GOMAXPROCS=%d catalog=%d shards=%d replicas=%d W=%d\n",
		rec.GitRev, p.GoVersion, p.NProc, p.GOMAXPROCS, p.Catalog, p.Shards, p.Replicas, p.Window)
	fmt.Fprintf(w, "  models: %s; engines: %s\n", p.Models, p.Engines)
	rec.Digest = fmt.Sprintf("%016x", opDigest(p.Workload, cat, p.Seed, p.Window))
	fmt.Fprintf(w, "  op-sequence digest: %s\n", rec.Digest)

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	res := &result{Metrics: map[string]metricValue{}}
	rep := &report{w: w, metrics: res.Metrics}
	var tr *tracer
	if p.Trace {
		tr = newTracer()
	}
	load, _ := mixes(p.Workload)
	streams := func(base int) []*stream {
		out := make([]*stream, p.Window)
		for i := range out {
			out[i] = newStream(load, cat, p.Seed, base+i)
		}
		return out
	}
	tally := func(ph phase) {
		res.Attempted += ph.ops
		res.Failed += ph.failed
	}
	var d *deployment
	fail := func(err error) (*result, error) {
		if d != nil {
			if oerr := d.or.err(); oerr != nil {
				err = oerr
			}
			d.close()
		}
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = 1
		}
		res.Attempted = max(res.Attempted, res.Failed)
		return res, err
	}

	// Set-up, several times; the last deployment is kept.
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		dir := ""
		if p.Workload == wlChurn {
			dir = filepath.Join(work, fmt.Sprintf("setup%d", i))
		}
		nd, err := build(ctx, p.Workload, cat, p.Window, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d = nd
		if p.Workload == wlSoft {
			if _, err := d.pass(ctx, nil, 0, 0); err != nil {
				return fail(fmt.Errorf("first soft-state pass: %w", err))
			}
		}
		warm := d.runClosed(ctx, streams(streamWarmup), nil, warmupOps, nil)
		tally(warm)
		if warm.failed > 0 {
			return fail(errors.New("warm-up answered wrongly"))
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			d.close()
			_ = os.RemoveAll(dir) // scratch; the work dir is removed at exit too
		}
	}

	// The measured time runs in rounds, each a serial slice then a windowed
	// slice (then a traced windowed slice, when tracing), so every metric
	// samples the whole run rather than one stretch of it.
	total := time.Duration(p.Seconds) * time.Second
	serialDur := time.Duration(float64(total)*serialShare) / rounds
	windowDur := (total - serialDur*rounds) / rounds
	if p.Trace {
		windowDur /= 2
	}
	var serial, windowed, traced phase
	var delta counters
	var passes []passResult
	serialStream := []*stream{newStream(load, cat, p.Seed, streamSerial)}
	untracedStreams, tracedStreams := streams(streamWindowed), streams(streamTraced)
	for r := 0; r < rounds; r++ {
		ph := d.runClosed(ctx, serialStream, after(serialDur), 0, nil)
		serial.merge(ph)
		tally(ph)

		before := d.counters()
		ph, ps, err := d.windowed(ctx, p.Workload, untracedStreams, windowDur, nil)
		delta = delta.plus(d.counters().minus(before))
		windowed.merge(ph)
		passes = append(passes, ps...)
		tally(ph)
		if err != nil {
			return fail(err)
		}
		if p.Trace {
			ph, _, err := d.windowed(ctx, p.Workload, tracedStreams, windowDur, tr)
			traced.merge(ph)
			tally(ph)
			if err != nil {
				return fail(fmt.Errorf("traced phase: %w", err))
			}
		}
	}
	if res.Failed > 0 {
		return fail(errors.New("wrong answers"))
	}

	// Names the replicas ingested during the passes: on rli-softstate the
	// passes ran inside the windowed phase, elsewhere they run now.
	ingested := delta[cIngested]
	if p.Workload != wlSoft {
		start := d.counters()[cIngested]
		for i := 0; i < updatePasses; i++ {
			pr, err := d.pass(ctx, nil, 0, 0)
			if err != nil {
				return fail(err)
			}
			passes = append(passes, pr)
		}
		ingested = d.counters()[cIngested] - start
	}
	var rungs []rungResult
	if p.Trace {
		rungs, err = d.ladder(ctx, p.Workload, cat, p.Seed, tr.buffer())
		res.Attempted += int64(len(rungs) * ladderOps)
		if err != nil {
			return fail(err)
		}
	}
	if err := d.reconcile(); err != nil {
		return fail(err)
	}
	res.Correct = d.or.err() == nil && res.Failed == 0
	if !res.Correct {
		return fail(errors.New("wrong answers"))
	}

	fmt.Fprintf(w, "  answers: %d checked, %d wrong; counts reconciled on every shard\n", res.Attempted, res.Failed)
	if !p.Trace {
		err = endToEnd(rep, setups, serial, windowed, passes, res)
	} else {
		err = perLayer(rep, windowed, traced, delta, passes, ingested, rungs, d, tr, rec.SpanFile)
	}
	if err != nil {
		return fail(err)
	}
	d.close()
	return res, nil
}

// windowed runs one windowed slice: window closed loops pipelined over
// the shard connections (the Failover's on rli-softstate) for dur. On
// rli-softstate one goroutine runs soft-state passes back to back beside
// the queries; the queries run on until the pass in progress at dur ends,
// so every pass is timed under query load.
func (d *deployment) windowed(ctx context.Context, wl string, streams []*stream, dur time.Duration, tr *tracer) (phase, []passResult, error) {
	if wl != wlSoft {
		return d.runClosed(ctx, streams, after(dur), 0, tr), nil, nil
	}
	var b *spanBuf
	if tr != nil {
		b = tr.buffer()
	}
	type loopOut struct {
		passes []passResult
		err    error
	}
	done := make(chan loopOut, 1)
	queriesStop := make(chan struct{})
	go func() {
		ps, err := d.passLoop(ctx, after(dur), b)
		close(queriesStop)
		done <- loopOut{ps, err}
	}()
	ph := d.runClosed(ctx, streams, queriesStop, 0, tr)
	lo := <-done
	if lo.err == nil && len(lo.passes) == 0 {
		lo.err = errors.New("no soft-state pass completed during the windowed phase")
	}
	return ph, lo.passes, lo.err
}

func endToEnd(rep *report, setups []float64, serial, windowed phase, passes []passResult, res *result) error {
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups %.3v", len(setups), setups))
	rep.add("ops_per_s", "ops/s", windowed.opsPerSec(), fmt.Sprintf("%d ops in %.3fs, W=%d", windowed.ops, windowed.elapsed.Seconds(), window))
	for _, q := range []struct {
		name string
		lat  []int64
		q    float64
	}{{"p50_ms", windowed.lat, 0.5}, {"p99_ms", windowed.lat, 0.99}, {"serial_p50_ms", serial.lat, 0.5}} {
		l, err := percentile(q.lat, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		rep.add(q.name, "ms", l.ms(), l.String())
	}
	fmt.Fprintf(rep.w, "  windowed latency distribution (us): %s\n", distribution(windowed.lat))
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	rep.add("update_s", "s", median(walls), fmt.Sprintf("median of %d passes %.3v", len(walls), walls))
	// error_rate is printed, not reported: on a correct run it is 0, and
	// correctness is carried by the result's correct and failed fields.
	errRate := ratio{float64(res.Failed), float64(res.Attempted)}
	fmt.Fprintf(rep.w, "  %-44s %14.6g %-8s %s\n", "error_rate", errRate.value(), "fraction", errRate)
	// Drop the big latency buffers before measuring the live heap.
	serial.lat, windowed.lat = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.add("heap_mb", "MB", float64(ms.HeapAlloc)/1e6, "live heap after a forced GC, deployment still up")
	return nil
}

// distribution prints latency quantiles of samples already sorted by
// percentile, to show the shape behind p50 and p99.
func distribution(sorted []int64) string {
	var parts []string
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		if i := int(q * float64(len(sorted))); i < len(sorted) {
			parts = append(parts, fmt.Sprintf("p%g=%.1f", q*100, float64(sorted[i])/1e3))
		}
	}
	return strings.Join(parts, " ")
}

func perLayer(rep *report, windowed, traced phase, c counters, passes []passResult, ingested float64,
	rungs []rungResult, d *deployment, tr *tracer, spanFile string) error {
	ops := float64(windowed.ops)
	writes, reads := float64(windowed.writes), float64(windowed.reads)

	fmt.Fprintln(rep.w, "  ladder (serial calls at each layer entry, p50):")
	p50 := map[string]float64{}
	for _, r := range rungs {
		p50[r.name] = r.p50.us()
		rep.add(r.name+"_us", "us", r.p50.us(), r.p50.String())
		rep.ratio(r.name+".allocs_per_op", "count", r.allocs)
		rep.ratio(r.name+".bytes_per_op", "B", r.bytes)
	}
	rep.add("rpc.self_us", "us", p50["client.get_targets"]-p50["lrc.get_targets"], "client.get_targets - lrc.get_targets")
	for _, path := range ladderOrder {
		ok := true
		for i := 1; i < len(path); i++ {
			ok = ok && p50[path[i-1]] >= p50[path[i]]
		}
		verdict := "ordered"
		if !ok {
			verdict = "NOT ORDERED"
		}
		fmt.Fprintf(rep.w, "  ladder %s: %s\n", strings.Join(path, " >= "), verdict)
	}

	fmt.Fprintf(rep.w, "  counters over the untraced windowed phase (%d ops: %d reads, %d writes):\n", windowed.ops, windowed.reads, windowed.writes)
	rep.ratio("wire.bytes_per_op", "B", ratio{c[cWireBytes], ops})
	rep.ratio("wire.writes_per_op", "count", ratio{c[cWireWrites], ops})
	rep.ratio("server.responses_per_flush", "count", ratio{c[cResponses], c[cFlushes]})
	rep.ratio("server.shed_per_op", "count", ratio{c[cShed], ops})
	rep.ratio("storage.wal_bytes_per_user_byte", "ratio", ratio{c[cWALBytes], float64(windowed.userBytes)})
	rep.ratio("storage.wal_appends_per_write", "count", ratio{c[cWALAppends], writes})
	rep.ratio("storage.versions_published_per_write", "count", ratio{c[cPublished], writes})
	rep.ratio("storage.latch_wait_us_per_write", "us", ratio{c[cLatchWaitNS] / 1e3, writes})
	rep.ratio("storage.snapshots_per_query", "count", ratio{c[cSnapshots], reads})
	rep.ratio("lrc.incremental_updates_per_1k_writes", "count", ratio{1000 * c[cIncrementals], writes})
	rep.ratio("lrc.names_sent_per_write", "count", ratio{c[cNamesSent], writes})
	rep.ratio("go.allocs_per_op", "count", ratio{c[cMallocs], ops})
	rep.ratio("go.alloc_bytes_per_op", "B", ratio{c[cAllocBytes], ops})
	rep.ratio("go.gc_cycles_per_10k_ops", "count", ratio{1e4 * c[cGCCycles], ops})

	fmt.Fprintf(rep.w, "  soft state (%d passes):\n", len(passes))
	var full, bloomMS []float64
	var wall time.Duration
	for _, ps := range passes {
		wall += ps.wall
		for _, r := range ps.results {
			switch r.Kind {
			case "full":
				full = append(full, r.Elapsed.Seconds())
			case "bloom":
				bloomMS = append(bloomMS, float64(r.Elapsed)/1e6)
			}
		}
	}
	rep.add("lrc.full_update_s", "s", median(full), fmt.Sprintf("median of %d uncompressed full updates", len(full)))
	rep.add("lrc.bloom_update_ms", "ms", median(bloomMS), fmt.Sprintf("median of %d Bloom updates", len(bloomMS)))
	rep.ratio("rli.names_ingested_per_s", "1/s", ratio{ingested, wall.Seconds()})
	rep.ratio("rli.false_positive_rate", "fraction", ratio{float64(d.or.missPositives.Load()), float64(d.or.missQueries.Load())})

	rep.ratio("trace.ops_per_s_ratio", "ratio", ratio{traced.opsPerSec(), windowed.opsPerSec()})
	fmt.Fprintf(rep.w, "  tracing overhead: traced %.0f ops/s against untraced %.0f ops/s\n", traced.opsPerSec(), windowed.opsPerSec())
	spans := tr.all()
	fmt.Fprintf(rep.w, "  spans: %d kept, %d dropped; per name (count, p50, p50 self):\n", len(spans), tr.dropped.Load())
	for _, s := range summarize(spans) {
		fmt.Fprintf(rep.w, "    %-22s %8d %10v %10v\n", s.name, s.n, s.p50, s.p50self)
	}
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return err
	}
	f, err := os.Create(spanFile)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(rep.w, "  spans written to %s\n", spanFile)
	return nil
}
