package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
)

func benchSchema(name string) Schema {
	return Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
		},
		Indexes: []IndexSpec{{Name: "by_id", Columns: []string{"id"}, Unique: true}},
	}
}

func benchEngine(b *testing.B, tables int) (*Engine, []string) {
	b.Helper()
	e := OpenMemory(fastOpts())
	names := make([]string, tables)
	for i := range names {
		names[i] = fmt.Sprintf("bench_t%d", i)
		if err := e.CreateTable(benchSchema(names[i])); err != nil {
			b.Fatalf("CreateTable: %v", err)
		}
	}
	b.Cleanup(func() { e.Close() })
	return e, names
}

// BenchmarkTxInsertParallel commits single-insert transactions from many
// goroutines, each declaring one of several disjoint tables. With per-table
// latches the commits only share the WAL append; throughput should scale
// with GOMAXPROCS rather than serialize on an engine-wide lock.
func BenchmarkTxInsertParallel(b *testing.B) {
	const tables = 8
	e, names := benchEngine(b, tables)
	var gid, rowid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tbl := names[int(gid.Add(1))%tables]
		for pb.Next() {
			id := rowid.Add(1)
			tx, err := e.Begin(tbl)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tx.Insert(tbl, Row{Int64(id), String(fmt.Sprintf("n-%d", id))}); err != nil {
				tx.Rollback()
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGroupCommitFlushOn commits flush-on transactions from many
// goroutines against a device with a real (small) sync latency. Group commit
// lets concurrent committers share one sync, so the measured per-commit cost
// should be well under one full sync latency once parallelism exceeds one.
// The syncs-avoided ratio is reported as a metric.
func BenchmarkGroupCommitFlushOn(b *testing.B) {
	e := OpenMemory(Options{Device: disk.New(disk.Params{SyncLatency: 200 * time.Microsecond})})
	const tbl = "bench_gc"
	if err := e.CreateTable(benchSchema(tbl)); err != nil {
		b.Fatalf("CreateTable: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	e.SetFlushOnCommit(true)
	var rowid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := rowid.Add(1)
			tx, err := e.Begin(tbl)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tx.Insert(tbl, Row{Int64(id), String(fmt.Sprintf("n-%d", id))}); err != nil {
				tx.Rollback()
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	gc := e.Stats().GroupCommit
	if gc.Commits > 0 {
		b.ReportMetric(float64(gc.SyncsAvoided)/float64(gc.Commits), "syncs-avoided/commit")
	}
}
