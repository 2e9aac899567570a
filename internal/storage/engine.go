package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/disk"
)

// Personality selects the delete behaviour of the engine, reproducing the
// back-end sensitivity the paper studies in §5.1-5.2.
type Personality uint8

const (
	// PersonalityMySQL deletes rows in place (MySQL 4.0 / MyISAM-era).
	PersonalityMySQL Personality = iota
	// PersonalityPostgres tombstones deleted rows; Vacuum reclaims them
	// (PostgreSQL 7.2-era MVCC bloat).
	PersonalityPostgres
)

// String names the personality.
func (p Personality) String() string {
	if p == PersonalityPostgres {
		return "postgres"
	}
	return "mysql"
}

// Options configures an Engine.
type Options struct {
	// Personality selects delete behaviour. Default PersonalityMySQL.
	Personality Personality
	// FlushOnCommit makes every commit charge a synchronous device flush,
	// the "database flush enabled" configuration of Figure 4/5. When false,
	// a background flusher syncs every FlushInterval, the configuration the
	// paper recommends ("we recommend that RLS users disable this feature").
	FlushOnCommit bool
	// FlushInterval is the background flush period when FlushOnCommit is
	// false. Default 500ms.
	FlushInterval time.Duration
	// Device models the backing disk. Default: disk.DefaultParams model.
	Device *disk.Device
	// Clock drives the background flusher and stamps published versions.
	// Default: real clock.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = 500 * time.Millisecond
	}
	if o.Device == nil {
		o.Device = disk.New(disk.DefaultParams())
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// Engine is an embedded relational storage engine instance: the stand-in for
// one MySQL or PostgreSQL server process in the paper's deployment.
//
// Concurrency has a write side and a read side. Writes are two-level: the
// outer level is the global latch — transactions hold it shared for their
// lifetime while table DDL and Close hold it exclusive — and the inner level
// is one latch per table, acquired for the declared table set in sorted name
// order, so transactions on disjoint tables run in parallel and no
// acquisition order can deadlock. Update batches concurrent writers on one
// table set into a single transaction (see update.go), and commit durability
// is amortized across concurrent commits by WAL group commit (see
// wal.commitAppend).
//
// The read side is MVCC: every commit publishes an immutable copy-on-write
// version of the tables it touched (see mvcc.go), and Snapshot() pins the
// last published version without taking any latch. Readers — the query
// paths, Bloom rebuilds and soft-state dumps — never contend with writers,
// and Checkpoint and Vacuum do not stop the world: Checkpoint serializes a
// pinned version while commits proceed, and Vacuum prunes one table under
// its write latch only.
type Engine struct {
	opts Options
	dir  string // "" for memory-only

	// flushOnCommit is dynamic, like MySQL's
	// innodb_flush_log_at_trx_commit: the benchmark harness preloads
	// catalogs with it off and measures with it on or off per Figure 4.
	flushOnCommit atomic.Bool

	global  sync.RWMutex
	tables  map[string]*table // guarded by global (exclusive to mutate)
	byID    map[uint32]*table
	nextTab uint32
	wal     *wal // internally synchronized; see wal.mu
	closed  bool // guarded by global

	// MVCC state (see mvcc.go). current is the last published version;
	// pubMu orders publishes, pinMu guards the pin refcounts. closedFlag
	// mirrors closed for the latch-free Snapshot path.
	current           atomic.Pointer[engineVersion]
	pubMu             sync.Mutex
	pinMu             sync.Mutex
	pins              map[uint64]pinEntry
	snapshotsTaken    atomic.Int64
	versionsPublished atomic.Int64
	closedFlag        atomic.Bool

	// queues holds one group-commit queue per declared table set (see
	// update.go).
	queuesMu sync.Mutex
	queues   map[string]*updateQueue

	// ckptMu serializes checkpoints (they run mostly outside the global
	// latch); ckptSeq numbers rotated WAL segments, mutated under both.
	ckptMu  sync.Mutex
	ckptSeq int

	flushStop chan struct{}
	flushDone chan struct{}
}

// SetFlushOnCommit switches the commit-durability policy at runtime.
func (e *Engine) SetFlushOnCommit(on bool) { e.flushOnCommit.Store(on) }

// FlushOnCommit reports the current commit-durability policy.
func (e *Engine) FlushOnCommit() bool { return e.flushOnCommit.Load() }

// OpenMemory creates an engine without file persistence. Device write and
// sync charges still apply, so performance behaves like the durable
// configuration; only real file I/O is skipped. This is what the benchmark
// harness uses.
func OpenMemory(opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		opts:   o,
		tables: make(map[string]*table),
		byID:   make(map[uint32]*table),
		wal:    newWAL(nil, 0, o.Device),
		pins:   make(map[uint64]pinEntry),
		queues: make(map[string]*updateQueue),
	}
	e.current.Store(&engineVersion{epoch: 1, taken: o.Clock.Now(), tables: map[string]tview{}})
	e.flushOnCommit.Store(opts.FlushOnCommit)
	e.startFlusher()
	return e
}

// Open creates or reopens an engine persisted under dir. Existing state is
// recovered by loading the latest snapshot, replaying any rotated WAL
// segments left by an interrupted checkpoint (in rotation order), then
// replaying the live WAL; a torn tail (crash during append) is discarded.
// Replay is idempotent per rowid, so a segment whose effects already made it
// into the snapshot is harmless to replay again.
func Open(dir string, opts Options) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
		opts:   opts.withDefaults(),
		dir:    dir,
		tables: make(map[string]*table),
		byID:   make(map[uint32]*table),
		pins:   make(map[uint64]pinEntry),
		queues: make(map[string]*updateQueue),
	}
	e.current.Store(&engineVersion{tables: map[string]tview{}})
	if err := e.loadSnapshot(); err != nil {
		return nil, err
	}
	prevs, maxSeq, err := e.prevWALSegments()
	if err != nil {
		return nil, err
	}
	e.ckptSeq = maxSeq
	for _, p := range prevs {
		if err := e.replayWALFile(p); err != nil {
			return nil, err
		}
	}
	w, err := openWAL(e.walPath(), e.opts.Device)
	if err != nil {
		return nil, err
	}
	e.wal = w
	if err := e.replayWALFile(e.walPath()); err != nil {
		_ = w.close() // the replay failure is the error that matters
		return nil, err
	}
	e.publishAllLocked() // epoch 1: the recovered state
	e.flushOnCommit.Store(opts.FlushOnCommit)
	e.startFlusher()
	return e, nil
}

func (e *Engine) walPath() string      { return filepath.Join(e.dir, "wal.log") }
func (e *Engine) snapshotPath() string { return filepath.Join(e.dir, "snapshot.db") }

// prevWALPath names a rotated WAL segment awaiting checkpoint completion.
func (e *Engine) prevWALPath(seq int) string {
	return filepath.Join(e.dir, fmt.Sprintf("wal.%06d.prev", seq))
}

// prevWALSegments lists rotated WAL segments in rotation order and the
// highest sequence number found.
func (e *Engine) prevWALSegments() ([]string, int, error) {
	matches, err := filepath.Glob(filepath.Join(e.dir, "wal.*.prev"))
	if err != nil {
		return nil, 0, err
	}
	maxSeq := 0
	type seg struct {
		seq  int
		path string
	}
	segs := make([]seg, 0, len(matches))
	for _, p := range matches {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(p), "wal.%d.prev", &seq); err != nil {
			return nil, 0, fmt.Errorf("storage: unrecognized WAL segment %s", p)
		}
		segs = append(segs, seg{seq: seq, path: p})
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths, maxSeq, nil
}

// removePrevWALSegments deletes rotated segments up to and including seq:
// their contents are captured by the snapshot that just landed.
func (e *Engine) removePrevWALSegments(seq int) error {
	for s := 1; s <= seq; s++ {
		if err := os.Remove(e.prevWALPath(s)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

func (e *Engine) startFlusher() {
	e.flushStop = make(chan struct{})
	e.flushDone = make(chan struct{})
	go e.flushLoop()
}

// flushLoop periodically syncs buffered commits to the device, the
// "flush disabled" mode: improved performance at some risk of losing the
// last interval's transactions on a crash (the paper: "maintains loose
// consistency ... at some risk of database corruption").
func (e *Engine) flushLoop() {
	defer close(e.flushDone)
	t := e.opts.Clock.NewTicker(e.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-e.flushStop:
			return
		case <-t.C():
			if flushed, _ := e.wal.flushIfDirty(); flushed {
				e.opts.Device.Sync()
			}
		}
	}
}

// Close stops the engine, syncing outstanding state. It waits out any
// group-commit batch still in flight before closing the log file. Open
// snapshots keep reading their pinned (immutable) versions; only new
// Snapshot calls fail.
func (e *Engine) Close() error {
	e.global.Lock()
	if e.closed {
		e.global.Unlock()
		return nil
	}
	e.closed = true
	e.closedFlag.Store(true)
	e.global.Unlock()
	if e.flushStop != nil {
		close(e.flushStop)
		<-e.flushDone
	}
	e.wal.drain()
	if err := e.wal.sync(); err != nil {
		return err
	}
	return e.wal.close()
}

// ErrNoSuchTable is returned for operations on unknown tables.
var ErrNoSuchTable = errors.New("storage: no such table")

// ErrNoSuchIndex is returned for probes on unknown indexes.
var ErrNoSuchIndex = errors.New("storage: no such index")

// ErrClosed is returned when using a closed engine.
var ErrClosed = errors.New("storage: engine is closed")

// ErrNotDurable wraps the error of a commit whose mutations were applied and
// published — readers see them — but whose durability was not confirmed: the
// WAL write or sync failed, or the committer's context ended while it waited
// for the group-commit sync.
var ErrNotDurable = errors.New("storage: committed but durability not confirmed")

// ErrTableNotDeclared is returned when a transaction touches a table it did
// not declare at Begin or Update. Latches are acquired up front in sorted
// order; touching undeclared tables lazily could deadlock.
var ErrTableNotDeclared = errors.New("storage: table not declared at Begin")

// CreateTable adds a table. It is an error if one with the same name exists.
// It takes the exclusive global latch: table DDL is stop-the-world.
func (e *Engine) CreateTable(schema Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	e.global.Lock()
	defer e.global.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, ok := e.tables[schema.Name]; ok {
		return fmt.Errorf("storage: table %s already exists", schema.Name)
	}
	e.nextTab++
	t := newTable(e.nextTab, schema, e.opts.Device)
	e.tables[schema.Name] = t
	e.byID[t.id] = t
	e.publish(map[string]tview{schema.Name: t.cloneView()})
	frame := walEncode(walRecord{kind: recCreateTable, tableID: t.id, schema: schema})
	if err := e.wal.append(frame); err != nil {
		return err
	}
	e.opts.Device.Write(len(frame))
	return e.afterMutation()
}

// afterMutation applies the commit-durability policy after a non-transaction
// mutation (DDL) has been appended to the WAL.
func (e *Engine) afterMutation() error {
	if e.flushOnCommit.Load() {
		return e.wal.sync()
	}
	e.wal.markDirty()
	return nil
}

// lockTables resolves the named tables (every table when names is empty) and
// acquires their latches in sorted name order — the single global order that
// keeps concurrent transactions deadlock-free. The caller holds the global
// latch shared; the table map only changes under the exclusive global latch,
// so reading it here is race-free. On error no latches remain held.
func (e *Engine) lockTables(names []string) (map[string]*table, []*table, error) {
	if len(names) == 0 {
		names = make([]string, 0, len(e.tables))
		for name := range e.tables {
			names = append(names, name)
		}
	} else {
		names = append([]string(nil), names...)
	}
	sort.Strings(names)
	declared := make(map[string]*table, len(names))
	latched := make([]*table, 0, len(names))
	for _, name := range names {
		if _, ok := declared[name]; ok {
			continue // duplicate declaration
		}
		t, ok := e.tables[name]
		if !ok {
			unlockTables(latched)
			return nil, nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
		}
		t.lockLatch()
		declared[name] = t
		latched = append(latched, t)
	}
	return declared, latched, nil
}

// unlockTables releases latches taken by lockTables. Release order is
// irrelevant for deadlock freedom; only acquisition order matters.
func unlockTables(latched []*table) {
	for _, t := range latched {
		t.latch.Unlock()
	}
}

// Begin starts a write transaction over the named tables, write-latching
// exactly those tables so transactions on disjoint tables proceed in
// parallel. With no names, every table is latched — the whole-engine
// exclusion the engine provided before per-table latches, still correct for
// callers whose table set is data-dependent. Every transaction must be
// finished with Commit or Rollback.
func (e *Engine) Begin(tableNames ...string) (*Tx, error) {
	e.global.RLock()
	if e.closed {
		e.global.RUnlock()
		return nil, ErrClosed
	}
	declared, latched, err := e.lockTables(tableNames)
	if err != nil {
		e.global.RUnlock()
		return nil, err
	}
	//lint:ignore lockcheck the shared global latch is handed to the Tx and released by Commit or Rollback
	return &Tx{e: e, tables: declared, latched: latched}, nil
}

// Vacuum physically reclaims tombstoned rows in the named table. It runs
// under the table's write latch only — writers and readers of other tables
// proceed, and snapshot readers of this table keep their pinned versions —
// and charges device work proportional to the heap it scans. (The paper-era
// PostgreSQL vacuum "may require exclusive access to the database"; the MVCC
// engine retires only versions no snapshot can reach, so the exclusive latch
// is gone.)
func (e *Engine) Vacuum(tableName string) (reclaimed int64, err error) {
	e.global.RLock()
	if e.closed {
		e.global.RUnlock()
		return 0, ErrClosed
	}
	t, ok := e.tables[tableName]
	if !ok {
		e.global.RUnlock()
		return 0, fmt.Errorf("%w: %s", ErrNoSuchTable, tableName)
	}
	t.lockLatch()
	heapSize := t.heap.Len()
	reclaimed = t.vacuumLocked()
	frame := walEncode(walRecord{kind: recVacuum, tableID: t.id})
	err = e.wal.append(frame)
	e.publish(map[string]tview{tableName: t.cloneView()})
	t.latch.Unlock()
	e.global.RUnlock()
	// Vacuum rewrites the heap: charge a scan of every page plus a sync.
	// Charges are paid after release so they serialize on the device queue,
	// not on the table.
	e.opts.Device.Write(64 * heapSize)
	if err != nil {
		return reclaimed, err
	}
	e.opts.Device.Write(len(frame))
	if err := e.wal.sync(); err != nil {
		return reclaimed, err
	}
	e.opts.Device.Sync()
	return reclaimed, nil
}

// VacuumAll vacuums every table and returns the total rows reclaimed.
func (e *Engine) VacuumAll() (int64, error) {
	e.global.RLock()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	e.global.RUnlock()
	sort.Strings(names)
	var total int64
	for _, name := range names {
		n, err := e.Vacuum(name)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TableStats describes one table's occupancy and latch contention.
type TableStats struct {
	Name string
	Live int64
	Dead int64
	// LatchWaits counts latch acquisitions that had to block; LatchWaitNS
	// is the total time those acquisitions spent blocked.
	LatchWaits  int64
	LatchWaitNS int64
}

// GroupCommitStats describes WAL group-commit batching: how many flush-on
// commits were coalesced into how many leader syncs.
type GroupCommitStats struct {
	// Commits counts flush-on commits that went through group commit.
	Commits int64
	// Batches counts leader sync rounds; each pays one file + device sync.
	Batches int64
	// SyncsAvoided is Commits - Batches: device syncs saved by batching.
	SyncsAvoided int64
	// MaxBatch is the largest batch observed.
	MaxBatch int64
	// BatchSizes is a batch-size histogram with bucket upper bounds
	// 1, 2, 4, 8, 16 and a final overflow bucket.
	BatchSizes [6]int64
}

// Stats reports occupancy of every table plus WAL and MVCC activity.
// WALAppends, WALFlushes and WALBytes are cumulative since the engine opened
// (they survive checkpoint truncation, unlike WALSize).
type Stats struct {
	Tables      []TableStats
	WALSize     int64
	WALAppends  int64
	WALFlushes  int64
	WALBytes    int64
	GroupCommit GroupCommitStats
	Snapshots   SnapshotStats
}

// Stats returns a snapshot of engine occupancy and concurrency telemetry.
func (e *Engine) Stats() Stats {
	e.global.RLock()
	defer e.global.RUnlock()
	ws := e.wal.stats()
	st := Stats{
		WALSize:    ws.size,
		WALAppends: ws.appends,
		WALFlushes: ws.syncs,
		WALBytes:   ws.bytesWritten,
		GroupCommit: GroupCommitStats{
			Commits:      ws.gcCommits,
			Batches:      ws.gcBatches,
			SyncsAvoided: ws.gcSyncsAvoided,
			MaxBatch:     ws.gcMaxBatch,
			BatchSizes:   ws.gcBatchSizes,
		},
		Snapshots: e.snapshotStats(),
	}
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := e.tables[name]
		t.latch.RLock()
		ts := TableStats{
			Name:        name,
			Live:        t.liveCountLocked(),
			Dead:        t.dead,
			LatchWaits:  t.latchWaits.Load(),
			LatchWaitNS: t.latchWaitNS.Load(),
		}
		t.latch.RUnlock()
		st.Tables = append(st.Tables, ts)
	}
	return st
}

// Device exposes the engine's simulated device (for harness reporting).
func (e *Engine) Device() *disk.Device { return e.opts.Device }

// Personality reports the configured delete behaviour.
func (e *Engine) Personality() Personality { return e.opts.Personality }

// replayWALFile applies one log file to the in-memory state. Deletes are
// applied physically regardless of personality: recovery reconstructs final
// state, not bloat (PostgreSQL's on-disk bloat does survive restart, but only
// its performance effect matters here and the harness never restarts
// mid-experiment). Replay is idempotent: inserts overwrite by rowid without
// uniqueness probes and a create-table already present (from the snapshot or
// an earlier segment) is skipped, so a rotated segment whose effects are
// partially or fully captured by the snapshot replays to the same state. It
// runs before any concurrent access exists, so no latches are needed.
func (e *Engine) replayWALFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return walDecodeStream(f, func(rec walRecord) error {
		switch rec.kind {
		case recCreateTable:
			if prior, ok := e.byID[rec.tableID]; ok {
				if prior.schema.Name != rec.schema.Name {
					return fmt.Errorf("storage: replay: table id %d is both %q and %q",
						rec.tableID, prior.schema.Name, rec.schema.Name)
				}
				return nil // already created by snapshot or earlier segment
			}
			if err := rec.schema.Validate(); err != nil {
				return err
			}
			t := newTable(rec.tableID, rec.schema, e.opts.Device)
			e.tables[rec.schema.Name] = t
			e.byID[rec.tableID] = t
			if rec.tableID > e.nextTab {
				e.nextTab = rec.tableID
			}
		case recInsert:
			t, ok := e.byID[rec.tableID]
			if !ok {
				return fmt.Errorf("storage: replay: insert into unknown table %d", rec.tableID)
			}
			if err := t.replaceLocked(rec.row, rec.rowid); err != nil {
				return fmt.Errorf("storage: replay: %w", err)
			}
		case recDelete:
			t, ok := e.byID[rec.tableID]
			if !ok {
				return fmt.Errorf("storage: replay: delete from unknown table %d", rec.tableID)
			}
			t.deleteLocked(rec.rowid, PersonalityMySQL)
		case recVacuum, recCommit, recCheckpoint:
			// Inserts/deletes are already applied; nothing to do.
		}
		return nil
	})
}

// Checkpoint writes a snapshot of all tables and truncates the WAL, bounding
// recovery time — without stopping the world. It takes the exclusive global
// latch only long enough to wait out the in-flight group-commit batch,
// capture the current published version, and rotate the live WAL aside; the
// snapshot file is then written from that pinned, immutable version while
// writers commit into the fresh log. The rotated segment is deleted only
// after the snapshot lands, so a crash at any point recovers: old snapshot +
// rotated segments + live log replay to the same state (replay is idempotent,
// so the overlap window after the rename is harmless).
func (e *Engine) Checkpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.global.Lock()
	if e.closed {
		e.global.Unlock()
		return ErrClosed
	}
	if e.dir == "" {
		e.global.Unlock()
		return nil // memory engine: nothing to persist
	}
	e.wal.drain()
	// Every commit publishes before releasing its latches while holding the
	// shared global latch, so under the exclusive latch `current` covers
	// exactly the rotated log's contents.
	ev := e.current.Load()
	e.pinVersion(ev)
	e.ckptSeq++
	seq := e.ckptSeq
	if err := e.wal.rotate(e.walPath(), e.prevWALPath(seq)); err != nil {
		// seq stays consumed: the rename may have happened, and reusing the
		// number would overwrite that segment. Gaps are harmless.
		e.global.Unlock()
		e.unpin(ev.epoch)
		return err
	}
	e.global.Unlock()
	defer e.unpin(ev.epoch)
	if err := e.writeSnapshotVersion(ev); err != nil {
		return err // rotated segments retained: recovery replays them
	}
	return e.removePrevWALSegments(seq)
}
