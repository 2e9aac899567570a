package storage

import (
	"time"
)

// MVCC snapshot reads.
//
// A published engineVersion is an immutable map from table name to a frozen
// tview (copy-on-write clones of the table's heap and index trees, see
// table.cloneView). Versions are published on demand: a commit, vacuum or
// DDL marks the tables it touched stale and clears the engine's `current`
// pointer, and the first Snapshot after that publishes (see publishLocked).
// While no write is pending, Snapshot is latch-free: it loads the pointer,
// pins the epoch, and reads shared immutable trees while writers keep
// committing. A write that no reader follows therefore pays no clone, and
// the next write to the same tree no path copies. The exception is a long
// batch, which publishes as it commits (see publishBatchOps).
//
// Version retirement is the epoch/refcount scheme: pins maps epoch ->
// (refcount, publish time). A published version stays reachable only through
// `current` or through pinned Snaps — a commit drops both `current` and the
// touched tables' kept views — and when Snap.Close drops the last pin on an
// old epoch the version's trees become garbage and the runtime reclaims them.
// Vacuum and Checkpoint never touch pinned versions — Vacuum prunes
// tombstones from the live trees only (every pinned snapshot keeps the
// tombstones it froze), and Checkpoint serializes a pinned version to disk
// while writers proceed.

// engineVersion is one published, immutable cross-table version. The tables
// map and every tview in it are frozen at publish time.
type engineVersion struct {
	epoch  uint64
	taken  time.Time
	tables map[string]tview
}

// pinEntry tracks one pinned epoch.
type pinEntry struct {
	refs  int
	taken time.Time
}

// publishBatchOps is the batch size, in row operations, from which a commit
// publishes at once instead of leaving it to the next Snapshot. A reader
// that finds a table stale waits for the batch in flight on it, and the
// batch after a long one is often long too: a soft-state full update
// arrives in batches of thousands of names, about two row operations each.
// Publishing after such a batch lets readers skip the next one's latches;
// the publish itself costs a batch this long well under one percent
// (BenchmarkSnapshotAfterWrite beside BenchmarkTxInsertParallel). Catalog
// writes (about three operations each, a few per batch) and incremental
// soft-state updates (a hundred names by default) stay far below it, and
// lazy.
const publishBatchOps = 1024

// publishLocked returns the current version, first publishing one when a
// write has retired it. It clones the stale tables among latched, whose
// latches the caller holds, and builds the version from every table's kept
// view. If a table outside latched is still stale it publishes nothing and
// returns nil: that table's live trees may hold a batch in flight. The
// caller holds pubMu, which every commit takes to mark its tables stale, so
// a batch is seen whole or not at all — or the exclusive global latch, with
// every table in latched.
func (e *Engine) publishLocked(latched []*table) *engineVersion {
	if ev := e.current.Load(); ev != nil {
		return ev
	}
	for _, t := range latched {
		t.keepView()
	}
	for _, t := range e.tables {
		if t.stale() {
			return nil
		}
	}
	ev := &engineVersion{
		epoch:  e.epoch.Load() + 1,
		taken:  e.opts.Clock.Now(),
		tables: make(map[string]tview, len(e.tables)),
	}
	for name, t := range e.tables {
		ev.tables[name] = t.pub
	}
	e.epoch.Store(ev.epoch)
	e.current.Store(ev)
	e.versionsPublished.Add(1)
	return ev
}

// Snap is a latch-free read-only view of the last committed state at the time
// Snapshot was called. It embeds a Reader over immutable data, so every
// Reader method works unchanged; concurrent commits, Vacuum and Checkpoint
// never alter what it observes. Close unpins the epoch; a Snap holds no locks,
// so forgetting Close only delays memory reclamation, never blocks writers.
type Snap struct {
	Reader
	e      *Engine
	epoch  uint64
	closed bool
}

// Snapshot pins the last committed version and returns a reader over it. The
// caller must Close the snapshot when done. It is latch-free unless a write
// committed since the last publish; then it publishes (see
// publishSnapshot), waiting at most for a batch in flight on a table written
// since — so it must not be called while the caller holds a Tx of the same
// engine (latchcheck reports such calls).
func (e *Engine) Snapshot() (*Snap, error) {
	if e.closedFlag.Load() {
		return nil, ErrClosed
	}
	ev := e.pinCurrent()
	if ev == nil {
		var err error
		if ev, err = e.publishSnapshot(); err != nil {
			return nil, err
		}
	}
	e.snapshotsTaken.Add(1)
	return &Snap{
		Reader: Reader{views: ev.tables},
		e:      e,
		epoch:  ev.epoch,
	}, nil
}

// pinCurrent pins and returns the current version, or returns nil when a
// write has retired it.
func (e *Engine) pinCurrent() *engineVersion {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	ev := e.current.Load()
	if ev != nil {
		e.pinLocked(ev)
	}
	return ev
}

// publishSnapshot is Snapshot's slow path. It latches only the stale
// tables — the ones written since the last publish, whose live trees it must
// clone — and takes the others' kept views, so it waits only for a batch in
// flight on a stale table. Every commit marks its tables stale under pubMu,
// and the version is built under pubMu, so a cross-table batch is seen whole
// or not at all. If a commit made another table stale while it waited for
// the latches, it latches that one too and tries again; the latched set only
// grows, so it ends within one round per table. Concurrent slow-path readers
// publish once: the later ones find the first one's version.
func (e *Engine) publishSnapshot() (*engineVersion, error) {
	e.global.RLock()
	defer e.global.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	var latched []*table
	defer func() { unlockTables(latched) }()
	for {
		e.pubMu.Lock()
		if ev := e.publishLocked(latched); ev != nil {
			e.pinVersion(ev)
			e.pubMu.Unlock()
			return ev, nil
		}
		names := make([]string, 0, len(e.tables))
		for _, t := range latched {
			names = append(names, t.schema.Name)
		}
		for name, t := range e.tables {
			if t.stale() {
				names = append(names, name)
			}
		}
		e.pubMu.Unlock()
		unlockTables(latched)
		var err error
		if _, latched, err = e.lockTables(names); err != nil {
			return nil, err
		}
	}
}

// pinVersion pins an already-published version.
func (e *Engine) pinVersion(ev *engineVersion) {
	e.pinMu.Lock()
	e.pinLocked(ev)
	e.pinMu.Unlock()
}

func (e *Engine) pinLocked(ev *engineVersion) {
	pe := e.pins[ev.epoch]
	pe.refs++
	pe.taken = ev.taken
	e.pins[ev.epoch] = pe
}

// unpin releases one reference on an epoch.
func (e *Engine) unpin(epoch uint64) {
	e.pinMu.Lock()
	if pe, ok := e.pins[epoch]; ok {
		pe.refs--
		if pe.refs <= 0 {
			delete(e.pins, epoch)
		} else {
			e.pins[epoch] = pe
		}
	}
	e.pinMu.Unlock()
}

// Epoch reports which committed version the snapshot is pinned to.
func (s *Snap) Epoch() uint64 { return s.epoch }

// Close unpins the snapshot. Safe to call more than once.
func (s *Snap) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.e.unpin(s.epoch)
}

// SnapshotView runs fn with a latch-free reader over the last committed
// version. fn may touch any table; it observes the frozen version regardless
// of concurrent commits.
func (e *Engine) SnapshotView(fn func(r *Reader) error) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(&s.Reader)
}

// SnapshotStats describes the MVCC version state: the published epoch, how
// many snapshots were taken and versions published since open, and the pinned
// set that bounds version retirement.
type SnapshotStats struct {
	// Epoch is the last published version's epoch.
	Epoch uint64
	// Taken counts Snapshot() calls since the engine opened.
	Taken int64
	// Published counts version publishes since the engine opened: at most
	// one per Snapshot, and only for a Snapshot that follows a committed
	// write, DDL or vacuum, plus at most one per long batch (see
	// publishBatchOps).
	Published int64
	// Pinned is the number of currently open snapshot pins.
	Pinned int64
	// OldestPinned is the lowest pinned epoch, or 0 when nothing is pinned.
	// Versions older than it are unreachable and retired by the runtime.
	OldestPinned uint64
	// OldestPinAgeNS is the age of the oldest pinned version (time since it
	// was published), or 0 when nothing is pinned — the snapshot-age gauge.
	OldestPinAgeNS int64
}

// snapshotStats assembles the gauge set. Latch-free.
func (e *Engine) snapshotStats() SnapshotStats {
	st := SnapshotStats{
		Taken:     e.snapshotsTaken.Load(),
		Published: e.versionsPublished.Load(),
		Epoch:     e.epoch.Load(),
	}
	now := e.opts.Clock.Now()
	e.pinMu.Lock()
	for epoch, pe := range e.pins {
		st.Pinned += int64(pe.refs)
		if st.OldestPinned == 0 || epoch < st.OldestPinned {
			st.OldestPinned = epoch
			st.OldestPinAgeNS = now.Sub(pe.taken).Nanoseconds()
		}
	}
	e.pinMu.Unlock()
	if st.OldestPinAgeNS < 0 {
		st.OldestPinAgeNS = 0
	}
	return st
}
