package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/disk"
)

// version is one stored row version. Under PersonalityMySQL a delete removes
// the version outright; under PersonalityPostgres the version is marked dead
// and remains in the heap and every index until Vacuum, so scans and
// uniqueness probes pay for it — the mechanism behind the Figure 8 sawtooth.
//
// Versions are immutable once created: the MVCC read path shares them between
// the live table and every published snapshot, so state changes (tombstoning,
// undelete) allocate a replacement version rather than mutating in place.
type version struct {
	rowid int64
	row   Row
	dead  bool
}

// index is one ordered index. Entries map (encoded column key ++ rowid) to
// the version, so multiple versions (and, for non-unique indexes, multiple
// rows) with equal column values coexist under distinct tree keys.
type index struct {
	spec IndexSpec
	cols []int
	pos  int // position in table.indexes, = slot in tview.trees
	tree btree.Tree
}

// entryKey appends the 8-byte big-endian rowid to the encoded column key.
func entryKey(colKey []byte, rowid int64) []byte {
	out := make([]byte, len(colKey)+8)
	copy(out, colKey)
	binary.BigEndian.PutUint64(out[len(colKey):], uint64(rowid))
	return out
}

// rowidKey is the heap-tree key for a rowid. Rowids are positive, so the
// big-endian encoding sorts in rowid order.
func rowidKey(rowid int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(rowid))
	return b[:]
}

// table is the in-memory representation of one table. The mutable state (heap
// and index trees) is copy-on-write: publishing a version clones every tree in
// O(1) and later writes copy only the paths they touch, so published clones
// stay frozen forever. A table is cloned only when a version is published
// after it changed; until it changes again every publish reuses that view.
type table struct {
	id     uint32
	schema Schema
	dev    *disk.Device // charged for dead-version visits (postgres bloat)

	// latch is the table's lock: transactions write-latch the tables they
	// declare, always in sorted name order (see Engine.lockTables), so
	// writers on disjoint tables never contend. Readers hold no latch at
	// all: they read published tviews. The *Locked methods below all
	// require it (or the exclusive global latch, which subsumes it); Stats
	// read-latches it for the occupancy counters.
	latch       sync.RWMutex
	latchWaits  atomic.Int64 // acquisitions that had to block
	latchWaitNS atomic.Int64 // total nanoseconds spent blocked on the latch

	heap     btree.Tree // rowidKey -> *version
	indexes  []*index
	byName   map[string]*index
	mutTrees []*btree.Tree // stable pointers at the live index trees
	nextRow  int64
	dead     int64 // tombstone count (postgres personality)

	// pub is the view taken at the last publish that found the table
	// changed; zero (stale) when the table has changed since. Dropping it at
	// commit keeps a table that is written but never read from holding a
	// second copy of every node its writes replace. Written under the table
	// latch and Engine.pubMu (or the exclusive global latch), read under
	// either.
	pub tview
}

// tview is one table version: an immutable (heap, index trees, tombstone
// count) triple. Published tviews back latch-free snapshot readers; the
// mutable view (mutView) aliases the live trees and is only valid under the
// table latch. All read paths go through tview so latched and latch-free
// readers share one implementation.
type tview struct {
	t     *table        // identity: schema, byName, device — immutable fields only
	heap  *btree.Tree   // rowidKey -> *version
	trees []*btree.Tree // parallel to t.indexes (slot = index.pos)
	dead  int64
}

// mutView returns the live-state view. Caller holds the table latch.
func (t *table) mutView() tview {
	return tview{t: t, heap: &t.heap, trees: t.mutTrees, dead: t.dead}
}

// cloneView freezes the current state as an immutable version: O(1) clones
// of the heap and every index tree. Caller holds the table write latch (or
// the exclusive global latch), so no mutation races the clone.
func (t *table) cloneView() tview {
	trees := make([]*btree.Tree, len(t.indexes))
	for i, ix := range t.indexes {
		trees[i] = ix.tree.Clone()
	}
	return tview{t: t, heap: t.heap.Clone(), trees: trees, dead: t.dead}
}

// markStale records a committed change: the next publish clones the table
// again. Caller holds the table write latch and pubMu (or the exclusive
// global latch).
func (t *table) markStale() { t.pub = tview{} }

// stale reports whether the table changed since its view was last kept.
func (t *table) stale() bool { return t.pub.t == nil }

// keepView clones a stale table into its kept view, for versions to
// publish. Caller holds the table write latch and pubMu (or the exclusive
// global latch).
func (t *table) keepView() {
	if t.stale() {
		t.pub = t.cloneView()
	}
}

// lockLatch write-acquires the table latch, recording wait telemetry only
// when the acquisition actually blocks so the uncontended fast path stays
// clock-free.
func (t *table) lockLatch() {
	if t.latch.TryLock() {
		return
	}
	start := time.Now()
	t.latch.Lock()
	t.latchWaits.Add(1)
	t.latchWaitNS.Add(time.Since(start).Nanoseconds())
	//lint:ignore lockcheck the latch is handed to the caller and released by unlockTables
}

func newTable(id uint32, schema Schema, dev *disk.Device) *table {
	t := &table{
		id:     id,
		schema: schema,
		dev:    dev,
		byName: make(map[string]*index, len(schema.Indexes)),
	}
	for i, spec := range schema.Indexes {
		ix := &index{spec: spec, cols: schema.columnPositions(spec.Columns), pos: i}
		t.indexes = append(t.indexes, ix)
		t.byName[spec.Name] = ix
		t.mutTrees = append(t.mutTrees, &ix.tree)
	}
	return t
}

// ErrUniqueViolation is returned when an insert would duplicate a live row
// in a unique index.
var ErrUniqueViolation = errors.New("storage: unique constraint violation")

// insertLocked adds a row to the table. The caller holds the table write
// latch. If rowid is <= 0 a fresh rowid is allocated. Uniqueness is checked
// against live versions; under the postgres personality the probe walks dead
// versions of the same key too, so bloat slows inserts until Vacuum.
func (t *table) insertLocked(row Row, rowid int64, personality Personality) (int64, error) {
	if len(row) != len(t.schema.Columns) {
		return 0, fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
			t.schema.Name, len(row), len(t.schema.Columns))
	}
	for i, v := range row {
		want := t.schema.Columns[i].Kind
		if v.Kind != want && v.Kind != KindNull {
			return 0, fmt.Errorf("storage: table %s column %s: value kind %s does not match column kind %s",
				t.schema.Name, t.schema.Columns[i].Name, v.Kind, want)
		}
	}
	for _, ix := range t.indexes {
		if !ix.spec.Unique {
			continue
		}
		colKey := encodeKey(row, ix.cols)
		conflict := false
		deadVisited := 0
		ix.tree.AscendPrefix(colKey, func(_ []byte, v any) bool {
			ver := v.(*version)
			if !ver.dead {
				conflict = true
				return false
			}
			deadVisited++
			return true // keep walking dead versions: the bloat cost
		})
		t.chargeDead(deadVisited)
		if conflict {
			return 0, fmt.Errorf("%w: table %s index %s", ErrUniqueViolation, t.schema.Name, ix.spec.Name)
		}
	}
	if rowid <= 0 {
		t.nextRow++
		rowid = t.nextRow
	} else if rowid > t.nextRow {
		t.nextRow = rowid
	}
	ver := &version{rowid: rowid, row: row.Clone()}
	t.heap.Set(rowidKey(rowid), ver)
	for _, ix := range t.indexes {
		ix.tree.Set(entryKey(encodeKey(row, ix.cols), rowid), ver)
	}
	_ = personality
	return rowid, nil
}

// replaceLocked is the recovery-path insert: it skips uniqueness probes and
// overwrites any existing version with the same rowid, which makes replay
// idempotent — a WAL prefix already captured in a snapshot can be replayed
// again without spurious unique violations (the records were validated when
// originally executed). Only used before the engine goes concurrent.
func (t *table) replaceLocked(row Row, rowid int64) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
			t.schema.Name, len(row), len(t.schema.Columns))
	}
	t.removeVersionLocked(rowid)
	if rowid > t.nextRow {
		t.nextRow = rowid
	}
	ver := &version{rowid: rowid, row: row.Clone()}
	t.heap.Set(rowidKey(rowid), ver)
	for _, ix := range t.indexes {
		ix.tree.Set(entryKey(encodeKey(row, ix.cols), rowid), ver)
	}
	return nil
}

// removeVersionLocked physically removes whatever version (live or dead)
// holds the rowid, from the heap and every index.
func (t *table) removeVersionLocked(rowid int64) {
	v, ok := t.heap.Get(rowidKey(rowid))
	if !ok {
		return
	}
	ver := v.(*version)
	if ver.dead {
		t.dead--
	}
	t.heap.Delete(rowidKey(rowid))
	for _, ix := range t.indexes {
		ix.tree.Delete(entryKey(encodeKey(ver.row, ix.cols), rowid))
	}
}

// deleteLocked removes the row with the given rowid. Under PersonalityMySQL
// the version and its index entries are removed; under PersonalityPostgres a
// replacement version marked dead is installed (versions are shared with
// published snapshots, so the tombstone must be a new allocation, never an
// in-place flip). Returns the removed row, or false if no live row has that
// id.
func (t *table) deleteLocked(rowid int64, personality Personality) (Row, bool) {
	v, ok := t.heap.Get(rowidKey(rowid))
	if !ok {
		return nil, false
	}
	ver := v.(*version)
	if ver.dead {
		return nil, false
	}
	if personality == PersonalityPostgres {
		tomb := &version{rowid: rowid, row: ver.row, dead: true}
		t.heap.Set(rowidKey(rowid), tomb)
		for _, ix := range t.indexes {
			ix.tree.Set(entryKey(encodeKey(ver.row, ix.cols), rowid), tomb)
		}
		t.dead++
		return ver.row, true
	}
	t.heap.Delete(rowidKey(rowid))
	for _, ix := range t.indexes {
		ix.tree.Delete(entryKey(encodeKey(ver.row, ix.cols), rowid))
	}
	return ver.row, true
}

// undeleteLocked reverses deleteLocked for transaction rollback.
func (t *table) undeleteLocked(rowid int64, row Row, personality Personality) {
	if personality == PersonalityPostgres {
		if v, ok := t.heap.Get(rowidKey(rowid)); ok {
			if ver := v.(*version); ver.dead {
				// The tombstone was allocated by deleteLocked in this same
				// (uncommitted, unpublished) transaction, but a fresh live
				// version keeps the no-in-place-mutation invariant anyway.
				live := &version{rowid: rowid, row: ver.row}
				t.heap.Set(rowidKey(rowid), live)
				for _, ix := range t.indexes {
					ix.tree.Set(entryKey(encodeKey(ver.row, ix.cols), rowid), live)
				}
				t.dead--
				return
			}
		}
	}
	ver := &version{rowid: rowid, row: row}
	t.heap.Set(rowidKey(rowid), ver)
	for _, ix := range t.indexes {
		ix.tree.Set(entryKey(encodeKey(row, ix.cols), rowid), ver)
	}
}

// uninsertLocked reverses insertLocked for transaction rollback. It removes
// the version physically under either personality: a rolled-back insert was
// never visible.
func (t *table) uninsertLocked(rowid int64) {
	v, ok := t.heap.Get(rowidKey(rowid))
	if !ok {
		return
	}
	ver := v.(*version)
	t.heap.Delete(rowidKey(rowid))
	for _, ix := range t.indexes {
		ix.tree.Delete(entryKey(encodeKey(ver.row, ix.cols), rowid))
	}
}

// chargeDead pays the device cost of the dead row versions a scan visited.
func (t *table) chargeDead(n int) {
	if n > 0 && t.dev != nil {
		t.dev.VisitDeadTuples(n)
	}
}

// lookup returns the live rows whose indexed columns equal vals.
func (v tview) lookup(ix *index, vals []Value) []Row {
	var out []Row
	deadVisited := 0
	colKey := encodeValuesKey(vals)
	v.trees[ix.pos].AscendPrefix(colKey, func(_ []byte, val any) bool {
		ver := val.(*version)
		if ver.dead {
			deadVisited++
		} else {
			out = append(out, ver.row)
		}
		return true
	})
	v.t.chargeDead(deadVisited)
	return out
}

// lookupIDs is lookup but returns rowids alongside rows.
func (v tview) lookupIDs(ix *index, vals []Value) ([]int64, []Row) {
	var ids []int64
	var rows []Row
	deadVisited := 0
	colKey := encodeValuesKey(vals)
	v.trees[ix.pos].AscendPrefix(colKey, func(_ []byte, val any) bool {
		ver := val.(*version)
		if ver.dead {
			deadVisited++
		} else {
			ids = append(ids, ver.rowid)
			rows = append(rows, ver.row)
		}
		return true
	})
	v.t.chargeDead(deadVisited)
	return ids, rows
}

// scanPrefix walks live rows whose index key starts with the encoded prefix
// values, in index order, until fn returns false.
func (v tview) scanPrefix(ix *index, prefix []Value, fn func(rowid int64, row Row) bool) {
	walk := func(_ []byte, val any) bool {
		ver := val.(*version)
		if ver.dead {
			return true
		}
		return fn(ver.rowid, ver.row)
	}
	if len(prefix) == 0 {
		v.trees[ix.pos].Ascend(walk)
		return
	}
	v.trees[ix.pos].AscendPrefix(encodeValuesKey(prefix), walk)
}

// scanStringPrefix walks live rows of a single-string-column index whose
// column value begins with the given string prefix. This is the access path
// for wildcard queries like "lfn-1*": the pattern's literal prefix bounds the
// scan.
func (v tview) scanStringPrefix(ix *index, prefix string, fn func(rowid int64, row Row) bool) {
	walk := func(_ []byte, val any) bool {
		ver := val.(*version)
		if ver.dead {
			return true
		}
		return fn(ver.rowid, ver.row)
	}
	if prefix == "" {
		v.trees[ix.pos].Ascend(walk)
		return
	}
	// Encode the prefix as a string key but strip the terminator so the
	// range covers all strings extending it.
	enc := appendKey(nil, String(prefix))
	enc = enc[:len(enc)-2]
	v.trees[ix.pos].AscendRange(enc, btree.PrefixEnd(enc), walk)
}

// scanStringAfter walks live rows of a single-string-column index whose
// column value is strictly greater than after, in index order. It is the
// pagination primitive for streaming enumerations (full soft state updates);
// a snapshot-pinned cursor pages with it without ever blocking writers.
func (v tview) scanStringAfter(ix *index, after string, fn func(rowid int64, row Row) bool) {
	walk := func(_ []byte, val any) bool {
		ver := val.(*version)
		if ver.dead {
			return true
		}
		return fn(ver.rowid, ver.row)
	}
	if after == "" {
		v.trees[ix.pos].Ascend(walk)
		return
	}
	// Keys for the exact value `after` share the prefix enc(after); the
	// first key beyond them is PrefixEnd of that encoding. The string
	// encoding is prefix-free, so every strictly greater value sorts at or
	// beyond that point.
	enc := appendKey(nil, String(after))
	v.trees[ix.pos].AscendRange(btree.PrefixEnd(enc), nil, walk)
}

// liveCount returns the number of live rows in the view.
func (v tview) liveCount() int64 {
	return int64(v.heap.Len()) - v.dead
}

// vacuumLocked physically removes dead versions, returning how many were
// reclaimed. Only meaningful under the postgres personality. Published
// snapshot versions are unaffected: their cloned trees keep the tombstones
// they froze.
func (t *table) vacuumLocked() int64 {
	if t.dead == 0 {
		return 0
	}
	var deadVers []*version
	t.heap.Ascend(func(_ []byte, v any) bool {
		if ver := v.(*version); ver.dead {
			deadVers = append(deadVers, ver)
		}
		return true
	})
	for _, ver := range deadVers {
		t.heap.Delete(rowidKey(ver.rowid))
		for _, ix := range t.indexes {
			ix.tree.Delete(entryKey(encodeKey(ver.row, ix.cols), ver.rowid))
		}
	}
	t.dead -= int64(len(deadVers))
	return int64(len(deadVers))
}

// liveCountLocked returns the number of live rows.
func (t *table) liveCountLocked() int64 {
	return int64(t.heap.Len()) - t.dead
}
