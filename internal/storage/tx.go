package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrTxDone is returned when using a finished transaction.
var ErrTxDone = errors.New("storage: transaction already finished")

type txOpKind uint8

const (
	txInsert txOpKind = iota
	txDelete
)

type txOp struct {
	kind  txOpKind
	table *table
	rowid int64
	row   Row // the inserted row, or the deleted row's prior image
}

// framePool recycles WAL frame encode buffers across commits. The frame is
// fully consumed before Commit returns — commitAppend writes it to the file
// synchronously and only the length is needed afterwards for the device
// charge — so the buffer can be recycled immediately.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// Tx is a write transaction. It holds the shared global latch plus write
// latches on the tables declared at Begin until Commit or Rollback;
// mutations are applied eagerly (reads within the transaction see them) and
// logged for rollback. Commit publishes a new immutable version of every
// touched table before releasing the latches, so a Snapshot taken after
// Commit returns always observes the transaction.
type Tx struct {
	e       *Engine
	tables  map[string]*table // declared (write-latched) tables by name
	latched []*table
	ops     []txOp
	done    bool
	update  bool // owned by an Update batch, which commits it
}

// errUpdateOwnsTx is returned when an Update closure tries to finish the
// transaction it was handed: the batch commits it once, for every closure.
var errUpdateOwnsTx = errors.New("storage: Update commits its transaction; closures must not Commit or Rollback")

func (tx *Tx) table(name string) (*table, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, ok := tx.tables[name]
	if !ok {
		// Holding the shared global latch makes reading the table map safe:
		// it only changes under the exclusive global latch.
		if _, exists := tx.e.tables[name]; exists {
			return nil, fmt.Errorf("%w: %s", ErrTableNotDeclared, name)
		}
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

func (tx *Tx) index(name, indexName string) (*table, *index, error) {
	t, err := tx.table(name)
	if err != nil {
		return nil, nil, err
	}
	ix, ok := t.byName[indexName]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, name, indexName)
	}
	return t, ix, nil
}

// release drops the table latches and the shared global latch.
func (tx *Tx) release() {
	unlockTables(tx.latched)
	tx.e.global.RUnlock()
}

// Insert adds a row, returning its rowid.
func (tx *Tx) Insert(tableName string, row Row) (int64, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return 0, err
	}
	rowid, err := t.insertLocked(row, 0, tx.e.opts.Personality)
	if err != nil {
		return 0, err
	}
	tx.ops = append(tx.ops, txOp{kind: txInsert, table: t, rowid: rowid, row: row.Clone()})
	return rowid, nil
}

// Delete removes the row with the given rowid; it reports whether a live row
// was removed.
func (tx *Tx) Delete(tableName string, rowid int64) (bool, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return false, err
	}
	row, ok := t.deleteLocked(rowid, tx.e.opts.Personality)
	if !ok {
		return false, nil
	}
	tx.ops = append(tx.ops, txOp{kind: txDelete, table: t, rowid: rowid, row: row})
	return true, nil
}

// Lookup returns live rows whose indexed columns equal vals.
func (tx *Tx) Lookup(tableName, indexName string, vals ...Value) ([]Row, error) {
	t, ix, err := tx.index(tableName, indexName)
	if err != nil {
		return nil, err
	}
	return t.mutView().lookup(ix, vals), nil
}

// LookupIDs returns live rowids and rows whose indexed columns equal vals.
func (tx *Tx) LookupIDs(tableName, indexName string, vals ...Value) ([]int64, []Row, error) {
	t, ix, err := tx.index(tableName, indexName)
	if err != nil {
		return nil, nil, err
	}
	ids, rows := t.mutView().lookupIDs(ix, vals)
	return ids, rows, nil
}

// ScanPrefix iterates live rows whose index key begins with the given
// values.
func (tx *Tx) ScanPrefix(tableName, indexName string, prefix []Value, fn func(rowid int64, row Row) bool) error {
	t, ix, err := tx.index(tableName, indexName)
	if err != nil {
		return err
	}
	t.mutView().scanPrefix(ix, prefix, fn)
	return nil
}

// Commit durably applies the transaction per the engine flush policy and
// releases the latches. The WAL append happens while the table latches are
// still held — that keeps the log's order consistent with the commit order
// on every table (replay correctness) — and so does the version publish, so
// snapshot visibility follows commit order too. The device charges (write
// cost and, under FlushOnCommit, the group-commit sync wait) are paid after
// release, so they serialize on the device queue rather than on the tables.
func (tx *Tx) Commit() error {
	return tx.CommitCtx(context.Background())
}

// CommitCtx is Commit with a bounded durability wait: a committer whose
// context expires while waiting on its group-commit leader's sync gets
// ctx.Err() back instead of blocking — never a false success, because its
// durability was not confirmed. The mutation itself is already logged and
// applied (it rides the leader's sync like any batch member); only the
// confirmation is abandoned.
func (tx *Tx) CommitCtx(ctx context.Context) error {
	if tx.update {
		return errUpdateOwnsTx
	}
	n, g, lead, err := tx.commit()
	if err != nil {
		return err
	}
	tx.e.opts.Device.Write(n)
	if g == nil {
		return nil
	}
	if lead {
		tx.e.wal.lead()
	}
	return g.wait(ctx)
}

// commit logs, publishes and releases the transaction. It returns the
// frame's size, for the caller to charge as a device write once it no
// longer blocks anyone, and under FlushOnCommit the group-commit batch the
// frame joined; when lead is true the caller must run that batch's sync
// (wal.lead) before anyone can wait on it.
func (tx *Tx) commit() (n int, g *groupSync, lead bool, err error) {
	if tx.done {
		return 0, nil, false, ErrTxDone
	}
	tx.done = true
	if len(tx.ops) == 0 {
		tx.release()
		return 0, nil, false, nil
	}
	bp := framePool.Get().(*[]byte)
	frame := (*bp)[:0]
	for _, op := range tx.ops {
		switch op.kind {
		case txInsert:
			frame = appendWALRecord(frame, walRecord{kind: recInsert, tableID: op.table.id, rowid: op.rowid, row: op.row})
		case txDelete:
			frame = appendWALRecord(frame, walRecord{kind: recDelete, tableID: op.table.id, rowid: op.rowid})
		}
	}
	frame = appendWALRecord(frame, walRecord{kind: recCommit})
	n = len(frame)
	g, lead, err = tx.e.wal.commitAppend(frame, tx.e.flushOnCommit.Load())
	*bp = frame
	framePool.Put(bp)
	// Publish a new immutable version of every touched table while the write
	// latches are still held: per-table publish order matches commit order,
	// and live state never diverges from the published state — even when the
	// WAL append failed, the in-memory mutation is already applied.
	updates := make(map[string]tview, len(tx.tables))
	for _, op := range tx.ops {
		name := op.table.schema.Name
		if _, done := updates[name]; !done {
			updates[name] = op.table.cloneView()
		}
	}
	tx.e.publish(updates)
	tx.release()
	if err != nil {
		return 0, nil, false, fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return n, g, lead, nil
}

// Rollback undoes the transaction and releases the latches. Nothing is
// published: the reversed mutations were never visible outside the
// transaction.
func (tx *Tx) Rollback() error {
	if tx.update {
		return errUpdateOwnsTx
	}
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer tx.release()
	tx.rollbackTo(0)
	return nil
}

// rollbackTo undoes the mutations logged after the first mark ops, newest
// first, and forgets them: the savepoint rollback of one Update closure.
func (tx *Tx) rollbackTo(mark int) {
	for i := len(tx.ops) - 1; i >= mark; i-- {
		op := tx.ops[i]
		switch op.kind {
		case txInsert:
			op.table.uninsertLocked(op.rowid)
		case txDelete:
			op.table.undeleteLocked(op.rowid, op.row, tx.e.opts.Personality)
		}
	}
	tx.ops = tx.ops[:mark]
}

// Reader is the read-only accessor passed to Engine.SnapshotView and
// embedded in Snap: every table of one frozen published version, read
// without any latch.
type Reader struct {
	views map[string]tview
}

func (r *Reader) view(name string) (tview, error) {
	v, ok := r.views[name]
	if !ok {
		return tview{}, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return v, nil
}

func (r *Reader) index(name, indexName string) (tview, *index, error) {
	v, err := r.view(name)
	if err != nil {
		return tview{}, nil, err
	}
	ix, ok := v.t.byName[indexName]
	if !ok {
		return tview{}, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, name, indexName)
	}
	return v, ix, nil
}

// Lookup returns live rows whose indexed columns equal vals. Rows are cloned
// only on demand by callers; the slice contents must not be mutated.
func (r *Reader) Lookup(tableName, indexName string, vals ...Value) ([]Row, error) {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return nil, err
	}
	return v.lookup(ix, vals), nil
}

// LookupIDs returns live rowids and rows whose indexed columns equal vals.
func (r *Reader) LookupIDs(tableName, indexName string, vals ...Value) ([]int64, []Row, error) {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return nil, nil, err
	}
	ids, rows := v.lookupIDs(ix, vals)
	return ids, rows, nil
}

// ScanPrefix iterates live rows whose index key begins with the given values.
func (r *Reader) ScanPrefix(tableName, indexName string, prefix []Value, fn func(rowid int64, row Row) bool) error {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return err
	}
	v.scanPrefix(ix, prefix, fn)
	return nil
}

// ScanStringPrefix iterates live rows of a string-keyed index whose first
// column starts with prefix — the access path for wildcard queries.
func (r *Reader) ScanStringPrefix(tableName, indexName, prefix string, fn func(rowid int64, row Row) bool) error {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return err
	}
	v.scanStringPrefix(ix, prefix, fn)
	return nil
}

// ScanStringAfter iterates live rows of a string-keyed index whose first
// column is strictly greater than after, in lexical order.
func (r *Reader) ScanStringAfter(tableName, indexName, after string, fn func(rowid int64, row Row) bool) error {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return err
	}
	v.scanStringAfter(ix, after, fn)
	return nil
}

// Count returns the number of live rows in the table.
func (r *Reader) Count(tableName string) (int64, error) {
	v, err := r.view(tableName)
	if err != nil {
		return 0, err
	}
	return v.liveCount(), nil
}
