// Package snapbad proves the snapshot exemption does not blunt the
// checker: snapshot reads sit right next to Begin/Update violations,
// and latchcheck must still report every latched-path violation while
// staying silent about the snapshots taken outside them. A snapshot taken
// while the same goroutine holds a transaction's latches is reported: the
// first snapshot after a write latches the tables written since to publish.
package snapbad

import (
	"context"

	"fix/latchdb"
)

const (
	tLFN = "t_lfn"
	tPFN = "t_pfn"
)

// A clean snapshot read followed by a Begin-declared transaction touching
// a table outside its declared set: only the latter is reported.
func snapshotThenUndeclaredWrite(e *latchdb.Engine) error {
	if err := e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Count(tPFN)
		return err
	}); err != nil {
		return err
	}
	tx, err := e.Begin(tLFN)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tPFN, nil); err != nil { // want "undeclared table"
		return err
	}
	return tx.Commit()
}

// A pinned snapshot with dynamic names (fine) beside an Update closure that
// writes outside its declared set (reported).
func snapshotBesideBadUpdate(ctx context.Context, e *latchdb.Engine, table string) error {
	snap, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	if _, err := snap.Count(table); err != nil {
		return err
	}
	return e.Update(ctx, []string{tLFN}, func(tx *latchdb.Tx) error {
		_, err := tx.Insert(tPFN, nil) // want "undeclared table"
		return err
	})
}

// A snapshot inside an Update closure waits on the latches the batch holds.
func snapshotInUpdate(ctx context.Context, e *latchdb.Engine) error {
	return e.Update(ctx, []string{tLFN}, func(tx *latchdb.Tx) error {
		if _, err := tx.Insert(tLFN, nil); err != nil {
			return err
		}
		snap, err := e.Snapshot() // want "Snapshot called while the Update closure"
		if err != nil {
			return err
		}
		defer snap.Close()
		_, err = snap.Count(tPFN)
		return err
	})
}

// A SnapshotView between Begin and Commit; the deferred Rollback does not
// end the span.
func snapshotViewInTx(e *latchdb.Engine) error {
	tx, err := e.Begin(tLFN)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tLFN, nil); err != nil {
		return err
	}
	if err := e.SnapshotView(func(r *latchdb.Reader) error { // want "SnapshotView called while the transaction from Begin"
		_, err := r.Count(tPFN)
		return err
	}); err != nil {
		return err
	}
	return tx.Commit()
}

// An early Rollback on an error path does not end the span either: the
// transaction is held until its last Commit or Rollback.
func snapshotAfterEarlyRollback(e *latchdb.Engine) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	if _, err := tx.Insert(tLFN, nil); err != nil {
		tx.Rollback()
		return err
	}
	if _, err := countPFN(e); err != nil { // want "countPFN takes an engine snapshot, called while the transaction from Begin"
		return err
	}
	return tx.Commit()
}

// A helper two calls away takes the snapshot, from an UpdateEach closure.
func snapshotViaHelpers(ctx context.Context, e *latchdb.Engine) []error {
	return e.UpdateEach(ctx, []string{tLFN}, 2, func(tx *latchdb.Tx, i int) error {
		if _, err := tx.Insert(tLFN, nil); err != nil {
			return err
		}
		_, err := audit(e) // want "audit takes an engine snapshot, called while the UpdateEach closure"
		return err
	})
}

func audit(e *latchdb.Engine) (int, error) { return countPFN(e) }

func countPFN(e *latchdb.Engine) (int, error) {
	snap, err := e.Snapshot()
	if err != nil {
		return 0, err
	}
	defer snap.Close()
	return snap.Count(tPFN)
}
