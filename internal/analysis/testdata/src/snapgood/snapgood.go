// Package snapgood exercises the snapshot read path latchcheck must leave
// alone: Engine.Snapshot()/SnapshotView readers are latch-free and see
// every table, so dynamic table names, escaping snapshot handles, and
// helpers that receive the reader are all fine — there is no declared set
// to prove. None of these may produce a diagnostic.
package snapgood

import (
	"context"

	"fix/latchdb"
)

const tLFN = "t_lfn"

// Dynamic table names through a pinned snapshot: exempt.
func dynamicNames(e *latchdb.Engine, tables []string) error {
	snap, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	for _, t := range tables {
		if _, err := snap.Count(t); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotView callback with a runtime-chosen table name: exempt.
func viewDynamic(e *latchdb.Engine, table string) error {
	return e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Lookup(table, "primary", 1)
		return err
	})
}

// The snapshot handle escaping into a struct and helpers: exempt — there
// is no declared-set invariant a snapshot can violate.
type cursor struct {
	snap *latchdb.Snap
}

func openCursor(e *latchdb.Engine) (*cursor, error) {
	snap, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return &cursor{snap: snap}, nil
}

func (c *cursor) count() (int, error) { return c.snap.Count(tLFN) }

func (c *cursor) close() { c.snap.Close() }

// A snapshot reader passed through a helper chain: exempt.
func viaHelper(e *latchdb.Engine) error {
	return e.SnapshotView(func(r *latchdb.Reader) error {
		return countAll(r, []string{tLFN, "t_" + tLFN})
	})
}

func countAll(r *latchdb.Reader, tables []string) error {
	for _, t := range tables {
		if _, err := r.Count(t); err != nil {
			return err
		}
	}
	return nil
}

// A latched write and a latch-free read side by side: the Update closure
// is still proven (and clean), the snapshot beside it is ignored.
func mixedClean(ctx context.Context, e *latchdb.Engine) error {
	if err := e.Update(ctx, []string{tLFN}, func(tx *latchdb.Tx) error {
		_, err := tx.Insert(tLFN, nil)
		return err
	}); err != nil {
		return err
	}
	return e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Count("picked_at_runtime")
		return err
	})
}

// Snapshots before Begin and after the transaction's last Commit, beside a
// deferred Rollback: the transaction holds no latches at either.
func snapshotsAroundTx(e *latchdb.Engine) error {
	before, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer before.Close()
	tx, err := e.Begin(tLFN)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tLFN, nil); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Count(tLFN)
		return err
	})
}

// A snapshot pinned before Update, read inside the closure: pinning took
// no latch, so reading it under the batch's latches is fine.
func pinnedBeforeUpdate(ctx context.Context, e *latchdb.Engine) error {
	snap, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	return e.Update(ctx, []string{tLFN}, func(tx *latchdb.Tx) error {
		n, err := snap.Count(tLFN)
		if err != nil || n > 0 {
			return err
		}
		_, err = tx.Insert(tLFN, nil)
		return err
	})
}

// A snapshot in a goroutine spawned from a closure runs apart from the
// latch holder.
func snapshotInSpawned(ctx context.Context, e *latchdb.Engine, done chan<- error) error {
	return e.Update(ctx, []string{tLFN}, func(tx *latchdb.Tx) error {
		go func() {
			done <- e.SnapshotView(func(r *latchdb.Reader) error { return nil })
		}()
		_, err := tx.Insert(tLFN, nil)
		return err
	})
}
