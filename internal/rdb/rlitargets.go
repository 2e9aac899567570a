package rdb

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/wire"
)

// AddRLITarget records that this LRC updates the given RLI, with the update
// flavour and optional namespace-partition patterns (t_rli plus one
// t_rlipartition row per pattern).
func (db *LRCDB) AddRLITarget(t wire.RLITarget) error {
	if t.URL == "" {
		return fmt.Errorf("%w: empty RLI url", ErrInvalid)
	}
	return db.eng.Update(context.Background(), []string{tRLI, tRLIPartition}, func(tx *storage.Tx) error {
		if rows, err := tx.Lookup(tRLI, "by_name", storage.String(t.URL)); err != nil {
			return err
		} else if len(rows) > 0 {
			return fmt.Errorf("%w: RLI %q", ErrExists, t.URL)
		}
		id := db.nextRLI.Add(1)
		flags := int64(0)
		if t.Bloom {
			flags |= rliFlagBloom
		}
		if _, err := tx.Insert(tRLI, storage.Row{storage.Int64(id), storage.Int64(flags), storage.String(t.URL)}); err != nil {
			return err
		}
		for _, p := range t.Patterns {
			if p == "" {
				return fmt.Errorf("%w: empty partition pattern", ErrInvalid)
			}
			if _, err := tx.Insert(tRLIPartition, storage.Row{storage.Int64(id), storage.String(p)}); err != nil {
				return err
			}
		}
		return nil
	})
}

// RemoveRLITarget stops updating the given RLI and drops its partition
// patterns.
func (db *LRCDB) RemoveRLITarget(url string) error {
	return db.eng.Update(context.Background(), []string{tRLI, tRLIPartition}, func(tx *storage.Tx) error {
		rowids, rows, err := tx.LookupIDs(tRLI, "by_name", storage.String(url))
		if err != nil {
			return err
		}
		if len(rowids) == 0 {
			return fmt.Errorf("%w: RLI %q", ErrNotFound, url)
		}
		id := rows[0][colRLIID].Int
		if _, err := tx.Delete(tRLI, rowids[0]); err != nil {
			return err
		}
		var parts []int64
		if err := tx.ScanPrefix(tRLIPartition, "by_rli", []storage.Value{storage.Int64(id)}, func(rowid int64, _ storage.Row) bool {
			parts = append(parts, rowid)
			return true
		}); err != nil {
			return err
		}
		for _, rowid := range parts {
			if _, err := tx.Delete(tRLIPartition, rowid); err != nil {
				return err
			}
		}
		return nil
	})
}

// ListRLITargets returns the RLIs this LRC updates.
func (db *LRCDB) ListRLITargets() ([]wire.RLITarget, error) {
	var out []wire.RLITarget
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		var scanErr error
		if err := r.ScanStringPrefix(tRLI, "by_name", "", func(_ int64, row storage.Row) bool {
			t := wire.RLITarget{
				URL:   row[colRLIName].Str,
				Bloom: row[colRLIFlags].Int&rliFlagBloom != 0,
			}
			scanErr = r.ScanPrefix(tRLIPartition, "by_rli", []storage.Value{row[colRLIID]}, func(_ int64, prow storage.Row) bool {
				t.Patterns = append(t.Patterns, prow[colPartPattern].Str)
				return true
			})
			out = append(out, t)
			return scanErr == nil
		}); err != nil {
			return err
		}
		return scanErr
	})
	return out, err
}
