package rdb

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/glob"
	"repro/internal/storage"
	"repro/internal/wire"
)

// RLI table names. t_lfn is shared by name with the LRC schema but lives in
// a separate engine (one database per server, as in the paper's deployment).
const (
	tRLILFN = "t_lfn"
	tLRC    = "t_lrc"
	tRLIMap = "t_map"
)

// RLI t_map columns: lfn_id, lrc_id, updatetime.
const (
	colRMapLFN  = 0
	colRMapLRC  = 1
	colRMapTime = 2
)

// rliTables is the declared set of the soft-state ingest writes.
var rliTables = []string{tRLILFN, tLRC, tRLIMap}

func rliSchemas() []storage.Schema {
	return []storage.Schema{
		nameTableSchema(tRLILFN),
		nameTableSchema(tLRC),
		{
			Name: tRLIMap,
			Columns: []storage.Column{
				{Name: "lfn_id", Kind: storage.KindInt},
				{Name: "lrc_id", Kind: storage.KindInt},
				{Name: "updatetime", Kind: storage.KindTime},
			},
			Indexes: []storage.IndexSpec{
				{Name: "by_pair", Columns: []string{"lfn_id", "lrc_id"}, Unique: true},
				{Name: "by_lfn", Columns: []string{"lfn_id"}},
				{Name: "by_lrc", Columns: []string{"lrc_id"}},
				{Name: "by_time", Columns: []string{"updatetime"}},
			},
		},
	}
}

// RLIDB is the database behind an RLI that receives full or incremental
// (uncompressed) soft state updates: associations from logical names to the
// LRCs that hold mappings for them, stamped with the update time examined by
// the expire thread.
type RLIDB struct {
	eng *storage.Engine

	nextLFN atomic.Int64
	nextLRC atomic.Int64
}

// NewRLIDB creates the RLI tables on the engine and returns the handle.
func NewRLIDB(eng *storage.Engine) (*RLIDB, error) {
	for _, s := range rliSchemas() {
		if err := eng.CreateTable(s); err != nil {
			return nil, err
		}
	}
	return &RLIDB{eng: eng}, nil
}

// OpenRLIDB attaches to an engine whose RLI tables already exist,
// recovering the id counters.
func OpenRLIDB(eng *storage.Engine) (*RLIDB, error) {
	db := &RLIDB{eng: eng}
	err := eng.SnapshotView(func(r *storage.Reader) error {
		for _, rec := range []struct {
			table string
			ctr   *atomic.Int64
		}{{tRLILFN, &db.nextLFN}, {tLRC, &db.nextLRC}} {
			maxID := int64(0)
			if err := r.ScanPrefix(rec.table, "by_id", nil, func(_ int64, row storage.Row) bool {
				maxID = row[0].Int
				return true
			}); err != nil {
				return err
			}
			rec.ctr.Store(maxID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Engine exposes the backing engine.
func (db *RLIDB) Engine() *storage.Engine { return db.eng }

func (db *RLIDB) getOrCreate(tx *storage.Tx, table string, ctr *atomic.Int64, name string) (int64, error) {
	rows, err := tx.Lookup(table, "by_name", storage.String(name))
	if err != nil {
		return 0, err
	}
	if len(rows) > 0 {
		return rows[0][colNameID].Int, nil
	}
	id := ctr.Add(1)
	if _, err := tx.Insert(table, storage.Row{storage.Int64(id), storage.String(name), storage.Int64(0)}); err != nil {
		return 0, err
	}
	return id, nil
}

// UpsertNames records that the given LRC holds mappings for the listed
// logical names as of now: new {LFN, LRC} associations are inserted and
// existing ones have their updatetime refreshed. This is the ingest path of
// both full updates (batch by batch) and the added-half of incremental
// updates.
func (db *RLIDB) UpsertNames(lrcURL string, names []string, now time.Time) error {
	if lrcURL == "" {
		return fmt.Errorf("%w: empty LRC url", ErrInvalid)
	}
	return db.eng.Update(context.Background(), rliTables, func(tx *storage.Tx) error {
		lrcID, err := db.getOrCreate(tx, tLRC, &db.nextLRC, lrcURL)
		if err != nil {
			return err
		}
		for _, name := range names {
			if name == "" {
				continue
			}
			lfnID, err := db.getOrCreate(tx, tRLILFN, &db.nextLFN, name)
			if err != nil {
				return err
			}
			rowids, _, err := tx.LookupIDs(tRLIMap, "by_pair", storage.Int64(lfnID), storage.Int64(lrcID))
			if err != nil {
				return err
			}
			// Refresh = delete + reinsert with the new timestamp (an SQL
			// UPDATE of updatetime).
			for _, rowid := range rowids {
				if _, err := tx.Delete(tRLIMap, rowid); err != nil {
					return err
				}
			}
			row := storage.Row{storage.Int64(lfnID), storage.Int64(lrcID), storage.Timestamp(now)}
			if _, err := tx.Insert(tRLIMap, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// RemoveNames drops the {LFN, LRC} associations for the listed names — the
// removed-half of incremental updates.
func (db *RLIDB) RemoveNames(lrcURL string, names []string) error {
	return db.eng.Update(context.Background(), rliTables, func(tx *storage.Tx) error {
		lrcRows, err := tx.Lookup(tLRC, "by_name", storage.String(lrcURL))
		if err != nil {
			return err
		}
		if len(lrcRows) == 0 {
			return nil // nothing registered from this LRC
		}
		lrcID := lrcRows[0][colNameID].Int
		for _, name := range names {
			lfnRows, err := tx.Lookup(tRLILFN, "by_name", storage.String(name))
			if err != nil {
				return err
			}
			if len(lfnRows) == 0 {
				continue
			}
			lfnID := lfnRows[0][colNameID].Int
			rowids, _, err := tx.LookupIDs(tRLIMap, "by_pair", storage.Int64(lfnID), storage.Int64(lrcID))
			if err != nil {
				return err
			}
			for _, rowid := range rowids {
				if _, err := tx.Delete(tRLIMap, rowid); err != nil {
					return err
				}
			}
			if err := db.cleanupLFN(tx, lfnID); err != nil {
				return err
			}
		}
		return nil
	})
}

// cleanupLFN removes an RLI t_lfn row once no associations reference it.
func (db *RLIDB) cleanupLFN(tx *storage.Tx, lfnID int64) error {
	remaining := false
	if err := tx.ScanPrefix(tRLIMap, "by_lfn", []storage.Value{storage.Int64(lfnID)}, func(int64, storage.Row) bool {
		remaining = true
		return false
	}); err != nil {
		return err
	}
	if remaining {
		return nil
	}
	rowids, _, err := tx.LookupIDs(tRLILFN, "by_id", storage.Int64(lfnID))
	if err != nil {
		return err
	}
	for _, rowid := range rowids {
		if _, err := tx.Delete(tRLILFN, rowid); err != nil {
			return err
		}
	}
	return nil
}

// QueryLRCs returns the LRC urls believed to hold mappings for the logical
// name. Soft state means the answer may be stale — the client recovers by
// querying the LRCs (paper §3.2).
func (db *RLIDB) QueryLRCs(logical string) ([]string, error) {
	var out []string
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		rows, err := r.Lookup(tRLILFN, "by_name", storage.String(logical))
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("%w: logical name %q", ErrNotFound, logical)
		}
		lfnID := rows[0][colNameID].Int
		maps, err := r.Lookup(tRLIMap, "by_lfn", storage.Int64(lfnID))
		if err != nil {
			return err
		}
		for _, m := range maps {
			lrcs, err := r.Lookup(tLRC, "by_id", m[colRMapLRC])
			if err != nil {
				return err
			}
			if len(lrcs) > 0 {
				out = append(out, lrcs[0][colNameName].Str)
			}
		}
		return nil
	})
	return out, err
}

// WildcardQuery returns (logical name, LRC url) pairs for logical names
// matching the wildcard pattern. This is the RLI capability that Bloom
// filter compression gives up (paper §5.4: wildcard searches "are not
// possible when using Bloom filter compression").
func (db *RLIDB) WildcardQuery(pattern string) ([]wire.Mapping, error) {
	prefix, _ := glob.LiteralPrefix(pattern)
	var out []wire.Mapping
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		var scanErr error
		if err := r.ScanStringPrefix(tRLILFN, "by_name", prefix, func(_ int64, row storage.Row) bool {
			name := row[colNameName].Str
			if !glob.Match(pattern, name) {
				return true
			}
			maps, err := r.Lookup(tRLIMap, "by_lfn", row[colNameID])
			if err != nil {
				scanErr = err
				return false
			}
			for _, m := range maps {
				lrcs, err := r.Lookup(tLRC, "by_id", m[colRMapLRC])
				if err != nil {
					scanErr = err
					return false
				}
				if len(lrcs) > 0 {
					out = append(out, wire.Mapping{Logical: name, Target: lrcs[0][colNameName].Str})
				}
			}
			return true
		}); err != nil {
			return err
		}
		return scanErr
	})
	return out, err
}

// ExpireBefore drops every association whose updatetime is older than the
// cutoff — the expire thread's work ("discarding entries older than the
// allowed timeout interval"). It returns the number of associations
// dropped.
func (db *RLIDB) ExpireBefore(cutoff time.Time) (int, error) {
	type victim struct {
		rowid int64
		lfnID int64
	}
	var victims []victim
	err := db.eng.Update(context.Background(), []string{tRLILFN, tRLIMap}, func(tx *storage.Tx) error {
		if err := tx.ScanPrefix(tRLIMap, "by_time", nil, func(rowid int64, row storage.Row) bool {
			if !row[colRMapTime].Time.Before(cutoff) {
				return false // time-ordered index: nothing older remains
			}
			victims = append(victims, victim{rowid: rowid, lfnID: row[colRMapLFN].Int})
			return true
		}); err != nil {
			return err
		}
		for _, v := range victims {
			if _, err := tx.Delete(tRLIMap, v.rowid); err != nil {
				return err
			}
		}
		for _, v := range victims {
			if err := db.cleanupLFN(tx, v.lfnID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(victims), nil
}

// NamesForLRC returns every logical name associated with the given LRC, in
// lexical order — the enumeration hierarchical RLIs use to forward their
// aggregated state upward.
func (db *RLIDB) NamesForLRC(lrcURL string) ([]string, error) {
	var out []string
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		lrcRows, err := r.Lookup(tLRC, "by_name", storage.String(lrcURL))
		if err != nil {
			return err
		}
		if len(lrcRows) == 0 {
			return nil
		}
		lrcID := lrcRows[0][colNameID].Int
		var scanErr error
		if err := r.ScanPrefix(tRLIMap, "by_lrc", []storage.Value{storage.Int64(lrcID)}, func(_ int64, row storage.Row) bool {
			lfns, err := r.Lookup(tRLILFN, "by_id", row[colRMapLFN])
			if err != nil {
				scanErr = err
				return false
			}
			if len(lfns) > 0 {
				out = append(out, lfns[0][colNameName].Str)
			}
			return true
		}); err != nil {
			return err
		}
		return scanErr
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// LRCs returns the LRC urls that have sent updates to this RLI.
func (db *RLIDB) LRCs() ([]string, error) {
	var out []string
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		return r.ScanStringPrefix(tLRC, "by_name", "", func(_ int64, row storage.Row) bool {
			out = append(out, row[colNameName].Str)
			return true
		})
	})
	return out, err
}

// Counts reports index occupancy: distinct logical names, LRCs, and
// associations.
func (db *RLIDB) Counts() (logicals, lrcs, associations int64, err error) {
	err = db.eng.SnapshotView(func(r *storage.Reader) error {
		if logicals, err = r.Count(tRLILFN); err != nil {
			return err
		}
		if lrcs, err = r.Count(tLRC); err != nil {
			return err
		}
		associations, err = r.Count(tRLIMap)
		return err
	})
	return logicals, lrcs, associations, err
}
