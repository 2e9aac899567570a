package rdb

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/glob"
	"repro/internal/storage"
	"repro/internal/wire"
)

// LRC table and column layout (Figure 3, left side).
const (
	tLFN          = "t_lfn"
	tPFN          = "t_pfn"
	tMap          = "t_map"
	tAttribute    = "t_attribute"
	tStrAttr      = "t_str_attr"
	tIntAttr      = "t_int_attr"
	tFltAttr      = "t_flt_attr"
	tDateAttr     = "t_date_attr"
	tRLI          = "t_rli"
	tRLIPartition = "t_rlipartition"
)

// t_lfn / t_pfn columns: id, name, ref.
const (
	colNameID   = 0
	colNameName = 1
	colNameRef  = 2
)

// t_map columns: lfn_id, pfn_id.
const (
	colMapLFN = 0
	colMapPFN = 1
)

// t_attribute columns: id, name, objtype, type.
const (
	colAttrID      = 0
	colAttrName    = 1
	colAttrObjType = 2
	colAttrValType = 3
)

// typed attribute value tables: obj_id, attr_id, value.
const (
	colValObj   = 0
	colValAttr  = 1
	colValValue = 2
)

// t_rli columns: id, flags, name. Flag bit 0 selects Bloom updates.
const (
	colRLIID    = 0
	colRLIFlags = 1
	colRLIName  = 2

	rliFlagBloom = 1
)

// t_rlipartition columns: rli_id, pattern.
const (
	colPartRLI     = 0
	colPartPattern = 1
)

// attrValueTables lists the typed attribute value tables.
var attrValueTables = []string{tStrAttr, tIntAttr, tFltAttr, tDateAttr}

func nameTableSchema(name string) storage.Schema {
	return storage.Schema{
		Name: name,
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "name", Kind: storage.KindString},
			{Name: "ref", Kind: storage.KindInt},
		},
		Indexes: []storage.IndexSpec{
			{Name: "by_id", Columns: []string{"id"}, Unique: true},
			{Name: "by_name", Columns: []string{"name"}, Unique: true},
		},
	}
}

func attrValueSchema(name string, kind storage.Kind) storage.Schema {
	return storage.Schema{
		Name: name,
		Columns: []storage.Column{
			{Name: "obj_id", Kind: storage.KindInt},
			{Name: "attr_id", Kind: storage.KindInt},
			{Name: "value", Kind: kind},
		},
		Indexes: []storage.IndexSpec{
			{Name: "by_obj_attr", Columns: []string{"obj_id", "attr_id"}, Unique: true},
			{Name: "by_attr", Columns: []string{"attr_id"}},
		},
	}
}

// lrcSchemas lists every LRC table.
func lrcSchemas() []storage.Schema {
	return []storage.Schema{
		nameTableSchema(tLFN),
		nameTableSchema(tPFN),
		{
			Name: tMap,
			Columns: []storage.Column{
				{Name: "lfn_id", Kind: storage.KindInt},
				{Name: "pfn_id", Kind: storage.KindInt},
			},
			Indexes: []storage.IndexSpec{
				{Name: "by_pair", Columns: []string{"lfn_id", "pfn_id"}, Unique: true},
				{Name: "by_lfn", Columns: []string{"lfn_id"}},
				{Name: "by_pfn", Columns: []string{"pfn_id"}},
			},
		},
		{
			Name: tAttribute,
			Columns: []storage.Column{
				{Name: "id", Kind: storage.KindInt},
				{Name: "name", Kind: storage.KindString},
				{Name: "objtype", Kind: storage.KindInt},
				{Name: "type", Kind: storage.KindInt},
			},
			Indexes: []storage.IndexSpec{
				{Name: "by_id", Columns: []string{"id"}, Unique: true},
				{Name: "by_name_obj", Columns: []string{"name", "objtype"}, Unique: true},
			},
		},
		attrValueSchema(tStrAttr, storage.KindString),
		attrValueSchema(tIntAttr, storage.KindInt),
		attrValueSchema(tFltAttr, storage.KindFloat),
		attrValueSchema(tDateAttr, storage.KindTime),
		{
			Name: tRLI,
			Columns: []storage.Column{
				{Name: "id", Kind: storage.KindInt},
				{Name: "flags", Kind: storage.KindInt},
				{Name: "name", Kind: storage.KindString},
			},
			Indexes: []storage.IndexSpec{
				{Name: "by_id", Columns: []string{"id"}, Unique: true},
				{Name: "by_name", Columns: []string{"name"}, Unique: true},
			},
		},
		{
			Name: tRLIPartition,
			Columns: []storage.Column{
				{Name: "rli_id", Kind: storage.KindInt},
				{Name: "pattern", Kind: storage.KindString},
			},
			Indexes: []storage.IndexSpec{
				{Name: "by_pair", Columns: []string{"rli_id", "pattern"}, Unique: true},
				{Name: "by_rli", Columns: []string{"rli_id"}},
			},
		},
	}
}

// LRCDB is a Local Replica Catalog database.
type LRCDB struct {
	eng *storage.Engine

	nextLFN  atomic.Int64
	nextPFN  atomic.Int64
	nextAttr atomic.Int64
	nextRLI  atomic.Int64
}

// NewLRCDB creates the LRC tables on the engine (which must be empty of
// them) and returns the catalog handle.
func NewLRCDB(eng *storage.Engine) (*LRCDB, error) {
	for _, s := range lrcSchemas() {
		if err := eng.CreateTable(s); err != nil {
			return nil, err
		}
	}
	return &LRCDB{eng: eng}, nil
}

// OpenLRCDB attaches to an engine whose LRC tables already exist (reopened
// persistent databases), recovering the id counters.
func OpenLRCDB(eng *storage.Engine) (*LRCDB, error) {
	db := &LRCDB{eng: eng}
	err := eng.SnapshotView(func(r *storage.Reader) error {
		for _, rec := range []struct {
			table string
			ctr   *atomic.Int64
		}{{tLFN, &db.nextLFN}, {tPFN, &db.nextPFN}, {tAttribute, &db.nextAttr}, {tRLI, &db.nextRLI}} {
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

// Engine exposes the backing engine (vacuum, stats).
func (db *LRCDB) Engine() *storage.Engine { return db.eng }

// getOrCreateName returns the id of the row in a name table (t_lfn or
// t_pfn), creating it with ref 0 when absent. Runs inside tx.
func (db *LRCDB) getOrCreateName(tx *storage.Tx, table string, ctr *atomic.Int64, name string) (id int64, created bool, err error) {
	rows, err := tx.Lookup(table, "by_name", storage.String(name))
	if err != nil {
		return 0, false, err
	}
	if len(rows) > 0 {
		return rows[0][colNameID].Int, false, nil
	}
	id = ctr.Add(1)
	if _, err := tx.Insert(table, storage.Row{storage.Int64(id), storage.String(name), storage.Int64(0)}); err != nil {
		return 0, false, err
	}
	return id, true, nil
}

// adjustRef updates the ref column of a name-table row by delta, returning
// the new count. The update is a delete+insert pair, which under the
// postgres personality leaves a dead version behind — exactly what an SQL
// UPDATE does there.
func (db *LRCDB) adjustRef(tx *storage.Tx, table string, id, delta int64) (int64, error) {
	rowids, rows, err := tx.LookupIDs(table, "by_id", storage.Int64(id))
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("%w: %s id %d", ErrNotFound, table, id)
	}
	newRef := rows[0][colNameRef].Int + delta
	if _, err := tx.Delete(table, rowids[0]); err != nil {
		return 0, err
	}
	updated := rows[0].Clone()
	updated[colNameRef] = storage.Int64(newRef)
	if _, err := tx.Insert(table, updated); err != nil {
		return 0, err
	}
	return newRef, nil
}

// deleteNameRow removes a name-table row and any attribute values attached
// to the object.
func (db *LRCDB) deleteNameRow(tx *storage.Tx, table string, id int64) error {
	rowids, _, err := tx.LookupIDs(table, "by_id", storage.Int64(id))
	if err != nil {
		return err
	}
	for _, rowid := range rowids {
		if _, err := tx.Delete(table, rowid); err != nil {
			return err
		}
	}
	for _, vt := range attrValueTables {
		var victims []int64
		if err := tx.ScanPrefix(vt, "by_obj_attr", []storage.Value{storage.Int64(id)}, func(rowid int64, _ storage.Row) bool {
			victims = append(victims, rowid)
			return true
		}); err != nil {
			return err
		}
		for _, rowid := range victims {
			if _, err := tx.Delete(vt, rowid); err != nil {
				return err
			}
		}
	}
	return nil
}

// mappingTables is the declared set of every mapping write. A delete may
// cascade into the attribute value tables (deleteNameRow), so they are
// declared with the name and mapping tables; creates and adds declare the
// same set so that all mapping writes share one group-commit queue.
var mappingTables = append([]string{tLFN, tPFN, tMap}, attrValueTables...)

// CreateMapping registers a new logical name with its first target. It
// fails with ErrExists if the logical name is already registered (use
// AddMapping for additional targets).
func (db *LRCDB) CreateMapping(logical, target string) error {
	return db.BulkCreate(context.Background(), []wire.Mapping{{Logical: logical, Target: target}})[0]
}

// BulkCreate creates every mapping as CreateMapping does, in one
// group-committed storage batch; errs[i] is mapping i's outcome.
func (db *LRCDB) BulkCreate(ctx context.Context, mappings []wire.Mapping) []error {
	return db.eng.UpdateEach(ctx, mappingTables, len(mappings), func(tx *storage.Tx, i int) error {
		logical, target := mappings[i].Logical, mappings[i].Target
		if logical == "" || target == "" {
			return fmt.Errorf("%w: empty name", ErrInvalid)
		}
		if rows, err := tx.Lookup(tLFN, "by_name", storage.String(logical)); err != nil {
			return err
		} else if len(rows) > 0 {
			return fmt.Errorf("%w: logical name %q", ErrExists, logical)
		}
		lfnID := db.nextLFN.Add(1)
		if _, err := tx.Insert(tLFN, storage.Row{storage.Int64(lfnID), storage.String(logical), storage.Int64(1)}); err != nil {
			return err
		}
		pfnID, _, err := db.getOrCreateName(tx, tPFN, &db.nextPFN, target)
		if err != nil {
			return err
		}
		if _, err := tx.Insert(tMap, storage.Row{storage.Int64(lfnID), storage.Int64(pfnID)}); err != nil {
			return err
		}
		_, err = db.adjustRef(tx, tPFN, pfnID, 1)
		return err
	})
}

// AddMapping adds another target to an existing logical name. It fails with
// ErrNotFound if the logical name is unregistered and ErrExists if the
// mapping is already present.
func (db *LRCDB) AddMapping(logical, target string) error {
	return db.BulkAdd(context.Background(), []wire.Mapping{{Logical: logical, Target: target}})[0]
}

// BulkAdd adds every mapping as AddMapping does, in one group-committed
// storage batch; errs[i] is mapping i's outcome.
func (db *LRCDB) BulkAdd(ctx context.Context, mappings []wire.Mapping) []error {
	return db.eng.UpdateEach(ctx, mappingTables, len(mappings), func(tx *storage.Tx, i int) error {
		logical, target := mappings[i].Logical, mappings[i].Target
		if logical == "" || target == "" {
			return fmt.Errorf("%w: empty name", ErrInvalid)
		}
		rows, err := tx.Lookup(tLFN, "by_name", storage.String(logical))
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("%w: logical name %q", ErrNotFound, logical)
		}
		lfnID := rows[0][colNameID].Int
		pfnID, _, err := db.getOrCreateName(tx, tPFN, &db.nextPFN, target)
		if err != nil {
			return err
		}
		if rows, err := tx.Lookup(tMap, "by_pair", storage.Int64(lfnID), storage.Int64(pfnID)); err != nil {
			return err
		} else if len(rows) > 0 {
			return fmt.Errorf("%w: mapping %q -> %q", ErrExists, logical, target)
		}
		if _, err := tx.Insert(tMap, storage.Row{storage.Int64(lfnID), storage.Int64(pfnID)}); err != nil {
			return err
		}
		if _, err := db.adjustRef(tx, tLFN, lfnID, 1); err != nil {
			return err
		}
		_, err = db.adjustRef(tx, tPFN, pfnID, 1)
		return err
	})
}

// DeleteMapping removes one mapping. Logical and target rows whose last
// mapping disappears are deleted along with their attribute values.
func (db *LRCDB) DeleteMapping(logical, target string) error {
	errs, _ := db.BulkDelete(context.Background(), []wire.Mapping{{Logical: logical, Target: target}})
	return errs[0]
}

// BulkDelete deletes every mapping as DeleteMapping does, in one
// group-committed storage batch; errs[i] is mapping i's outcome, and
// unregistered[i] reports that it removed its logical name's last mapping,
// unregistering the name.
func (db *LRCDB) BulkDelete(ctx context.Context, mappings []wire.Mapping) (errs []error, unregistered []bool) {
	unregistered = make([]bool, len(mappings))
	errs = db.eng.UpdateEach(ctx, mappingTables, len(mappings), func(tx *storage.Tx, i int) error {
		logical, target := mappings[i].Logical, mappings[i].Target
		lfnRows, err := tx.Lookup(tLFN, "by_name", storage.String(logical))
		if err != nil {
			return err
		}
		pfnRows, err := tx.Lookup(tPFN, "by_name", storage.String(target))
		if err != nil {
			return err
		}
		if len(lfnRows) == 0 || len(pfnRows) == 0 {
			return fmt.Errorf("%w: mapping %q -> %q", ErrNotFound, logical, target)
		}
		lfnID, pfnID := lfnRows[0][colNameID].Int, pfnRows[0][colNameID].Int
		mapIDs, _, err := tx.LookupIDs(tMap, "by_pair", storage.Int64(lfnID), storage.Int64(pfnID))
		if err != nil {
			return err
		}
		if len(mapIDs) == 0 {
			return fmt.Errorf("%w: mapping %q -> %q", ErrNotFound, logical, target)
		}
		if _, err := tx.Delete(tMap, mapIDs[0]); err != nil {
			return err
		}
		newRef, err := db.adjustRef(tx, tLFN, lfnID, -1)
		if err != nil {
			return err
		}
		if newRef <= 0 {
			if err := db.deleteNameRow(tx, tLFN, lfnID); err != nil {
				return err
			}
		}
		pfnRef, err := db.adjustRef(tx, tPFN, pfnID, -1)
		if err != nil {
			return err
		}
		if pfnRef <= 0 {
			if err := db.deleteNameRow(tx, tPFN, pfnID); err != nil {
				return err
			}
		}
		unregistered[i] = newRef <= 0
		return nil
	})
	return errs, unregistered
}

// GetTargets returns the target names mapped from a logical name. It reads a
// snapshot — the latch-free fig5/fig7 query path — so concurrent writers
// never block it.
func (db *LRCDB) GetTargets(logical string) ([]string, error) {
	var out []string
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		rows, err := r.Lookup(tLFN, "by_name", storage.String(logical))
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("%w: logical name %q", ErrNotFound, logical)
		}
		lfnID := rows[0][colNameID].Int
		maps, err := r.Lookup(tMap, "by_lfn", storage.Int64(lfnID))
		if err != nil {
			return err
		}
		for _, m := range maps {
			pfns, err := r.Lookup(tPFN, "by_id", m[colMapPFN])
			if err != nil {
				return err
			}
			if len(pfns) > 0 {
				out = append(out, pfns[0][colNameName].Str)
			}
		}
		return nil
	})
	return out, err
}

// GetLogicals returns the logical names mapping to a target name, from a
// snapshot.
func (db *LRCDB) GetLogicals(target string) ([]string, error) {
	var out []string
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		rows, err := r.Lookup(tPFN, "by_name", storage.String(target))
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("%w: target name %q", ErrNotFound, target)
		}
		pfnID := rows[0][colNameID].Int
		maps, err := r.Lookup(tMap, "by_pfn", storage.Int64(pfnID))
		if err != nil {
			return err
		}
		for _, m := range maps {
			lfns, err := r.Lookup(tLFN, "by_id", m[colMapLFN])
			if err != nil {
				return err
			}
			if len(lfns) > 0 {
				out = append(out, lfns[0][colNameName].Str)
			}
		}
		return nil
	})
	return out, err
}

// WildcardTargets returns every (logical, target) pair whose logical name
// matches the wildcard pattern.
func (db *LRCDB) WildcardTargets(pattern string) ([]wire.Mapping, error) {
	return db.wildcard(pattern, tLFN, tMap, "by_lfn", colMapPFN, tPFN, false)
}

// WildcardLogicals returns every (logical, target) pair whose target name
// matches the wildcard pattern.
func (db *LRCDB) WildcardLogicals(pattern string) ([]wire.Mapping, error) {
	return db.wildcard(pattern, tPFN, tMap, "by_pfn", colMapLFN, tLFN, true)
}

func (db *LRCDB) wildcard(pattern, nameTable, mapTable, mapIndex string, otherCol int, otherTable string, swap bool) ([]wire.Mapping, error) {
	prefix, _ := glob.LiteralPrefix(pattern)
	var out []wire.Mapping
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		var scanErr error
		if err := r.ScanStringPrefix(nameTable, "by_name", prefix, func(_ int64, row storage.Row) bool {
			name := row[colNameName].Str
			if !glob.Match(pattern, name) {
				return true
			}
			id := row[colNameID].Int
			maps, err := r.Lookup(mapTable, mapIndex, storage.Int64(id))
			if err != nil {
				scanErr = err
				return false
			}
			for _, m := range maps {
				others, err := r.Lookup(otherTable, "by_id", m[otherCol])
				if err != nil {
					scanErr = err
					return false
				}
				if len(others) == 0 {
					continue
				}
				other := others[0][colNameName].Str
				if swap {
					out = append(out, wire.Mapping{Logical: other, Target: name})
				} else {
					out = append(out, wire.Mapping{Logical: name, Target: other})
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

// PageLogicalNames returns up to limit logical names strictly greater than
// after, in lexical order. Each call pins a fresh snapshot, so names inserted
// or removed between pages may or may not appear; enumerations that need one
// consistent universe use a NamesCursor instead.
func (db *LRCDB) PageLogicalNames(after string, limit int) ([]string, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("%w: non-positive page limit", ErrInvalid)
	}
	var out []string
	err := db.eng.SnapshotView(func(r *storage.Reader) error {
		return r.ScanStringAfter(tLFN, "by_name", after, func(_ int64, row storage.Row) bool {
			out = append(out, row[colNameName].Str)
			return len(out) < limit
		})
	})
	return out, err
}

// NamesCursor pages through the logical-name universe of one pinned engine
// snapshot: every page comes from the same committed version, so a full
// enumeration (soft-state full update, Bloom rebuild, partition bitmap) is
// internally consistent no matter how many writes land mid-stream — and it
// holds no latch, so those writes never wait on it. Close releases the pin.
type NamesCursor struct {
	snap  *storage.Snap
	after string
	done  bool
}

// OpenNamesCursor pins the last committed version and returns a cursor over
// its logical names. The caller must Close it.
func (db *LRCDB) OpenNamesCursor() (*NamesCursor, error) {
	snap, err := db.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	return &NamesCursor{snap: snap}, nil
}

// Count returns the number of logical names in the cursor's snapshot — by
// construction, exactly the number of names a full enumeration will yield.
func (c *NamesCursor) Count() (int64, error) {
	return c.snap.Count(tLFN)
}

// Next returns the next page of up to limit names, in lexical order. It
// returns an empty page when the enumeration is exhausted.
func (c *NamesCursor) Next(limit int) ([]string, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("%w: non-positive page limit", ErrInvalid)
	}
	if c.done {
		return nil, nil
	}
	var out []string
	err := c.snap.ScanStringAfter(tLFN, "by_name", c.after, func(_ int64, row storage.Row) bool {
		out = append(out, row[colNameName].Str)
		return len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	if len(out) > 0 {
		c.after = out[len(out)-1]
	}
	if len(out) < limit {
		c.done = true
	}
	return out, nil
}

// Close unpins the cursor's snapshot. Safe to call more than once.
func (c *NamesCursor) Close() {
	c.snap.Close()
}

// Counts reports catalog occupancy: logical names, target names, mappings,
// all from one snapshot.
func (db *LRCDB) Counts() (logicals, targets, mappings int64, err error) {
	err = db.eng.SnapshotView(func(r *storage.Reader) error {
		if logicals, err = r.Count(tLFN); err != nil {
			return err
		}
		if targets, err = r.Count(tPFN); err != nil {
			return err
		}
		mappings, err = r.Count(tMap)
		return err
	})
	return logicals, targets, mappings, err
}
