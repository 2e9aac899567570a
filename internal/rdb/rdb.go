// Package rdb implements the relational schemas of the paper's Figure 3 and
// the multi-statement database operations the RLS server performs against
// them — the layer that, in the C implementation, was SQL issued through
// ODBC to MySQL or PostgreSQL.
//
// Two database types exist:
//
//   - LRCDB holds a Local Replica Catalog: t_lfn, t_pfn and t_map for the
//     logical-to-target mappings; t_attribute plus one typed value table per
//     attribute type (t_str_attr, t_int_attr, t_flt_attr, t_date_attr); and
//     t_rli / t_rlipartition recording which RLIs this LRC updates and any
//     namespace-partition patterns.
//
//   - RLIDB holds a Replica Location Index built from full or incremental
//     (non-Bloom) soft state updates: t_lfn, t_lrc and a t_map whose rows
//     carry the updatetime examined by the expiration thread. (RLIs that
//     receive Bloom filter updates store no database at all; see package
//     rli.)
//
// Every public write runs as one atomic closure of storage.Engine.Update,
// mirroring the paper's observation that "each of these operations may
// correspond to multiple SQL operations on database tables"; concurrent
// writes on one table set, and the items of a bulk write, are group-committed
// as one storage transaction. Reads run on latch-free snapshots.
package rdb

import "errors"

// Sentinel errors mapped onto wire statuses by the server layer.
var (
	// ErrExists reports a create of something already registered.
	ErrExists = errors.New("rdb: already exists")
	// ErrNotFound reports an operation on an unregistered name.
	ErrNotFound = errors.New("rdb: not found")
	// ErrInvalid reports malformed arguments (empty names, bad types).
	ErrInvalid = errors.New("rdb: invalid argument")
)
