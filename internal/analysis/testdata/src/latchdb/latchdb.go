// Package latchdb is a miniature mirror of the storage engine's latching
// API, just enough surface for latchcheck fixtures: Begin, Update and
// UpdateEach declare a write set, and the Tx/Reader access methods take the
// table name first.
package latchdb

import "context"

type Row []int

type Engine struct{}

func (e *Engine) Begin(tables ...string) (*Tx, error) { return &Tx{}, nil }

// Update and UpdateEach mirror the group-commit write path: the closure
// receives a transaction over the declared tables.
func (e *Engine) Update(ctx context.Context, tables []string, fn func(tx *Tx) error) error {
	return fn(&Tx{})
}

func (e *Engine) UpdateEach(ctx context.Context, tables []string, n int, fn func(tx *Tx, i int) error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fn(&Tx{}, i)
	}
	return errs
}

// Snapshot and SnapshotView mirror the MVCC read path: a latch-free pinned
// view of every table, with no declared set to prove.
func (e *Engine) Snapshot() (*Snap, error) { return &Snap{}, nil }

func (e *Engine) SnapshotView(fn func(r *Reader) error) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(&s.Reader)
}

type Snap struct {
	Reader
}

func (s *Snap) Epoch() uint64 { return 0 }
func (s *Snap) Close()        {}

type Tx struct{}

func (tx *Tx) Insert(table string, row Row) (int64, error)            { return 0, nil }
func (tx *Tx) Delete(table string, id int64) (bool, error)            { return false, nil }
func (tx *Tx) Lookup(table, index string, keys ...int) ([]Row, error) { return nil, nil }
func (tx *Tx) Commit() error                                          { return nil }
func (tx *Tx) Rollback() error                                        { return nil }

type Reader struct{}

func (r *Reader) Lookup(table, index string, keys ...int) ([]Row, error)     { return nil, nil }
func (r *Reader) ScanPrefix(table, index string, keys ...int) ([]Row, error) { return nil, nil }
func (r *Reader) Count(table string) (int, error)                            { return 0, nil }
