// Package latchbad violates the declared-table-set invariant in every way
// latchcheck can detect.
package latchbad

import (
	"context"

	"fix/latchdb"
)

const (
	tUsers  = "t_users"
	tOrders = "t_orders"
)

// Direct access to a table missing from the declared set.
func undeclaredDirect(e *latchdb.Engine) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tOrders, nil); err != nil { // want "touches undeclared table"
		return err
	}
	return tx.Commit()
}

// The violation hides inside a helper the transaction is passed to.
func undeclaredViaHelper(e *latchdb.Engine) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	return insertOrder(tx)
}

func insertOrder(tx *latchdb.Tx) error {
	_, err := tx.Insert(tOrders, nil) // want "touches undeclared table"
	return err
}

// A declared set built from a value the dataflow cannot bound.
func dynamicDeclared(e *latchdb.Engine, suffix string) error {
	tx, err := e.Begin("t_" + suffix) // want "cannot resolve the declared table set"
	if err != nil {
		return err
	}
	return tx.Commit()
}

// A table name the dataflow cannot bound at the access site.
func dynamicAccess(e *latchdb.Engine, suffix string) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	_, err = tx.Insert("t_"+suffix, nil) // want "cannot resolve the table name"
	return err
}

// The transaction is not bound to a variable the analysis can follow.
func unbound(e *latchdb.Engine) {
	e.Begin(tUsers) // want "not bound to a local variable"
}

var stashed *latchdb.Tx

// The transaction escapes into a package variable; accesses through the
// alias are invisible to the analysis.
func escapes(e *latchdb.Engine) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	stashed = tx // want "escapes the declared-set analysis"
	return nil
}

// An Update closure touching a table outside the declared set.
func updateUndeclared(ctx context.Context, e *latchdb.Engine) error {
	return e.Update(ctx, []string{tUsers}, func(tx *latchdb.Tx) error {
		_, err := tx.Insert(tOrders, nil) // want "touches undeclared table"
		return err
	})
}

// An UpdateEach closure whose violation hides in a helper.
func updateEachUndeclaredViaHelper(ctx context.Context, e *latchdb.Engine, n int) []error {
	return e.UpdateEach(ctx, []string{tUsers}, n, func(tx *latchdb.Tx, i int) error {
		return insertOrder(tx)
	})
}

// An Update whose declared set the dataflow cannot bound.
func updateDynamicDeclared(ctx context.Context, e *latchdb.Engine, suffix string) error {
	return e.Update(ctx, []string{"t_" + suffix}, func(tx *latchdb.Tx) error { // want "cannot resolve the declared table set of Update"
		return nil
	})
}

// An Update closure the analysis cannot see into.
func updateOpaque(ctx context.Context, e *latchdb.Engine, fn func(tx *latchdb.Tx) error) error {
	return e.Update(ctx, []string{tUsers}, fn) // want "Update closure is not statically analyzable"
}
