package storage

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Group commit of write transactions.
//
// Update and UpdateEach are the engine's write path for closures: callers
// hand over what to do inside a transaction, and concurrent callers on one
// declared table set share the transaction. Callers queue on the set's
// updateQueue; one that finds no leader leads. A leader takes everything
// queued at that moment as one batch, opens one Tx, runs every closure
// behind its own savepoint, and commits once — one WAL frame, one version
// publish — then hands leadership to the head of the queue. There is no
// batch-size or time knob: a batch is exactly what queued while the previous
// batch ran, so a lone caller commits at once, and a batch grows only when
// callers were already waiting on the latches it holds.

// updateQueue serializes the batches of one declared table set.
type updateQueue struct {
	tables []string // the declared set, sorted and deduplicated

	mu      sync.Mutex
	leading bool      // a leader owns the queue; guarded by mu
	pending []*ticket // callers waiting for the next batch; guarded by mu
}

// ticket is one caller's submission: its closures run back to back in one
// batch, each behind its own savepoint.
type ticket struct {
	ctx  context.Context
	n    int
	fn   func(tx *Tx, i int) error
	errs []error

	// Written by the batch leader before it signals wake with false.
	panicked any        // the value a closure panicked with, re-raised by its caller
	durable  *groupSync // the batch's group-commit sync, nil unless flushing

	// wake carries exactly one signal: true hands the caller leadership of
	// the queue (its ticket is still pending), false delivers its results.
	wake chan bool
}

// Update runs fn in a write transaction over the declared tables and commits
// it, sharing the transaction with concurrent callers on the same table set
// (see UpdateEach). fn's mutations are atomic: when it returns an error or
// panics they are undone and nothing of it is committed; the error is
// returned and a panic is re-raised in the caller. With no tables every
// table is declared.
func (e *Engine) Update(ctx context.Context, tables []string, fn func(tx *Tx) error) error {
	return e.UpdateEach(ctx, tables, 1, func(tx *Tx, _ int) error { return fn(tx) })[0]
}

// UpdateEach runs fn(tx, i) for i in [0, n), each call atomic on its own, in
// one group-committed batch, and returns each call's error. A call that
// fails leaves no trace; the others still commit.
//
// Callers return only after their batch is published, so a Snapshot taken
// afterwards observes every successful call. Under FlushOnCommit each caller
// then waits for the batch's group sync under its own ctx: if ctx ends first,
// every call that succeeded reports ctx.Err() wrapped in ErrNotDurable
// instead — never a false success. A ctx already done when the batch starts
// skips the caller's calls.
//
// fn must touch only the declared tables and must not Commit or Rollback the
// transaction, nor call Update on the same engine.
func (e *Engine) UpdateEach(ctx context.Context, tables []string, n int, fn func(tx *Tx, i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if err := ctx.Err(); err != nil {
		fill(errs, err)
		return errs
	}
	q := e.queue(tables)
	t := &ticket{ctx: ctx, n: n, fn: fn, errs: errs, wake: make(chan bool, 1)}
	q.mu.Lock()
	q.pending = append(q.pending, t)
	lead := !q.leading
	q.leading = true
	q.mu.Unlock()
	if !lead {
		lead = <-t.wake // true: handed leadership; false: results are in
	}
	if lead {
		e.lead(q, t)
	}
	if t.panicked != nil {
		panic(t.panicked)
	}
	if t.durable != nil {
		if err := t.durable.wait(ctx); err != nil {
			failSucceeded(errs, err)
		}
	}
	return errs
}

// queue returns the update queue of a declared table set, creating it on
// first use.
func (e *Engine) queue(tables []string) *updateQueue {
	names := append([]string(nil), tables...)
	sort.Strings(names)
	uniq := names[:0]
	for i, name := range names {
		if i == 0 || name != names[i-1] {
			uniq = append(uniq, name)
		}
	}
	key := strings.Join(uniq, ",")
	e.queuesMu.Lock()
	defer e.queuesMu.Unlock()
	q := e.queues[key]
	if q == nil {
		q = &updateQueue{tables: uniq}
		e.queues[key] = q
	}
	return q
}

// lead runs one batch as the queue's leader: everything pending, self (the
// leader's own ticket) included. It hands leadership on as soon as the
// batch's latches are released, so the next batch runs while this one pays
// for its device write and group sync.
func (e *Engine) lead(q *updateQueue, self *ticket) {
	q.mu.Lock()
	batch := q.pending
	q.pending = nil
	q.mu.Unlock()

	n, g, walLead, err := e.commitBatch(q.tables, batch)

	q.mu.Lock()
	var next *ticket
	if len(q.pending) > 0 {
		next = q.pending[0]
	} else {
		q.leading = false
	}
	q.mu.Unlock()
	if next != nil {
		next.wake <- true
	}

	e.opts.Device.Write(n)
	for _, t := range batch {
		if err != nil {
			failSucceeded(t.errs, err)
		} else if g != nil && slices.Contains(t.errs, nil) {
			t.durable = g
		}
		if t != self {
			t.wake <- false
		}
	}
	if walLead {
		e.wal.lead()
	}
}

// commitBatch runs every ticket's closures in one transaction over tables
// and commits it (see Tx.commit for the results). Each closure runs behind a
// savepoint, so one that fails or panics rolls back only its own mutations.
// The returned error is the commit's own (or Begin's); closure errors are in
// the tickets.
func (e *Engine) commitBatch(tables []string, batch []*ticket) (n int, g *groupSync, walLead bool, err error) {
	tx, err := e.Begin(tables...)
	if err != nil {
		return 0, nil, false, err
	}
	tx.update = true
	for _, t := range batch {
		if err := t.ctx.Err(); err != nil {
			fill(t.errs, err)
			continue
		}
		for i := 0; i < t.n; i++ {
			t.errs[i] = tx.savepoint(t, i)
		}
	}
	return tx.commit()
}

// savepoint runs closure i of t, undoing its mutations if it fails or
// panics. A panic is recorded on the ticket for its caller to re-raise.
func (tx *Tx) savepoint(t *ticket, i int) (err error) {
	mark := len(tx.ops)
	defer func() {
		if p := recover(); p != nil {
			if t.panicked == nil {
				t.panicked = p
			}
			err = fmt.Errorf("storage: update closure panicked: %v", p)
		}
		if err != nil {
			tx.rollbackTo(mark)
		}
	}()
	return t.fn(tx, i)
}

func fill(errs []error, err error) {
	for i := range errs {
		errs[i] = err
	}
}

// failSucceeded replaces the nil entries of errs with err.
func failSucceeded(errs []error, err error) {
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
}
