package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/rdb"
)

// oracle checks every answer the benchmark receives against what the
// deployment must hold, and keeps the per-shard name counts the end-of-run
// reconciliation compares with each shard's database.
type oracle struct {
	shards  []string                 // shard URLs in ring order
	ownerOf func(logical string) int // ring owner index
	// bloom marks shard URLs that reach the queried RLI only as a Bloom
	// filter: an answer may name them for a name they do not hold (a false
	// positive), never the other shards.
	bloom map[string]bool
	// inDB marks shard URLs whose names the queried RLI's database holds.
	inDB map[string]bool

	preload []int64        // catalog names per shard
	created []atomic.Int64 // successful fresh creates per shard
	deleted []atomic.Int64 // successful deletes per shard

	missQueries    atomic.Int64
	missPositives  atomic.Int64 // non-empty answers to miss queries
	extraPositives atomic.Int64 // Bloom-sourced extra URLs on hit queries

	mu       sync.Mutex
	firstErr error
}

func newOracle(cat *catalog, shards []string, ownerOf func(string) int, bloom, inDB map[string]bool) *oracle {
	o := &oracle{
		shards: shards, ownerOf: ownerOf, bloom: bloom, inDB: inDB,
		preload: make([]int64, len(shards)),
		created: make([]atomic.Int64, len(shards)),
		deleted: make([]atomic.Int64, len(shards)),
	}
	for _, name := range cat.logical {
		o.preload[ownerOf(name)]++
	}
	return o
}

// fail records the first wrong answer for the report and returns err.
func (o *oracle) fail(err error) error {
	o.mu.Lock()
	if o.firstErr == nil {
		o.firstErr = err
	}
	o.mu.Unlock()
	return err
}

// checkGet: a catalog name's targets are exactly its registered target.
func (o *oracle) checkGet(q op, got []string, err error) error {
	if err != nil {
		return o.fail(fmt.Errorf("get_targets %s: %w", q.logical, err))
	}
	if len(got) != 1 || got[0] != q.target {
		return o.fail(fmt.Errorf("get_targets %s = %q, want [%s]", q.logical, got, q.target))
	}
	return nil
}

// checkWrite: creates and deletes succeed; successes count toward the
// owning shard's expected name count.
func (o *oracle) checkWrite(q op, err error) error {
	if err != nil {
		return o.fail(fmt.Errorf("%s %s: %w", kindNames[q.kind], q.logical, err))
	}
	shard := o.ownerOf(q.logical)
	if q.kind == opCreate {
		o.created[shard].Add(1)
	} else {
		o.deleted[shard].Add(1)
	}
	return nil
}

// checkRLI: a held name's answer names its owning shard; a miss comes back
// not-found. Any other URL must be a Bloom-sourced shard, counted as a
// false positive.
func (o *oracle) checkRLI(q op, got []string, err error) error {
	if q.miss {
		o.missQueries.Add(1)
		if notFound(err) {
			return nil
		}
		if err != nil {
			return o.fail(fmt.Errorf("rli_query %s (miss): %w", q.logical, err))
		}
		if err := o.onlyBloom(q, got, ""); err != nil {
			return err
		}
		o.missPositives.Add(1)
		return nil
	}
	if err != nil {
		return o.fail(fmt.Errorf("rli_query %s: %w", q.logical, err))
	}
	owner := o.shards[o.ownerOf(q.logical)]
	found := false
	for _, u := range got {
		found = found || u == owner
	}
	if !found {
		return o.fail(fmt.Errorf("rli_query %s = %q, missing owner %s", q.logical, got, owner))
	}
	if len(got) > 1 {
		if err := o.onlyBloom(q, got, owner); err != nil {
			return err
		}
		o.extraPositives.Add(1)
	}
	return nil
}

// notFound matches a not-found answer from the client (a wire status) or
// from a service called in-process (an rdb error).
func notFound(err error) bool {
	return errors.Is(err, client.ErrNotFound) || errors.Is(err, rdb.ErrNotFound)
}

func (o *oracle) onlyBloom(q op, got []string, owner string) error {
	for _, u := range got {
		if u != owner && !o.bloom[u] {
			return o.fail(fmt.Errorf("rli_query %s = %q: %s holds no such name and sends no Bloom filter", q.logical, got, u))
		}
	}
	return nil
}

// checkRLIDB checks an answer read straight from an RLI's database, which
// holds only the shards in inDB.
func (o *oracle) checkRLIDB(q op, got []string, err error) error {
	owner := ""
	if !q.miss && o.inDB[o.shards[o.ownerOf(q.logical)]] {
		owner = o.shards[o.ownerOf(q.logical)]
	}
	if owner == "" {
		if notFound(err) {
			return nil
		}
		return o.fail(fmt.Errorf("rdb rli_query %s = %q, %v; want not-found", q.logical, got, err))
	}
	if err != nil || len(got) != 1 || got[0] != owner {
		return o.fail(fmt.Errorf("rdb rli_query %s = %q, %v; want [%s]", q.logical, got, err, owner))
	}
	return nil
}

// reconcile compares each shard's logical-name and mapping counts with
// preload + creates - deletes.
func (o *oracle) reconcile(counts func(shard int) (logicals, mappings int64, err error)) error {
	for i := range o.shards {
		want := o.preload[i] + o.created[i].Load() - o.deleted[i].Load()
		logicals, mappings, err := counts(i)
		if err != nil {
			return o.fail(fmt.Errorf("counts on %s: %w", o.shards[i], err))
		}
		if logicals != want || mappings != want {
			return o.fail(fmt.Errorf("%s holds %d names and %d mappings, want %d (preload %d + creates %d - deletes %d)",
				o.shards[i], logicals, mappings, want, o.preload[i], o.created[i].Load(), o.deleted[i].Load()))
		}
	}
	return nil
}

func (o *oracle) err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.firstErr
}
