package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/disk"
)

var errAbort = errors.New("closure gives up")

// contents reads t_lfn's name -> id rows from the last published version.
func contents(t *testing.T, e *Engine) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := e.SnapshotView(func(r *Reader) error {
		return r.ScanPrefix("t_lfn", "by_id", nil, func(_ int64, row Row) bool {
			out[row[1].Str] = row[0].Int
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameContents(t *testing.T, what string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for name, id := range want {
		if gid, ok := got[name]; !ok || gid != id {
			t.Fatalf("%s: %q -> %d (present %v), want %d", what, name, gid, ok, id)
		}
	}
}

// holdQueue makes a caller lead the queue of tables and park inside its
// closure until the returned release is called, so that callers arriving
// meanwhile all queue up for the next batch. done receives the parked
// caller's result.
func holdQueue(e *Engine, tables []string, fn func(tx *Tx) error) (release func(), done <-chan error) {
	entered, gate := make(chan struct{}), make(chan struct{})
	out := make(chan error, 1)
	go func() {
		out <- e.Update(context.Background(), tables, func(tx *Tx) error {
			close(entered)
			<-gate
			return fn(tx)
		})
	}()
	<-entered
	return func() { close(gate) }, out
}

// waitPending waits until n callers are queued on the tables' queue.
func waitPending(t *testing.T, e *Engine, tables []string, n int) {
	t.Helper()
	q := e.queue(tables)
	waitFor(t, func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.pending) >= n
	})
}

// TestUpdateFailedClosureMidBatch runs one batch whose middle closures fail
// after writing — one after inserts, one after a delete — and checks that
// exactly their mutations are undone while their peers commit, in the
// published version and after a reopen replays the WAL.
func TestUpdateFailedClosureMidBatch(t *testing.T) {
	for _, p := range []Personality{PersonalityMySQL, PersonalityPostgres} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Personality: p, Device: disk.New(disk.Fast())}
			e, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			mustCreate(t, e, testSchema())
			ref := map[string]int64{}
			for i := int64(1); i <= 3; i++ {
				name := fmt.Sprintf("old-%d", i)
				mustInsert(t, e, "t_lfn", Row{Int64(i), String(name), Int64(0)})
				ref[name] = i
			}
			sameContents(t, "preloaded", contents(t, e), ref)
			published := func() int64 { return e.Stats().Snapshots.Published }
			before := published()

			const n = 8
			errs := e.UpdateEach(context.Background(), []string{"t_lfn"}, n, func(tx *Tx, i int) error {
				id := int64(100 + i)
				name := fmt.Sprintf("new-%d", i)
				if _, err := tx.Insert("t_lfn", Row{Int64(id), String(name), Int64(0)}); err != nil {
					return err
				}
				switch i {
				case 3: // a second insert, then give up
					if _, err := tx.Insert("t_lfn", Row{Int64(200), String("extra"), Int64(0)}); err != nil {
						return err
					}
					return errAbort
				case 5: // delete a committed row, then give up
					ids, _, err := tx.LookupIDs("t_lfn", "by_name", String("old-2"))
					if err != nil || len(ids) != 1 {
						return fmt.Errorf("lookup old-2: %d rows, %v", len(ids), err)
					}
					if _, err := tx.Delete("t_lfn", ids[0]); err != nil {
						return err
					}
					return errAbort
				case 6: // a unique violation after a successful insert
					_, err := tx.Insert("t_lfn", Row{Int64(1), String("dup-id"), Int64(0)})
					return err
				}
				return nil
			})
			for i, err := range errs {
				switch i {
				case 3, 5:
					if !errors.Is(err, errAbort) {
						t.Fatalf("closure %d: err = %v, want errAbort", i, err)
					}
				case 6:
					if !errors.Is(err, ErrUniqueViolation) {
						t.Fatalf("closure %d: err = %v, want ErrUniqueViolation", i, err)
					}
				default:
					if err != nil {
						t.Fatalf("closure %d: %v", i, err)
					}
					ref[fmt.Sprintf("new-%d", i)] = int64(100 + i)
				}
			}
			// The batch is one version: the first snapshot after it publishes
			// once, and the next one finds nothing left to publish.
			sameContents(t, "published", contents(t, e), ref)
			if got := published() - before; got != 1 {
				t.Fatalf("batch + snapshot published %d versions, want 1", got)
			}
			sameContents(t, "republished", contents(t, e), ref)
			if got := published() - before; got != 1 {
				t.Fatalf("batch + two snapshots published %d versions, want 1", got)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			sameContents(t, "replayed", contents(t, e2), ref)
		})
	}
}

// TestUpdatePanicReachesOnlyItsCaller checks that a panicking closure —
// the batch leader's own or a follower's — re-panics in its own caller
// only, with its mutations undone, while its batch peers commit and the
// latches are released.
func TestUpdatePanicReachesOnlyItsCaller(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	tables := []string{"t_lfn"}
	insert := func(id int64, name string) func(tx *Tx) error {
		return func(tx *Tx) error {
			_, err := tx.Insert("t_lfn", Row{Int64(id), String(name), Int64(0)})
			return err
		}
	}
	// update runs one caller, turning a panic into its recovered value.
	update := func(fn func(tx *Tx) error) (err error, panicked any) {
		defer func() { panicked = recover() }()
		return e.Update(context.Background(), tables, fn), nil
	}
	type result struct {
		err      error
		panicked any
	}

	// The parked leader panics after inserting; three followers queue
	// behind it, the middle one panicking too.
	leaderOut := make(chan result, 1)
	entered, gate := make(chan struct{}), make(chan struct{})
	go func() {
		err, p := update(func(tx *Tx) error {
			close(entered)
			<-gate
			if err := insert(1, "leader")(tx); err != nil {
				return err
			}
			panic("leader closure")
		})
		leaderOut <- result{err, p}
	}()
	<-entered
	outs := make([]chan result, 3)
	for i := range outs {
		outs[i] = make(chan result, 1)
		fn := insert(int64(10+i), fmt.Sprintf("f%d", i))
		if i == 1 {
			fn = func(tx *Tx) error {
				if err := insert(11, "f1")(tx); err != nil {
					return err
				}
				panic("follower closure")
			}
		}
		go func(i int) {
			err, p := update(fn)
			outs[i] <- result{err, p}
		}(i)
		waitPending(t, e, tables, i+1)
	}
	close(gate)

	if r := <-leaderOut; r.panicked != "leader closure" {
		t.Fatalf("leader: %+v, want its own panic", r)
	}
	for i, ch := range outs {
		r := <-ch
		switch {
		case i == 1 && r.panicked != "follower closure":
			t.Fatalf("follower 1: %+v, want its own panic", r)
		case i != 1 && (r.panicked != nil || r.err != nil):
			t.Fatalf("follower %d: %+v, want success", i, r)
		}
	}
	sameContents(t, "after panics", contents(t, e), map[string]int64{"f0": 10, "f2": 12})

	// The latches were released: a direct transaction and another Update
	// both get through.
	done := make(chan error, 1)
	go func() {
		tx, err := e.Begin("t_lfn")
		if err == nil {
			err = tx.Rollback()
		}
		if err == nil {
			err = e.Update(context.Background(), tables, insert(20, "after"))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("table latch still held after a panicking batch")
	}
}

// TestUpdateMemberContextUnderFlushOnCommit checks that every batch member
// waits for its batch's group sync under its own context: a member whose
// context is cancelled mid-sync returns ctx.Err() wrapped in ErrNotDurable
// — though it led its batch — while the other members keep waiting and
// succeed once the sync lands, and the cancelled member's write stays
// applied.
func TestUpdateMemberContextUnderFlushOnCommit(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	dev := disk.New(disk.Params{SyncLatency: disk.DefaultSyncLatency, Clock: fc})
	e := OpenMemory(Options{Device: dev})
	stop := make(chan struct{})
	var pumping sync.Once
	pump := func() { pumping.Do(func() { go pumpClock(fc, stop) }) }
	defer func() {
		pump() // on failure too: Close waits out the parked sync
		e.Close()
		close(stop)
	}()
	mustCreate(t, e, benchSchema("t_a"))
	mustCreate(t, e, benchSchema("t_b"))
	e.SetFlushOnCommit(true)
	insert := func(table string, id int64) func(tx *Tx) error {
		return func(tx *Tx) error {
			_, err := tx.Insert(table, Row{Int64(id), String("x")})
			return err
		}
	}

	// A commit on another table set leads the WAL group and parks in the
	// device sync (nobody advances the fake clock yet).
	walLeader := make(chan error, 1)
	go func() { walLeader <- e.Update(context.Background(), []string{"t_a"}, insert("t_a", 1)) }()
	waitFor(t, func() bool { return fc.Pending() > 0 })

	// On t_b a parked caller holds the queue while two members queue up;
	// released, they form one batch led by the first, m1.
	tb := []string{"t_b"}
	release, parked := holdQueue(e, tb, insert("t_b", 1))
	ctx1, cancel1 := context.WithCancel(context.Background())
	m1, m2 := make(chan error, 1), make(chan error, 1)
	go func() { m1 <- e.Update(ctx1, tb, insert("t_b", 2)) }()
	waitPending(t, e, tb, 1)
	go func() { m2 <- e.Update(context.Background(), tb, insert("t_b", 3)) }()
	waitPending(t, e, tb, 2)
	release()
	// Both batches joined the WAL group forming behind the parked sync.
	waitFor(t, func() bool { return e.wal.stats().gcCommits >= 3 })

	cancel1()
	select {
	case err := <-m1:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrNotDurable) {
			t.Fatalf("cancelled member = %v, want context.Canceled wrapped in ErrNotDurable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled member still waiting on the group sync")
	}
	select {
	case err := <-m2:
		t.Fatalf("member with a live context returned %v before its sync", err)
	case err := <-parked:
		t.Fatalf("parked caller returned %v before its sync", err)
	default:
	}

	pump()
	for name, ch := range map[string]chan error{"wal leader": walLeader, "member 2": m2} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked caller: %v", err)
	}
	// The cancelled member's row was applied: only the confirmation was
	// abandoned.
	var n int64
	if err := e.SnapshotView(func(r *Reader) (err error) { n, err = r.Count("t_b"); return err }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("t_b has %d rows, want 3", n)
	}
}

// TestUpdateDoneContextSkipsClosures checks that a caller whose context has
// ended before its batch runs gets ctx.Err() and writes nothing.
func TestUpdateDoneContextSkipsClosures(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	errs := e.UpdateEach(ctx, []string{"t_lfn"}, 2, func(tx *Tx, i int) error {
		ran = true
		return nil
	})
	for _, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs = %v, want context.Canceled", errs)
		}
	}
	if ran {
		t.Fatal("closure ran under a done context")
	}
}

// TestUpdateConcurrentBatchesAgainstReference drives many concurrent
// callers — single and multi-closure, some failing — through Update on one
// table set and checks the published state and the replayed WAL against a
// reference built from the reported outcomes.
func TestUpdateConcurrentBatchesAgainstReference(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, testSchema())
	const (
		workers = 8
		rounds  = 40
	)
	var mu sync.Mutex
	ref := map[string]int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 1 + (w+r)%3
				errs := e.UpdateEach(context.Background(), []string{"t_lfn"}, n, func(tx *Tx, i int) error {
					id := int64(w*10000 + r*10 + i + 1)
					if _, err := tx.Insert("t_lfn", Row{Int64(id), String(fmt.Sprint(id)), Int64(0)}); err != nil {
						return err
					}
					if id%4 == 0 {
						return errAbort
					}
					return nil
				})
				mu.Lock()
				for i, err := range errs {
					id := int64(w*10000 + r*10 + i + 1)
					switch {
					case err == nil:
						ref[fmt.Sprint(id)] = id
					case !errors.Is(err, errAbort):
						t.Errorf("worker %d: %v", w, err)
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sameContents(t, "published", contents(t, e), ref)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	sameContents(t, "replayed", contents(t, e2), ref)
}
