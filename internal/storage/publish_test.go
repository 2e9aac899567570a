package storage

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCheckpointPublishesUnreadCommits commits through Update without ever
// taking a snapshot of the result, then checkpoints and reopens. Checkpoint
// deletes the rotated WAL once snapshot.db lands, so it must publish the
// commits no reader asked for before it serializes a version; capturing the
// retired version instead would lose them.
func TestCheckpointPublishesUnreadCommits(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, testSchema())
	want := map[string]int64{}
	sameContents(t, "empty", contents(t, e), want)
	const n = publishBatchOps / 2 // a short batch: it leaves the publish to a reader
	published := e.snapshotStats().Published
	errs := e.UpdateEach(context.Background(), []string{"t_lfn"}, n, func(tx *Tx, i int) error {
		_, err := tx.Insert("t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("n%03d", i)), Int64(0)})
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		want[fmt.Sprintf("n%03d", i)] = int64(i)
	}
	if got := e.snapshotStats().Published; got != published {
		t.Fatalf("the batch published %d versions; the test needs it unpublished", got-published)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	sameContents(t, "reopened", contents(t, e2), want)
}

// TestCrossTableBatchesSeenWhole runs writers that keep two tables in step —
// a row is in t_a exactly when it is in t_b — next to a writer of a third,
// unrelated table, while readers snapshot continuously. Every tenth t_c
// batch is long, so it publishes as it commits while t_a and t_b may be
// stale. Every snapshot must satisfy the invariant (a batch is never seen
// half published), t_c's count must never go backwards across one reader's
// snapshots (a table written since the last publish is never served from its
// old view), and each writer's own snapshot after Update returns must see
// its write.
func TestCrossTableBatchesSeenWhole(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	for _, name := range []string{"t_a", "t_b", "t_c"} {
		mustCreate(t, e, benchSchema(name))
	}
	ctx := context.Background()
	pair := []string{"t_a", "t_b"}
	const (
		pairWriters = 2
		rounds      = 150
		readers     = 2
	)
	var writers, all sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	has := func(r *Reader, table string, id int64) (bool, error) {
		rows, err := r.Lookup(table, "by_id", Int64(id))
		return len(rows) > 0, err
	}

	for w := 0; w < pairWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				id := int64(w*rounds + i)
				insert := i%3 != 2
				if !insert {
					id -= 2 // delete the pair inserted two rounds ago
				}
				err := e.Update(ctx, pair, func(tx *Tx) error {
					for _, table := range pair {
						if insert {
							if _, err := tx.Insert(table, Row{Int64(id), String(fmt.Sprintf("r%d", id))}); err != nil {
								return err
							}
							continue
						}
						ids, _, err := tx.LookupIDs(table, "by_id", Int64(id))
						if err != nil || len(ids) != 1 {
							return fmt.Errorf("%s: lookup %d: %d rows, %v", table, id, len(ids), err)
						}
						if _, err := tx.Delete(table, ids[0]); err != nil {
							return err
						}
					}
					return nil
				})
				if err == nil {
					err = e.SnapshotView(func(r *Reader) error {
						for _, table := range pair {
							if ok, err := has(r, table, id); err != nil || ok != insert {
								return fmt.Errorf("own snapshot: %s has %d = %v, want %v (%v)", table, id, ok, insert, err)
							}
						}
						return nil
					})
				}
				if err != nil {
					report(fmt.Errorf("pair writer %d: %w", w, err))
					return
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		var next int64
		for i := 0; i < rounds; i++ {
			rows := 1
			if i%10 == 9 {
				rows = publishBatchOps
			}
			err := e.Update(ctx, []string{"t_c"}, func(tx *Tx) error {
				for j := 0; j < rows; j++ {
					if _, err := tx.Insert("t_c", Row{Int64(next + int64(j)), String("c")}); err != nil {
						return err
					}
				}
				return nil
			})
			next += int64(rows)
			if err == nil {
				err = e.SnapshotView(func(r *Reader) error {
					if n, err := r.Count("t_c"); err != nil || n != next {
						return fmt.Errorf("own snapshot: t_c count %d, want %d (%v)", n, next, err)
					}
					return nil
				})
			}
			if err != nil {
				report(fmt.Errorf("t_c writer: %w", err))
				return
			}
		}
	}()
	for rd := 0; rd < readers; rd++ {
		all.Add(1)
		go func(rd int) {
			defer all.Done()
			var lastC int64
			for {
				select {
				case <-done:
					return
				default:
				}
				err := e.SnapshotView(func(r *Reader) error {
					na, err := r.Count("t_a")
					if err != nil {
						return err
					}
					if nb, err := r.Count("t_b"); err != nil || nb != na {
						return fmt.Errorf("t_a has %d rows, t_b %d (%v)", na, nb, err)
					}
					var missing error
					err = r.ScanPrefix("t_a", "by_id", nil, func(_ int64, row Row) bool {
						ok, err := has(r, "t_b", row[0].Int)
						if err != nil || !ok {
							missing = fmt.Errorf("row %d in t_a but not t_b (%v)", row[0].Int, err)
						}
						return missing == nil
					})
					if err != nil || missing != nil {
						return fmt.Errorf("scan: %v %v", err, missing)
					}
					nc, err := r.Count("t_c")
					if err != nil || nc < lastC {
						return fmt.Errorf("t_c count went from %d to %d (%v)", lastC, nc, err)
					}
					lastC = nc
					return nil
				})
				if err != nil {
					report(fmt.Errorf("reader %d: %w", rd, err))
					return
				}
			}
		}(rd)
	}
	writers.Wait()
	close(done)
	all.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}

// TestLongBatchPublishesAtCommit checks where a batch's version is
// published: a batch shorter than publishBatchOps leaves it to the next
// Snapshot, a longer one publishes as it commits, so the Snapshot after it
// publishes nothing.
func TestLongBatchPublishesAtCommit(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, benchSchema("t_a"))
	var next int64
	insert := func(rows int) {
		t.Helper()
		err := e.Update(context.Background(), []string{"t_a"}, func(tx *Tx) error {
			for j := 0; j < rows; j++ {
				if _, err := tx.Insert("t_a", Row{Int64(next + int64(j)), String("a")}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		next += int64(rows)
	}
	snapshot := func() {
		t.Helper()
		if err := e.SnapshotView(func(r *Reader) error {
			if n, err := r.Count("t_a"); err != nil || n != next {
				return fmt.Errorf("t_a count %d, want %d (%v)", n, next, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snapshot()
	for _, c := range []struct {
		rows                 int
		atCommit, atSnapshot int64
	}{
		{rows: publishBatchOps - 1, atCommit: 0, atSnapshot: 1},
		{rows: publishBatchOps, atCommit: 1, atSnapshot: 0},
		{rows: 3 * publishBatchOps, atCommit: 1, atSnapshot: 0},
		{rows: 1, atCommit: 0, atSnapshot: 1},
	} {
		p0 := e.snapshotStats().Published
		insert(c.rows)
		p1 := e.snapshotStats().Published
		snapshot()
		p2 := e.snapshotStats().Published
		if p1-p0 != c.atCommit || p2-p1 != c.atSnapshot {
			t.Errorf("batch of %d rows: published %d at commit and %d at the next Snapshot, want %d and %d",
				c.rows, p1-p0, p2-p1, c.atCommit, c.atSnapshot)
		}
	}
}

// TestSnapshotWaitsOnlyForStaleTables holds a batch open on t_a and takes
// snapshots beside it. While t_a is unchanged since the last publish, a
// snapshot — even one that must publish because t_b changed — uses t_a's
// kept view and does not wait for the batch. Once t_a has a commit no
// snapshot followed, a snapshot must clone t_a and waits for the batch in
// flight, then sees it.
func TestSnapshotWaitsOnlyForStaleTables(t *testing.T) {
	e := OpenMemory(fastOpts())
	t.Cleanup(func() { e.Close() }) // after the cleanups that release held batches
	for _, name := range []string{"t_a", "t_b"} {
		mustCreate(t, e, benchSchema(name))
	}
	ctx := context.Background()
	write := func(table string, id int64) {
		t.Helper()
		if err := e.Update(ctx, []string{table}, func(tx *Tx) error {
			_, err := tx.Insert(table, Row{Int64(id), String(table)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() (a, b int64, err error) {
		err = e.SnapshotView(func(r *Reader) error {
			if a, err = r.Count("t_a"); err != nil {
				return err
			}
			b, err = r.Count("t_b")
			return err
		})
		return a, b, err
	}
	// holdA opens a batch on t_a that inserts id and waits for release,
	// which runs at the latest when the test ends.
	holdA := func(id int64) (release func(), committed <-chan error) {
		entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			done <- e.Update(ctx, []string{"t_a"}, func(tx *Tx) error {
				close(entered)
				<-gate
				_, err := tx.Insert("t_a", Row{Int64(id), String("t_a")})
				return err
			})
		}()
		<-entered
		var once sync.Once
		release = func() { once.Do(func() { close(gate) }) }
		t.Cleanup(release)
		return release, done
	}

	if _, _, err := counts(); err != nil { // publish: nothing is stale
		t.Fatal(err)
	}
	release, committed := holdA(1)
	write("t_b", 1)
	type result struct {
		a, b int64
		err  error
	}
	got := make(chan result, 1)
	go func() {
		a, b, err := counts()
		got <- result{a, b, err}
	}()
	select {
	case r := <-got:
		if r.err != nil || r.a != 0 || r.b != 1 {
			t.Fatalf("snapshot beside the batch: t_a %d, t_b %d (%v), want 0 and 1", r.a, r.b, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a snapshot waited for a batch on a table unchanged since the last publish")
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}

	// t_a is now stale: the next snapshot waits for a batch in flight on it.
	release, committed = holdA(2)
	go func() {
		a, b, err := counts()
		got <- result{a, b, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("a snapshot published t_a under a batch in flight: t_a %d, t_b %d (%v)", r.a, r.b, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || r.a != 2 || r.b != 1 {
		t.Fatalf("snapshot after the batch: t_a %d, t_b %d (%v), want 2 and 1", r.a, r.b, r.err)
	}
}

// TestCommitReleasesReplacedRow checks that a row version a commit replaces
// becomes garbage at once when no snapshot follows: the commit drops the
// table's last published view, so nothing but a pinned snapshot could keep
// the replaced nodes — and the row in them — reachable.
func TestCommitReleasesReplacedRow(t *testing.T) {
	for _, p := range []Personality{PersonalityMySQL, PersonalityPostgres} {
		t.Run(p.String(), func(t *testing.T) {
			opts := fastOpts()
			opts.Personality = p
			e := OpenMemory(opts)
			defer e.Close()
			mustCreate(t, e, testSchema())
			var last int64
			for i := 1; i <= 100; i++ {
				last = mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("n%03d", i)), Int64(0)})
			}
			// Publish, so the table keeps a view that shares every node.
			if got := len(contents(t, e)); got != 100 {
				t.Fatalf("t_lfn has %d rows, want 100", got)
			}
			collected := watchVersion(e, "t_lfn", last)
			err := e.Update(context.Background(), []string{"t_lfn"}, func(tx *Tx) error {
				_, err := tx.Delete("t_lfn", last)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the deleted row's version is still reachable after its commit")
		})
	}
}

// watchVersion sets a finalizer on the live version of rowid and returns a
// channel closed when the runtime collects it.
func watchVersion(e *Engine, table string, rowid int64) <-chan struct{} {
	collected := make(chan struct{})
	tb := e.tables[table]
	tb.lockLatch()
	v, _ := tb.heap.Get(rowidKey(rowid))
	tb.latch.Unlock()
	runtime.SetFinalizer(v.(*version), func(*version) { close(collected) })
	return collected
}
