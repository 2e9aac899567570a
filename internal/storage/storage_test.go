package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
)

func fastOpts() Options {
	return Options{Device: disk.New(disk.Fast())}
}

func fastPostgresOpts() Options {
	return Options{Personality: PersonalityPostgres, Device: disk.New(disk.Fast())}
}

func testSchema() Schema {
	return Schema{
		Name: "t_lfn",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
			{Name: "ref", Kind: KindInt},
		},
		Indexes: []IndexSpec{
			{Name: "by_id", Columns: []string{"id"}, Unique: true},
			{Name: "by_name", Columns: []string{"name"}, Unique: true},
		},
	}
}

func mustCreate(t *testing.T, e *Engine, s Schema) {
	t.Helper()
	if err := e.CreateTable(s); err != nil {
		t.Fatalf("CreateTable(%s): %v", s.Name, err)
	}
}

func mustInsert(t *testing.T, e *Engine, table string, row Row) int64 {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	id, err := tx.Insert(table, row)
	if err != nil {
		tx.Rollback()
		t.Fatalf("Insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return id
}

func TestInsertAndLookup(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	id := mustInsert(t, e, "t_lfn", Row{Int64(1), String("lfn-001"), Int64(0)})
	if id != 1 {
		t.Fatalf("first rowid = %d, want 1", id)
	}
	err := e.SnapshotView(func(r *Reader) error {
		rows, err := r.Lookup("t_lfn", "by_name", String("lfn-001"))
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("found %d rows, want 1", len(rows))
		}
		if rows[0][1].Str != "lfn-001" {
			return fmt.Errorf("name = %q", rows[0][1].Str)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLookupMissReturnsEmpty(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	e.SnapshotView(func(r *Reader) error {
		rows, err := r.Lookup("t_lfn", "by_name", String("absent"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("lookup miss returned %d rows", len(rows))
		}
		return nil
	})
}

func TestUniqueViolation(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	mustInsert(t, e, "t_lfn", Row{Int64(1), String("dup"), Int64(0)})
	tx, _ := e.Begin()
	_, err := tx.Insert("t_lfn", Row{Int64(2), String("dup"), Int64(0)})
	tx.Rollback()
	if !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("duplicate insert error = %v, want ErrUniqueViolation", err)
	}
}

func TestNonUniqueIndexAllowsDuplicates(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	s := Schema{
		Name:    "t_map",
		Columns: []Column{{Name: "lfn_id", Kind: KindInt}, {Name: "pfn_id", Kind: KindInt}},
		Indexes: []IndexSpec{{Name: "by_lfn", Columns: []string{"lfn_id"}}},
	}
	mustCreate(t, e, s)
	mustInsert(t, e, "t_map", Row{Int64(1), Int64(10)})
	mustInsert(t, e, "t_map", Row{Int64(1), Int64(11)})
	e.SnapshotView(func(r *Reader) error {
		rows, _ := r.Lookup("t_map", "by_lfn", Int64(1))
		if len(rows) != 2 {
			t.Fatalf("found %d rows under same key, want 2", len(rows))
		}
		return nil
	})
}

func TestDeleteMySQLRemovesRow(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	id := mustInsert(t, e, "t_lfn", Row{Int64(1), String("x"), Int64(0)})
	tx, _ := e.Begin()
	ok, err := tx.Delete("t_lfn", id)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	tx.Commit()
	st := e.Stats()
	if st.Tables[0].Live != 0 || st.Tables[0].Dead != 0 {
		t.Fatalf("stats after mysql delete = %+v, want live=0 dead=0", st.Tables[0])
	}
}

func TestDeletePostgresLeavesTombstone(t *testing.T) {
	e := OpenMemory(fastPostgresOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	id := mustInsert(t, e, "t_lfn", Row{Int64(1), String("x"), Int64(0)})
	tx, _ := e.Begin()
	tx.Delete("t_lfn", id)
	tx.Commit()
	st := e.Stats()
	if st.Tables[0].Live != 0 || st.Tables[0].Dead != 1 {
		t.Fatalf("stats after postgres delete = %+v, want live=0 dead=1", st.Tables[0])
	}
	// Deleted row must be invisible to lookups despite the tombstone.
	e.SnapshotView(func(r *Reader) error {
		rows, _ := r.Lookup("t_lfn", "by_name", String("x"))
		if len(rows) != 0 {
			t.Fatalf("tombstoned row visible to lookup")
		}
		return nil
	})
	// Re-inserting the same unique key must succeed: the old version is dead.
	mustInsert(t, e, "t_lfn", Row{Int64(2), String("x"), Int64(0)})
}

func TestVacuumReclaimsTombstones(t *testing.T) {
	e := OpenMemory(fastPostgresOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	for i := 0; i < 100; i++ {
		id := mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("n%d", i)), Int64(0)})
		tx, _ := e.Begin()
		tx.Delete("t_lfn", id)
		tx.Commit()
	}
	if st := e.Stats(); st.Tables[0].Dead != 100 {
		t.Fatalf("dead = %d, want 100", st.Tables[0].Dead)
	}
	n, err := e.Vacuum("t_lfn")
	if err != nil || n != 100 {
		t.Fatalf("Vacuum = %d, %v; want 100, nil", n, err)
	}
	if st := e.Stats(); st.Tables[0].Dead != 0 || st.Tables[0].Live != 0 {
		t.Fatalf("stats after vacuum = %+v", st.Tables[0])
	}
}

func TestPostgresBloatSlowsUniqueProbe(t *testing.T) {
	// The mechanism behind the paper's Figure 8: repeated add/delete of the
	// same keys grows per-key version chains that every unique probe must
	// walk. We assert the chains exist (dead count grows) and that vacuum
	// resets them.
	e := OpenMemory(fastPostgresOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	const cycles = 20
	for c := 0; c < cycles; c++ {
		for i := 0; i < 10; i++ {
			id := mustInsert(t, e, "t_lfn", Row{Int64(int64(c*10 + i)), String(fmt.Sprintf("key-%d", i)), Int64(0)})
			tx, _ := e.Begin()
			tx.Delete("t_lfn", id)
			tx.Commit()
		}
	}
	if st := e.Stats(); st.Tables[0].Dead != cycles*10 {
		t.Fatalf("dead = %d, want %d", st.Tables[0].Dead, cycles*10)
	}
	if _, err := e.Vacuum("t_lfn"); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Tables[0].Dead != 0 {
		t.Fatalf("dead after vacuum = %d", st.Tables[0].Dead)
	}
}

func TestRollbackUndoesInsertAndDelete(t *testing.T) {
	for _, p := range []Personality{PersonalityMySQL, PersonalityPostgres} {
		t.Run(p.String(), func(t *testing.T) {
			opts := fastOpts()
			opts.Personality = p
			e := OpenMemory(opts)
			defer e.Close()
			mustCreate(t, e, testSchema())
			keep := mustInsert(t, e, "t_lfn", Row{Int64(1), String("keep"), Int64(0)})

			tx, _ := e.Begin()
			if _, err := tx.Insert("t_lfn", Row{Int64(2), String("new"), Int64(0)}); err != nil {
				t.Fatal(err)
			}
			if ok, _ := tx.Delete("t_lfn", keep); !ok {
				t.Fatal("delete of existing row failed")
			}
			tx.Rollback()

			e.SnapshotView(func(r *Reader) error {
				if rows, _ := r.Lookup("t_lfn", "by_name", String("new")); len(rows) != 0 {
					t.Fatal("rolled-back insert visible")
				}
				if rows, _ := r.Lookup("t_lfn", "by_name", String("keep")); len(rows) != 1 {
					t.Fatal("rolled-back delete not undone")
				}
				return nil
			})
			if st := e.Stats(); st.Tables[0].Live != 1 || st.Tables[0].Dead != 0 {
				t.Fatalf("stats after rollback = %+v", st.Tables[0])
			}
		})
	}
}

func TestTxSeesOwnWrites(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	tx, _ := e.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert("t_lfn", Row{Int64(1), String("mine"), Int64(0)}); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Lookup("t_lfn", "by_name", String("mine"))
	if err != nil || len(rows) != 1 {
		t.Fatalf("tx.Lookup = %d rows, %v; want 1", len(rows), err)
	}
}

func TestTxDoubleFinishReturnsErrTxDone(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	tx, _ := e.Begin()
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second Commit = %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Rollback after Commit = %v, want ErrTxDone", err)
	}
}

func TestInsertWrongArity(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	tx, _ := e.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert("t_lfn", Row{Int64(1)}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestInsertWrongKind(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	tx, _ := e.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert("t_lfn", Row{String("not-int"), String("x"), Int64(0)}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestUnknownTableAndIndex(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	tx, _ := e.Begin()
	if _, err := tx.Insert("nope", Row{}); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("Insert unknown table: %v", err)
	}
	if _, err := tx.Lookup("t_lfn", "nope"); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("Lookup unknown index: %v", err)
	}
	tx.Rollback()
	if _, err := e.Vacuum("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("Vacuum unknown table: %v", err)
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	if err := e.CreateTable(testSchema()); err == nil {
		t.Fatal("duplicate CreateTable accepted")
	}
}

func TestSchemaValidate(t *testing.T) {
	bad := []Schema{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "", Kind: KindInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, Indexes: []IndexSpec{{Name: "i", Columns: []string{"zz"}}}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, Indexes: []IndexSpec{{Name: "", Columns: []string{"a"}}}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, Indexes: []IndexSpec{{Name: "i", Columns: []string{"a"}}, {Name: "i", Columns: []string{"a"}}}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, Indexes: []IndexSpec{{Name: "i"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d validated", i)
		}
	}
	good := testSchema()
	if err := good.Validate(); err != nil {
		t.Errorf("good schema rejected: %v", err)
	}
}

func TestScanStringPrefixWildcardPath(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	names := []string{"lfn-1", "lfn-10", "lfn-11", "lfn-2", "other"}
	for i, n := range names {
		mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(n), Int64(0)})
	}
	var got []string
	e.SnapshotView(func(r *Reader) error {
		return r.ScanStringPrefix("t_lfn", "by_name", "lfn-1", func(_ int64, row Row) bool {
			got = append(got, row[1].Str)
			return true
		})
	})
	want := []string{"lfn-1", "lfn-10", "lfn-11"}
	if len(got) != len(want) {
		t.Fatalf("prefix scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestScanPrefixCompositeIndex(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	s := Schema{
		Name:    "t_attr",
		Columns: []Column{{Name: "obj_id", Kind: KindInt}, {Name: "attr_id", Kind: KindInt}, {Name: "value", Kind: KindString}},
		Indexes: []IndexSpec{{Name: "by_obj_attr", Columns: []string{"obj_id", "attr_id"}}},
	}
	mustCreate(t, e, s)
	mustInsert(t, e, "t_attr", Row{Int64(1), Int64(1), String("a")})
	mustInsert(t, e, "t_attr", Row{Int64(1), Int64(2), String("b")})
	mustInsert(t, e, "t_attr", Row{Int64(2), Int64(1), String("c")})
	var got []string
	e.SnapshotView(func(r *Reader) error {
		return r.ScanPrefix("t_attr", "by_obj_attr", []Value{Int64(1)}, func(_ int64, row Row) bool {
			got = append(got, row[2].Str)
			return true
		})
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("composite prefix scan = %v, want [a b]", got)
	}
}

func TestCountTracksLiveRows(t *testing.T) {
	e := OpenMemory(fastPostgresOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	var ids []int64
	for i := 0; i < 10; i++ {
		ids = append(ids, mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("n%d", i)), Int64(0)}))
	}
	tx, _ := e.Begin()
	tx.Delete("t_lfn", ids[0])
	tx.Delete("t_lfn", ids[1])
	tx.Commit()
	e.SnapshotView(func(r *Reader) error {
		n, err := r.Count("t_lfn")
		if err != nil || n != 8 {
			t.Fatalf("Count = %d, %v; want 8", n, err)
		}
		return nil
	})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, testSchema())
	mustInsert(t, e, "t_lfn", Row{Int64(1), String("persists"), Int64(0)})
	id2 := mustInsert(t, e, "t_lfn", Row{Int64(2), String("deleted"), Int64(0)})
	tx, _ := e.Begin()
	tx.Delete("t_lfn", id2)
	tx.Commit()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.SnapshotView(func(r *Reader) error {
		if rows, _ := r.Lookup("t_lfn", "by_name", String("persists")); len(rows) != 1 {
			t.Fatal("row lost across reopen")
		}
		if rows, _ := r.Lookup("t_lfn", "by_name", String("deleted")); len(rows) != 0 {
			t.Fatal("deleted row resurrected across reopen")
		}
		return nil
	})
	// New inserts must not collide with recovered rowids.
	id3 := mustInsert(t, e2, "t_lfn", Row{Int64(3), String("fresh"), Int64(0)})
	if id3 <= id2 {
		t.Fatalf("rowid %d reused after reopen (max was %d)", id3, id2)
	}
}

func TestCheckpointThenReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, testSchema())
	for i := 0; i < 50; i++ {
		mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("n%03d", i)), Int64(0)})
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the fresh WAL.
	mustInsert(t, e, "t_lfn", Row{Int64(100), String("after-ckpt"), Int64(0)})
	e.Close()

	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.SnapshotView(func(r *Reader) error {
		n, _ := r.Count("t_lfn")
		if n != 51 {
			t.Fatalf("Count after checkpoint+reopen = %d, want 51", n)
		}
		if rows, _ := r.Lookup("t_lfn", "by_name", String("after-ckpt")); len(rows) != 1 {
			t.Fatal("post-checkpoint row lost")
		}
		return nil
	})
}

func TestTornWALTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, testSchema())
	mustInsert(t, e, "t_lfn", Row{Int64(1), String("good"), Int64(0)})
	e.Close()

	// Simulate a crash mid-append: write garbage at the end of the WAL.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x55, 0x01, 0x02}) // length varint then truncated frame
	f.Close()

	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer e2.Close()
	e2.SnapshotView(func(r *Reader) error {
		if rows, _ := r.Lookup("t_lfn", "by_name", String("good")); len(rows) != 1 {
			t.Fatal("intact record lost when discarding torn tail")
		}
		return nil
	})
}

func TestCorruptWALRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, testSchema())
	mustInsert(t, e, "t_lfn", Row{Int64(1), String("first"), Int64(0)})
	e.Close()

	// Flip a payload byte in the middle of the log; crc catches it and
	// replay stops there without error.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	os.WriteFile(walPath, data, 0o644)

	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatalf("reopen with corrupt record: %v", err)
	}
	e2.Close()
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	for i := 0; i < 100; i++ {
		mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("base-%03d", i)), Int64(0)})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.SnapshotView(func(r *Reader) error {
					rows, err := r.Lookup("t_lfn", "by_name", String("base-050"))
					if err != nil || len(rows) != 1 {
						t.Errorf("reader: %v rows, err %v", len(rows), err)
					}
					return nil
				})
			}
		}()
	}
	for i := 100; i < 300; i++ {
		mustInsert(t, e, "t_lfn", Row{Int64(int64(i)), String(fmt.Sprintf("new-%03d", i)), Int64(0)})
	}
	close(stop)
	wg.Wait()
}

func TestClosedEngineRejectsOperations(t *testing.T) {
	e := OpenMemory(fastOpts())
	e.Close()
	if err := e.CreateTable(testSchema()); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTable on closed engine: %v", err)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin on closed engine: %v", err)
	}
	if err := e.SnapshotView(func(*Reader) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("SnapshotView on closed engine: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestVacuumAll(t *testing.T) {
	e := OpenMemory(fastPostgresOpts())
	defer e.Close()
	mustCreate(t, e, testSchema())
	s2 := testSchema()
	s2.Name = "t_pfn"
	mustCreate(t, e, s2)
	for _, tab := range []string{"t_lfn", "t_pfn"} {
		id := mustInsert(t, e, tab, Row{Int64(1), String("x"), Int64(0)})
		tx, _ := e.Begin()
		tx.Delete(tab, id)
		tx.Commit()
	}
	n, err := e.VacuumAll()
	if err != nil || n != 2 {
		t.Fatalf("VacuumAll = %d, %v; want 2", n, err)
	}
}

// TestQuickEngineAgainstReference drives random add/delete sequences on both
// personalities and compares visible state with a reference map.
func TestQuickEngineAgainstReference(t *testing.T) {
	check := func(seed int64, pg bool) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := fastOpts()
		if pg {
			opts.Personality = PersonalityPostgres
		}
		e := OpenMemory(opts)
		defer e.Close()
		if err := e.CreateTable(testSchema()); err != nil {
			t.Error(err)
			return false
		}
		ref := map[string]int64{} // name -> rowid
		next := int64(0)
		for op := 0; op < 400; op++ {
			name := fmt.Sprintf("n%02d", rng.Intn(40))
			if rng.Intn(2) == 0 {
				tx, _ := e.Begin()
				next++
				id, err := tx.Insert("t_lfn", Row{Int64(next), String(name), Int64(0)})
				if _, exists := ref[name]; exists {
					if !errors.Is(err, ErrUniqueViolation) {
						t.Errorf("seed %d op %d: expected unique violation for %q, got %v", seed, op, name, err)
						tx.Rollback()
						return false
					}
					tx.Rollback()
				} else {
					if err != nil {
						t.Errorf("seed %d op %d: insert %q: %v", seed, op, name, err)
						tx.Rollback()
						return false
					}
					tx.Commit()
					ref[name] = id
				}
			} else {
				id, exists := ref[name]
				tx, _ := e.Begin()
				ok, err := tx.Delete("t_lfn", id)
				tx.Commit()
				if err != nil {
					t.Errorf("seed %d: delete: %v", seed, err)
					return false
				}
				if ok != exists {
					t.Errorf("seed %d: delete %q ok=%v, want %v", seed, name, ok, exists)
					return false
				}
				delete(ref, name)
			}
			if op%100 == 99 && pg {
				e.Vacuum("t_lfn")
			}
		}
		var n int64
		e.SnapshotView(func(r *Reader) error { n, _ = r.Count("t_lfn"); return nil })
		if n != int64(len(ref)) {
			t.Errorf("seed %d: count %d, ref %d", seed, n, len(ref))
			return false
		}
		for name := range ref {
			var found int
			e.SnapshotView(func(r *Reader) error {
				rows, _ := r.Lookup("t_lfn", "by_name", String(name))
				found = len(rows)
				return nil
			})
			if found != 1 {
				t.Errorf("seed %d: %q found %d times", seed, name, found)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWALRoundTrip checks that every value survives WAL encode/decode.
func TestQuickWALRoundTrip(t *testing.T) {
	check := func(i int64, f float64, s string, tnano int64) bool {
		row := Row{Int64(i), Float64(f), String(s), Timestamp(time.Unix(0, tnano)), Null()}
		rec := walRecord{kind: recInsert, tableID: 7, rowid: 99, row: row}
		frame := walEncode(rec)
		var got walRecord
		err := walDecodeStream(bytesReader(frame), func(r walRecord) error {
			got = r
			return nil
		})
		if err != nil {
			return false
		}
		return got.kind == recInsert && got.tableID == 7 && got.rowid == 99 && got.row.Equal(row)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKeyEncodingPreservesOrder checks order preservation of the index
// key encoding for each kind.
func TestQuickKeyEncodingPreservesOrder(t *testing.T) {
	cmpBytes := func(a, b []byte) int {
		switch {
		case string(a) < string(b):
			return -1
		case string(a) > string(b):
			return 1
		}
		return 0
	}
	intCheck := func(a, b int64) bool {
		ka, kb := appendKey(nil, Int64(a)), appendKey(nil, Int64(b))
		switch {
		case a < b:
			return cmpBytes(ka, kb) < 0
		case a > b:
			return cmpBytes(ka, kb) > 0
		}
		return cmpBytes(ka, kb) == 0
	}
	strCheck := func(a, b string) bool {
		ka, kb := appendKey(nil, String(a)), appendKey(nil, String(b))
		switch {
		case a < b:
			return cmpBytes(ka, kb) < 0
		case a > b:
			return cmpBytes(ka, kb) > 0
		}
		return cmpBytes(ka, kb) == 0
	}
	if err := quick.Check(intCheck, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("int order: %v", err)
	}
	if err := quick.Check(strCheck, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("string order: %v", err)
	}
}

func TestStringKeyNotPrefixOfAnother(t *testing.T) {
	// "a" vs "a\x00b": terminator escaping must keep encodings prefix-free.
	ka := appendKey(nil, String("a"))
	kb := appendKey(nil, String("a\x00b"))
	if len(ka) <= len(kb) && string(kb[:len(ka)]) == string(ka) {
		t.Fatalf("encoding of %q is a prefix of encoding of %q", "a", "a\x00b")
	}
}

func TestValueEqualAndString(t *testing.T) {
	now := time.Now()
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{Int64(1), Int64(1), true},
		{Int64(1), Int64(2), false},
		{Int64(1), Float64(1), false},
		{String("x"), String("x"), true},
		{Null(), Null(), true},
		{Timestamp(now), Timestamp(now), true},
		{Float64(1.5), Float64(1.5), true},
		{Float64(1.5), Float64(2.5), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("case %d: Equal = %v, want %v", i, got, c.eq)
		}
	}
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindTime} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

// bytesReader adapts a byte slice for walDecodeStream.
func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
