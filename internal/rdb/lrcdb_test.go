package rdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/wire"
)

func newTestLRC(t *testing.T) *LRCDB {
	t.Helper()
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := NewLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateAndQueryMapping(t *testing.T) {
	db := newTestLRC(t)
	if err := db.CreateMapping("lfn://f1", "pfn://siteA/f1"); err != nil {
		t.Fatal(err)
	}
	targets, err := db.GetTargets("lfn://f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0] != "pfn://siteA/f1" {
		t.Fatalf("targets = %v", targets)
	}
	logicals, err := db.GetLogicals("pfn://siteA/f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(logicals) != 1 || logicals[0] != "lfn://f1" {
		t.Fatalf("logicals = %v", logicals)
	}
}

func TestCreateDuplicateLogicalFails(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f1", "pfn://a")
	err := db.CreateMapping("lfn://f1", "pfn://b")
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create = %v, want ErrExists", err)
	}
}

func TestAddMappingSemantics(t *testing.T) {
	db := newTestLRC(t)
	if err := db.AddMapping("lfn://missing", "pfn://a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("add to unregistered lfn = %v, want ErrNotFound", err)
	}
	db.CreateMapping("lfn://f1", "pfn://a")
	if err := db.AddMapping("lfn://f1", "pfn://b"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddMapping("lfn://f1", "pfn://b"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate add = %v, want ErrExists", err)
	}
	targets, _ := db.GetTargets("lfn://f1")
	if len(targets) != 2 {
		t.Fatalf("targets = %v, want 2", targets)
	}
}

func TestSharedTargetAcrossLogicals(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f1", "pfn://shared")
	db.CreateMapping("lfn://f2", "pfn://shared")
	logicals, err := db.GetLogicals("pfn://shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(logicals) != 2 {
		t.Fatalf("logicals = %v, want 2", logicals)
	}
}

func TestDeleteMappingRemovesOrphans(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f1", "pfn://a")
	db.AddMapping("lfn://f1", "pfn://b")
	if err := db.DeleteMapping("lfn://f1", "pfn://a"); err != nil {
		t.Fatal(err)
	}
	// pfn://a should be gone; lfn://f1 still has one mapping.
	if _, err := db.GetLogicals("pfn://a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphaned target still resolvable: %v", err)
	}
	targets, _ := db.GetTargets("lfn://f1")
	if len(targets) != 1 || targets[0] != "pfn://b" {
		t.Fatalf("targets = %v", targets)
	}
	if err := db.DeleteMapping("lfn://f1", "pfn://b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetTargets("lfn://f1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphaned logical still resolvable: %v", err)
	}
	l, p, m, _ := db.Counts()
	if l != 0 || p != 0 || m != 0 {
		t.Fatalf("counts after full cleanup = %d/%d/%d", l, p, m)
	}
}

func TestDeleteMissingMapping(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f1", "pfn://a")
	db.CreateMapping("lfn://f2", "pfn://b")
	if err := db.DeleteMapping("lfn://f1", "pfn://b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of unmapped pair = %v, want ErrNotFound", err)
	}
	if err := db.DeleteMapping("lfn://nope", "pfn://a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of missing lfn = %v, want ErrNotFound", err)
	}
}

func TestEmptyNamesRejected(t *testing.T) {
	db := newTestLRC(t)
	if err := db.CreateMapping("", "pfn://a"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty logical = %v", err)
	}
	if err := db.CreateMapping("lfn://x", ""); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty target = %v", err)
	}
	if err := db.AddMapping("", ""); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty add = %v", err)
	}
}

func TestWildcardQueries(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://run1/a", "pfn://siteA/a")
	db.CreateMapping("lfn://run1/b", "pfn://siteA/b")
	db.CreateMapping("lfn://run2/c", "pfn://siteB/c")

	hits, err := db.WildcardTargets("lfn://run1/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("wildcard targets = %v, want 2", hits)
	}
	for _, h := range hits {
		if h.Logical == "" || h.Target == "" {
			t.Fatalf("incomplete hit %+v", h)
		}
	}

	hits, err = db.WildcardLogicals("pfn://siteB/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Logical != "lfn://run2/c" {
		t.Fatalf("wildcard logicals = %v", hits)
	}

	// Exact pattern (no wildcard) behaves as an exact match.
	hits, err = db.WildcardTargets("lfn://run2/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("exact-pattern hits = %v", hits)
	}
	// '?' matches a single character.
	hits, err = db.WildcardTargets("lfn://run?/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("question-mark hits = %v", hits)
	}
}

func TestPageLogicalNames(t *testing.T) {
	db := newTestLRC(t)
	const n = 25
	for i := 0; i < n; i++ {
		db.CreateMapping(fmt.Sprintf("lfn-%03d", i), fmt.Sprintf("pfn-%03d", i))
	}
	var all []string
	after := ""
	for {
		page, err := db.PageLogicalNames(after, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
		after = page[len(page)-1]
	}
	if len(all) != n {
		t.Fatalf("paged %d names, want %d", len(all), n)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("pages out of order: %q then %q", all[i-1], all[i])
		}
	}
	if _, err := db.PageLogicalNames("", 0); !errors.Is(err, ErrInvalid) {
		t.Fatal("zero limit accepted")
	}
}

func TestCounts(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://1", "pfn://shared")
	db.CreateMapping("lfn://2", "pfn://shared")
	db.AddMapping("lfn://1", "pfn://solo")
	l, p, m, err := db.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if l != 2 || p != 2 || m != 3 {
		t.Fatalf("counts = %d logicals, %d targets, %d mappings; want 2/2/3", l, p, m)
	}
}

func TestOpenLRCDBRecoversCounters(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, storage.Options{Device: disk.New(disk.Fast())})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMapping("lfn://1", "pfn://1")
	db.CreateMapping("lfn://2", "pfn://2")
	eng.Close()

	eng2, err := storage.Open(dir, storage.Options{Device: disk.New(disk.Fast())})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	db2, err := OpenLRCDB(eng2)
	if err != nil {
		t.Fatal(err)
	}
	// New creations must not collide with recovered ids.
	if err := db2.CreateMapping("lfn://3", "pfn://3"); err != nil {
		t.Fatal(err)
	}
	targets, err := db2.GetTargets("lfn://1")
	if err != nil || len(targets) != 1 {
		t.Fatalf("recovered mapping: %v, %v", targets, err)
	}
	l, _, _, _ := db2.Counts()
	if l != 3 {
		t.Fatalf("logicals = %d, want 3", l)
	}
}

func TestAttributesLifecycle(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f", "pfn://f")

	if err := db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate define = %v", err)
	}
	// Same name for a different object type is a distinct attribute.
	if err := db.DefineAttribute("size", wire.ObjLogical, wire.AttrInt); err != nil {
		t.Fatal(err)
	}

	if err := db.AddAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 1024}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 1}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate attr add = %v", err)
	}
	attrs, err := db.GetAttributes("pfn://f", wire.ObjTarget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 1 || attrs[0].Name != "size" || attrs[0].Value.I != 1024 {
		t.Fatalf("attrs = %+v", attrs)
	}

	if err := db.ModifyAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 2048}); err != nil {
		t.Fatal(err)
	}
	attrs, _ = db.GetAttributes("pfn://f", wire.ObjTarget, []string{"size"})
	if len(attrs) != 1 || attrs[0].Value.I != 2048 {
		t.Fatalf("after modify = %+v", attrs)
	}

	if err := db.RemoveAttribute("pfn://f", wire.ObjTarget, "size"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveAttribute("pfn://f", wire.ObjTarget, "size"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second remove = %v", err)
	}
	attrs, _ = db.GetAttributes("pfn://f", wire.ObjTarget, nil)
	if len(attrs) != 0 {
		t.Fatalf("attrs after remove = %+v", attrs)
	}
}

func TestAttributeTypeEnforcement(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f", "pfn://f")
	db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt)
	err := db.AddAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrString, S: "big"})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("type mismatch = %v, want ErrInvalid", err)
	}
	if err := db.AddAttribute("pfn://f", wire.ObjTarget, "undefined", wire.AttrValue{Type: wire.AttrInt, I: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("undefined attr = %v, want ErrNotFound", err)
	}
	if err := db.AddAttribute("pfn://missing", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object = %v, want ErrNotFound", err)
	}
	if err := db.ModifyAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("modify before add = %v, want ErrNotFound", err)
	}
}

func TestAttributeAllTypes(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f", "pfn://f")
	cases := []struct {
		name string
		typ  wire.AttrType
		val  wire.AttrValue
	}{
		{"checksum", wire.AttrString, wire.AttrValue{Type: wire.AttrString, S: "deadbeef"}},
		{"size", wire.AttrInt, wire.AttrValue{Type: wire.AttrInt, I: 42}},
		{"quality", wire.AttrFloat, wire.AttrValue{Type: wire.AttrFloat, F: 0.99}},
		{"created", wire.AttrDate, wire.AttrValue{Type: wire.AttrDate, I: 1086300000000000000}},
	}
	for _, c := range cases {
		if err := db.DefineAttribute(c.name, wire.ObjTarget, c.typ); err != nil {
			t.Fatalf("define %s: %v", c.name, err)
		}
		if err := db.AddAttribute("pfn://f", wire.ObjTarget, c.name, c.val); err != nil {
			t.Fatalf("add %s: %v", c.name, err)
		}
	}
	attrs, err := db.GetAttributes("pfn://f", wire.ObjTarget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != len(cases) {
		t.Fatalf("got %d attrs, want %d: %+v", len(attrs), len(cases), attrs)
	}
	byName := map[string]wire.AttrValue{}
	for _, a := range attrs {
		byName[a.Name] = a.Value
	}
	if byName["checksum"].S != "deadbeef" || byName["size"].I != 42 ||
		byName["quality"].F != 0.99 || byName["created"].I != 1086300000000000000 {
		t.Fatalf("attr values = %+v", byName)
	}
}

func TestSearchAttribute(t *testing.T) {
	db := newTestLRC(t)
	db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt)
	for i := 1; i <= 5; i++ {
		lfn := fmt.Sprintf("lfn://%d", i)
		pfn := fmt.Sprintf("pfn://%d", i)
		db.CreateMapping(lfn, pfn)
		db.AddAttribute(pfn, wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: int64(i * 100)})
	}
	cases := []struct {
		cmp  wire.CmpOp
		val  int64
		want int
	}{
		{wire.CmpEQ, 300, 1},
		{wire.CmpNE, 300, 4},
		{wire.CmpLT, 300, 2},
		{wire.CmpLE, 300, 3},
		{wire.CmpGT, 300, 2},
		{wire.CmpGE, 300, 3},
		{wire.CmpAny, 0, 5},
	}
	for _, c := range cases {
		hits, err := db.SearchAttribute("size", wire.ObjTarget, c.cmp, wire.AttrValue{Type: wire.AttrInt, I: c.val})
		if err != nil {
			t.Fatalf("cmp %d: %v", c.cmp, err)
		}
		if len(hits) != c.want {
			t.Fatalf("cmp %d: %d hits, want %d", c.cmp, len(hits), c.want)
		}
	}
	if _, err := db.SearchAttribute("nope", wire.ObjTarget, wire.CmpEQ, wire.AttrValue{Type: wire.AttrInt}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("search undefined attr = %v", err)
	}
	if _, err := db.SearchAttribute("size", wire.ObjTarget, wire.CmpOp(99), wire.AttrValue{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad cmp = %v", err)
	}
	if _, err := db.SearchAttribute("size", wire.ObjTarget, wire.CmpEQ, wire.AttrValue{Type: wire.AttrString}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("probe type mismatch = %v", err)
	}
}

func TestUndefineAttribute(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f", "pfn://f")
	db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt)
	db.AddAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 9})

	if err := db.UndefineAttribute("size", wire.ObjTarget, false); !errors.Is(err, ErrExists) {
		t.Fatalf("undefine with live values = %v, want ErrExists", err)
	}
	if err := db.UndefineAttribute("size", wire.ObjTarget, true); err != nil {
		t.Fatal(err)
	}
	if err := db.UndefineAttribute("size", wire.ObjTarget, true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second undefine = %v", err)
	}
	attrs, _ := db.GetAttributes("pfn://f", wire.ObjTarget, nil)
	if len(attrs) != 0 {
		t.Fatalf("values remain after clearing undefine: %+v", attrs)
	}
}

func TestDeleteMappingCleansAttributes(t *testing.T) {
	db := newTestLRC(t)
	db.CreateMapping("lfn://f", "pfn://f")
	db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt)
	db.AddAttribute("pfn://f", wire.ObjTarget, "size", wire.AttrValue{Type: wire.AttrInt, I: 9})
	db.DeleteMapping("lfn://f", "pfn://f")
	// Re-register the same names: attribute values must not resurface.
	db.CreateMapping("lfn://f", "pfn://f")
	attrs, err := db.GetAttributes("pfn://f", wire.ObjTarget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 0 {
		t.Fatalf("stale attribute resurfaced: %+v", attrs)
	}
}

func TestRLITargets(t *testing.T) {
	db := newTestLRC(t)
	if err := db.AddRLITarget(wire.RLITarget{URL: "rls://rli1", Bloom: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRLITarget(wire.RLITarget{URL: "rls://rli2", Patterns: []string{"lfn://ligo/*", "lfn://esg/*"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRLITarget(wire.RLITarget{URL: "rls://rli1"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate RLI = %v", err)
	}
	if err := db.AddRLITarget(wire.RLITarget{URL: ""}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty url = %v", err)
	}
	if err := db.AddRLITarget(wire.RLITarget{URL: "rls://rli3", Patterns: []string{""}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty pattern = %v", err)
	}

	targets, err := db.ListRLITargets()
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("targets = %+v", targets)
	}
	byURL := map[string]wire.RLITarget{}
	for _, tg := range targets {
		byURL[tg.URL] = tg
	}
	if !byURL["rls://rli1"].Bloom {
		t.Fatal("bloom flag lost")
	}
	if len(byURL["rls://rli2"].Patterns) != 2 {
		t.Fatalf("patterns = %v", byURL["rls://rli2"].Patterns)
	}

	if err := db.RemoveRLITarget("rls://rli2"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveRLITarget("rls://rli2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second remove = %v", err)
	}
	targets, _ = db.ListRLITargets()
	if len(targets) != 1 {
		t.Fatalf("targets after remove = %+v", targets)
	}
}

func TestListAttributeDefs(t *testing.T) {
	db := newTestLRC(t)
	db.DefineAttribute("size", wire.ObjTarget, wire.AttrInt)
	db.DefineAttribute("checksum", wire.ObjTarget, wire.AttrString)
	db.DefineAttribute("project", wire.ObjLogical, wire.AttrString)

	defs, err := db.ListAttributeDefs(wire.ObjTarget)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 {
		t.Fatalf("target defs = %+v", defs)
	}
	if defs[0].Name != "checksum" || defs[1].Name != "size" {
		t.Fatalf("defs not sorted by name: %+v", defs)
	}
	if defs[1].Type != wire.AttrInt {
		t.Fatalf("size type = %v", defs[1].Type)
	}

	all, err := db.ListAttributeDefs(0)
	if err != nil || len(all) != 3 {
		t.Fatalf("all defs = %+v, %v", all, err)
	}
	if _, err := db.ListAttributeDefs(wire.ObjType(99)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad obj type = %v", err)
	}
}

// TestConcurrentCreateDeleteReconciles races creates and deletes — single
// and bulk — on a small set of overlapping names from many goroutines, so
// that group-commit batches mix the two and hold failing items, then
// reconciles the catalog against the reported outcomes: every name present
// exactly when its successful creates outnumber its successful deletes, and
// Counts equal to the sum. A concurrent reader checks that every snapshot
// is consistent (one target and one mapping per registered name).
func TestConcurrentCreateDeleteReconciles(t *testing.T) {
	db := newTestLRC(t)
	const (
		names   = 24
		workers = 8
		ops     = 150
	)
	mapping := func(n int) wire.Mapping {
		return wire.Mapping{Logical: fmt.Sprintf("lfn://n%02d", n), Target: fmt.Sprintf("pfn://n%02d", n)}
	}
	var net [names]atomic.Int64 // successful creates minus successful deletes
	record := func(ms []int, errs []error, delta int64, wantErr error) {
		for i, err := range errs {
			switch {
			case err == nil:
				net[ms[i]].Add(delta)
			case !errors.Is(err, wantErr):
				t.Errorf("mapping %d: unexpected error %v", ms[i], err)
			}
		}
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			logicals, targets, mappings, err := db.Counts()
			if err != nil || logicals != targets || logicals != mappings {
				t.Errorf("inconsistent snapshot: %d logicals, %d targets, %d mappings, %v", logicals, targets, mappings, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < ops; op++ {
				batch := []int{rng.Intn(names)}
				if rng.Intn(3) == 0 {
					for len(batch) < 4 {
						batch = append(batch, rng.Intn(names))
					}
				}
				ms := make([]wire.Mapping, len(batch))
				for i, n := range batch {
					ms[i] = mapping(n)
				}
				switch {
				case len(batch) == 1 && rng.Intn(2) == 0:
					record(batch, []error{db.CreateMapping(ms[0].Logical, ms[0].Target)}, 1, ErrExists)
				case len(batch) == 1:
					record(batch, []error{db.DeleteMapping(ms[0].Logical, ms[0].Target)}, -1, ErrNotFound)
				case rng.Intn(2) == 0:
					record(batch, db.BulkCreate(context.Background(), ms), 1, ErrExists)
				default:
					errs, unregistered := db.BulkDelete(context.Background(), ms)
					for i, err := range errs {
						if (err == nil) != unregistered[i] {
							t.Errorf("delete of %s: err %v but unregistered=%v", ms[i].Logical, err, unregistered[i])
						}
					}
					record(batch, errs, -1, ErrNotFound)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	var want int64
	for n := 0; n < names; n++ {
		c := net[n].Load()
		if c != 0 && c != 1 {
			t.Fatalf("name %d: %d net successful creates, want 0 or 1", n, c)
		}
		want += c
		got, err := db.GetTargets(mapping(n).Logical)
		switch {
		case c == 1 && (err != nil || len(got) != 1 || got[0] != mapping(n).Target):
			t.Fatalf("name %d registered by the outcomes but GetTargets = %v, %v", n, got, err)
		case c == 0 && !errors.Is(err, ErrNotFound):
			t.Fatalf("name %d unregistered by the outcomes but GetTargets = %v, %v", n, got, err)
		}
	}
	logicals, targets, mappings, err := db.Counts()
	if err != nil || logicals != want || targets != want || mappings != want {
		t.Fatalf("Counts = %d, %d, %d (%v), want %d each", logicals, targets, mappings, err, want)
	}
}
