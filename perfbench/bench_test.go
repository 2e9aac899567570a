package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/rdb"
	"repro/internal/wire"
)

// TestQuantileMatchesExactSort checks the nearest-rank estimator against
// its definition on sorted data: at least q·n samples lie at or below the
// answer and fewer than q·n strictly below it.
func TestQuantileMatchesExactSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1000, 1001, 4096, 50_000} {
		samples := make([]int64, n)
		for i := range samples {
			samples[i] = r.Int63n(1_000_000) // duplicates are likely
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			l, err := percentile(append([]int64(nil), samples...), q)
			if err != nil {
				t.Fatalf("n=%d q=%g: %v", n, q, err)
			}
			v := int64(l.v)
			atOrBelow, below := 0, 0
			for _, s := range samples {
				if s <= v {
					atOrBelow++
				}
				if s < v {
					below++
				}
			}
			need := q * float64(n)
			if float64(atOrBelow) < need || float64(below) >= need {
				t.Errorf("n=%d q=%g: v=%d has %d at or below, %d below; need >= %.1f and < %.1f", n, q, v, atOrBelow, below, need, need)
			}
			if l.n != n || l.tail != n-int(math.Ceil(q*float64(n))) {
				t.Errorf("n=%d q=%g: reported n=%d tail=%d", n, q, l.n, l.tail)
			}
		}
	}
}

// TestQuantileRefusesThinTails: a percentile needs minTail samples beyond
// its rank.
func TestQuantileRefusesThinTails(t *testing.T) {
	sorted := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	if _, _, err := quantile(sorted(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was not refused")
	}
	if v, tail, err := quantile(sorted(1000), 0.99); err != nil || tail != 10 || v != 989 {
		t.Errorf("p99 of 1000 samples = %d, tail %d, %v; want 989, 10, nil", v, tail, err)
	}
	if _, _, err := quantile(nil, 0.5); err == nil {
		t.Error("p50 of no samples was not refused")
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	if got := (ratio{3, 4}).value(); got != 0.75 {
		t.Errorf("3/4 = %g", got)
	}
	if got := (ratio{3, 0}).value(); got != 0 {
		t.Errorf("3/0 = %g, want 0", got)
	}
	if s := (ratio{3, 0}).String(); !strings.Contains(s, "base 0") {
		t.Errorf("zero-base ratio prints %q", s)
	}
	if s := (ratio{3, 4}).String(); s != "3 / 4" {
		t.Errorf("ratio prints %q", s)
	}
}

// TestDigestFollowsSeed: the same seed gives the same operation sequence,
// another seed a different one, for every workload.
func TestDigestFollowsSeed(t *testing.T) {
	for _, wl := range workloads {
		a := opDigest(wl, newCatalog(2000), 1, 4)
		b := opDigest(wl, newCatalog(2000), 1, 4)
		c := opDigest(wl, newCatalog(2000), 2, 4)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %x and %x", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", wl, a)
		}
	}
}

// TestChurnDeletesOwnCreations: a churn stream only deletes names it
// created and has not deleted yet, so no delete can miss.
func TestChurnDeletesOwnCreations(t *testing.T) {
	s := newStream(mixChurn, newCatalog(100), 1, streamWindowed)
	live := map[string]bool{}
	kinds := map[opKind]int{}
	for i := 0; i < 10_000; i++ {
		o := s.next()
		kinds[o.kind]++
		switch o.kind {
		case opCreate:
			if live[o.logical] {
				t.Fatalf("op %d creates %s twice", i, o.logical)
			}
			live[o.logical] = true
		case opDelete:
			if !live[o.logical] {
				t.Fatalf("op %d deletes %s, which is not live", i, o.logical)
			}
			delete(live, o.logical)
		}
	}
	if kinds[opGet] < 1800 || kinds[opGet] > 2200 || kinds[opCreate] < kinds[opDelete] {
		t.Errorf("mix = %v, want ~20%% gets and no more deletes than creates", kinds)
	}
}

const (
	shard0 = "rls://lrc0"
	shard1 = "rls://lrc1"
)

// testOracle has two shards: names ending in an even digit belong to
// shard 0, which the RLI holds in its database; shard 1 arrives as a Bloom
// filter.
func testOracle() (*oracle, *catalog) {
	owner := func(name string) int { return int(name[len(name)-1]-'0') % 2 }
	cat := newCatalog(10)
	return newOracle(cat, []string{shard0, shard1}, owner,
		map[string]bool{shard1: true}, map[string]bool{shard0: true}), cat
}

func TestOracleGetTargets(t *testing.T) {
	o, cat := testOracle()
	q := op{kind: opGet, logical: cat.logical[3], target: cat.target[3]}
	if err := o.checkGet(q, []string{q.target}, nil); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	for _, bad := range [][]string{nil, {"gsiftp://elsewhere/x"}, {q.target, q.target}} {
		if o.checkGet(q, bad, nil) == nil {
			t.Errorf("answer %q accepted", bad)
		}
	}
	if o.checkGet(q, nil, errors.New("boom")) == nil {
		t.Error("failed call accepted")
	}
	if o.err() == nil {
		t.Error("oracle did not keep the first wrong answer")
	}
}

func TestOracleRLIAnswers(t *testing.T) {
	o, cat := testOracle()
	hit0 := op{kind: opRLI, logical: cat.logical[2]} // shard 0
	hit1 := op{kind: opRLI, logical: cat.logical[5]} // shard 1
	miss := op{kind: opRLI, logical: "lfn://miss/x", miss: true}
	notFound := &client.StatusError{Status: wire.StatusNotFound}
	cases := []struct {
		name string
		q    op
		got  []string
		err  error
		ok   bool
	}{
		{"owner", hit0, []string{shard0}, nil, true},
		{"owner plus Bloom false positive", hit0, []string{shard0, shard1}, nil, true},
		{"Bloom-sourced owner", hit1, []string{shard1}, nil, true},
		{"wrong shard", hit1, []string{shard0}, nil, false},
		{"hit not found", hit0, nil, notFound, false},
		{"miss not found over the wire", miss, nil, notFound, true},
		{"miss not found in-process", miss, nil, fmt.Errorf("%w: x", rdb.ErrNotFound), true},
		{"miss Bloom false positive", miss, []string{shard1}, nil, true},
		{"miss named by a database shard", miss, []string{shard0}, nil, false},
		{"transport error", hit0, nil, errors.New("pipe closed"), false},
	}
	for _, c := range cases {
		if err := o.checkRLI(c.q, c.got, c.err); (err == nil) != c.ok {
			t.Errorf("%s: checkRLI(%q, %v) = %v, want ok=%v", c.name, c.got, c.err, err, c.ok)
		}
	}
	if got := o.missPositives.Load(); got != 1 {
		t.Errorf("counted %d miss false positives, want 1", got)
	}
	// The database holds only shard 0's names.
	if err := o.checkRLIDB(hit0, []string{shard0}, nil); err != nil {
		t.Errorf("database hit rejected: %v", err)
	}
	if err := o.checkRLIDB(hit1, nil, rdb.ErrNotFound); err != nil {
		t.Errorf("Bloom-sourced name not-found in the database rejected: %v", err)
	}
	if o.checkRLIDB(hit1, []string{shard1}, nil) == nil {
		t.Error("database answer for a Bloom-sourced name accepted")
	}
}

func TestOracleReconcile(t *testing.T) {
	o, cat := testOracle()
	create := op{kind: opCreate, logical: "lfn://fresh/4"} // shard 0
	remove := op{kind: opDelete, logical: "lfn://fresh/4"}
	for _, q := range []op{create, create, remove} {
		if err := o.checkWrite(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if o.checkWrite(create, errors.New("exists")) == nil {
		t.Error("failed create accepted")
	}
	want := []int64{o.preload[0] + 1, o.preload[1]}
	counts := func(got []int64) func(int) (int64, int64, error) {
		return func(i int) (int64, int64, error) { return got[i], got[i], nil }
	}
	if err := o.reconcile(counts(want)); err != nil {
		t.Errorf("matching counts rejected: %v", err)
	}
	if o.reconcile(counts([]int64{want[0] + 1, want[1]})) == nil {
		t.Error("an extra name on shard 0 went unnoticed")
	}
	sum := int64(0)
	for _, n := range o.preload {
		sum += n
	}
	if sum != int64(cat.size()) {
		t.Errorf("preload counts %v do not cover the catalog of %d", o.preload, cat.size())
	}
}

// TestCompareRefusesDifferentParameters: two run records compare only
// when every parameter matches.
func TestCompareRefusesDifferentParameters(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec *record) string {
		path := dir + "/" + name
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := newRecord(wlQuery, 1, 10, false, dir)
	base.Result.Metrics = map[string]metricValue{"ops_per_s": {Value: 100, Unit: "ops/s"}}
	same := *base
	same.GitRev = "other"
	other := *base
	other.Params.Window = 16
	a, b, c := write("a.json", base), write("b.json", &same), write("c.json", &other)
	var out strings.Builder
	if code := compareRecords([]string{a, b}, &out); code != 0 {
		t.Errorf("same parameters: exit %d", code)
	}
	if !strings.Contains(out.String(), "ops_per_s") {
		t.Errorf("comparison printed %q", out.String())
	}
	if code := compareRecords([]string{a, c}, &out); code != 2 {
		t.Errorf("different W: exit %d, want 2", code)
	}
	if diffs := paramDiffs(base.Params, other.Params); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "window:") {
		t.Errorf("paramDiffs = %q", diffs)
	}
}
