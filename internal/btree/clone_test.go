package btree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// dump returns the tree's full contents as key->value for comparison.
func dump(t *Tree) map[string]any {
	out := make(map[string]any, t.Len())
	t.Ascend(func(k []byte, v any) bool {
		out[string(k)] = v
		return true
	})
	return out
}

func fill(t *Tree, n int, tag any) {
	for i := 0; i < n; i++ {
		t.Set([]byte(fmt.Sprintf("key-%06d", i)), tag)
	}
}

func TestCloneIsolatesWriterMutations(t *testing.T) {
	var tr Tree
	fill(&tr, 5000, "v0")
	snap := tr.Clone()
	before := dump(snap)

	// Heavy churn on the writer: overwrite, delete, insert fresh.
	for i := 0; i < 5000; i += 2 {
		tr.Set([]byte(fmt.Sprintf("key-%06d", i)), "v1")
	}
	for i := 1; i < 5000; i += 3 {
		tr.Delete([]byte(fmt.Sprintf("key-%06d", i)))
	}
	for i := 5000; i < 7000; i++ {
		tr.Set([]byte(fmt.Sprintf("key-%06d", i)), "new")
	}

	after := dump(snap)
	if len(after) != len(before) {
		t.Fatalf("clone changed size: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("clone key %s changed: %v -> %v", k, v, after[k])
		}
	}
	if snap.Len() != 5000 {
		t.Fatalf("clone Len = %d, want 5000", snap.Len())
	}
	snap.checkInvariants(t)
	tr.checkInvariants(t)
}

func TestCloneIsolatesCloneMutations(t *testing.T) {
	var tr Tree
	fill(&tr, 3000, "orig")
	snap := tr.Clone()

	// Mutate the clone; the original must be untouched.
	for i := 0; i < 3000; i += 2 {
		snap.Delete([]byte(fmt.Sprintf("key-%06d", i)))
	}
	for i := 3000; i < 4000; i++ {
		snap.Set([]byte(fmt.Sprintf("key-%06d", i)), "clone-only")
	}

	if tr.Len() != 3000 {
		t.Fatalf("original Len = %d, want 3000", tr.Len())
	}
	orig := dump(&tr)
	if len(orig) != 3000 {
		t.Fatalf("original dump has %d keys, want 3000", len(orig))
	}
	for k, v := range orig {
		if v != "orig" {
			t.Fatalf("original key %s changed to %v", k, v)
		}
	}
	snap.checkInvariants(t)
	tr.checkInvariants(t)
}

func TestCloneChain(t *testing.T) {
	// A chain of clones, each diverging, models the engine publishing one
	// version per commit with long-lived pinned snapshots.
	var tr Tree
	fill(&tr, 1000, 0)
	snaps := make([]*Tree, 0, 10)
	for g := 1; g <= 10; g++ {
		snaps = append(snaps, tr.Clone())
		for i := 0; i < 1000; i += g {
			tr.Set([]byte(fmt.Sprintf("key-%06d", i)), g)
		}
		tr.Delete([]byte(fmt.Sprintf("key-%06d", g)))
	}
	// Each snapshot must still read the value its generation froze.
	for g, snap := range snaps {
		want := g // snapshot g was taken before generation g+1 wrote
		got, ok := snap.Get([]byte("key-000000"))
		if !ok || got != want {
			t.Fatalf("snapshot %d: key-000000 = %v (%v), want %d", g, got, ok, want)
		}
		snap.checkInvariants(t)
	}
}

func TestCloneConcurrentReadersDuringWrites(t *testing.T) {
	// Readers iterate clones while the writer churns the original — the MVCC
	// access pattern. Run under -race this proves snapshot readers never
	// observe writer mutation.
	var tr Tree
	fill(&tr, 2000, "x")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		snap := tr.Clone()
		wantLen := snap.Len()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				snap.Ascend(func(_ []byte, _ any) bool { n++; return true })
				if n != wantLen {
					panic(fmt.Sprintf("snapshot saw %d keys, want %d", n, wantLen))
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("key-%06d", rng.Intn(4000)))
		if rng.Intn(3) == 0 {
			tr.Delete(k)
		} else {
			tr.Set(k, i)
		}
	}
	close(stop)
	wg.Wait()
	tr.checkInvariants(t)
}

// checkInvariants verifies B-tree structural invariants after COW surgery.
func (t *Tree) checkInvariants(tb testing.TB) {
	tb.Helper()
	if t.root == nil {
		if t.size != 0 {
			tb.Fatalf("nil root with size %d", t.size)
		}
		return
	}
	n := 0
	var prev []byte
	t.Ascend(func(k []byte, _ any) bool {
		if prev != nil && string(prev) >= string(k) {
			tb.Fatalf("out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != t.size {
		tb.Fatalf("iterated %d keys, size says %d", n, t.size)
	}
	var walk func(n *node, root bool) int
	walk = func(nd *node, root bool) int {
		if !root && (len(nd.items) < minItems || len(nd.items) > maxItems) {
			tb.Fatalf("node with %d items outside [%d,%d]", len(nd.items), minItems, maxItems)
		}
		if nd.leaf() {
			return 1
		}
		if len(nd.children) != len(nd.items)+1 {
			tb.Fatalf("node with %d items has %d children", len(nd.items), len(nd.children))
		}
		d := walk(nd.children[0], false)
		for _, c := range nd.children[1:] {
			if walk(c, false) != d {
				tb.Fatalf("uneven leaf depth")
			}
		}
		return d + 1
	}
	walk(t.root, true)
}

// cloneSink keeps the measured clones on the heap, as published ones are.
var cloneSink *Tree

// TestSetAfterCloneCopiesOnePath pins the copy-on-write cost of the first
// write after a Clone — the write every commit pays after a version
// publish: one node and one items slice per level, a children slice on every
// level above the leaves, and the key copy. Copies made without spare
// capacity fail it: the insert that follows reallocates the leaf's items.
func TestSetAfterCloneCopiesOnePath(t *testing.T) {
	var base Tree
	fill(&base, 25000, "v")
	key := []byte("key-012345x") // sorts between two existing keys
	for n := base.root; n != nil; {
		if len(n.items) == maxItems {
			t.Fatalf("full node on the path of %q: the insert would split", key)
		}
		if n.leaf() {
			break
		}
		i, _ := n.search(key)
		n = n.children[i]
	}
	val := any("new")
	cloneAllocs := testing.AllocsPerRun(100, func() { cloneSink = base.Clone() })
	got := testing.AllocsPerRun(100, func() {
		cloneSink = base.Clone()
		cloneSink.Set(key, val)
	})
	d := base.depth()
	budget := cloneAllocs + float64(3*(d-1)+2) + 1
	if got > budget {
		t.Fatalf("Clone+Set allocated %.0f times on a depth-%d tree, want at most %.0f", got, d, budget)
	}
}
