package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkInvariants walks the tree verifying B-tree structural invariants and
// key ordering, returning the total item count.
func checkInvariants(t *testing.T, tr *Tree) int {
	t.Helper()
	if tr.root == nil {
		return 0
	}
	var count int
	var prev []byte
	first := true
	leafDepth := -1
	var walk func(n *node, depth int, isRoot bool)
	walk = func(n *node, depth int, isRoot bool) {
		if !isRoot && (len(n.items) < minItems || len(n.items) > maxItems) {
			t.Fatalf("node at depth %d has %d items, want [%d,%d]", depth, len(n.items), minItems, maxItems)
		}
		if len(n.items) > maxItems {
			t.Fatalf("node exceeds maxItems: %d", len(n.items))
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at different depths: %d and %d", leafDepth, depth)
			}
			for _, it := range n.items {
				if !first && bytes.Compare(prev, it.key) >= 0 {
					t.Fatalf("keys out of order: %q then %q", prev, it.key)
				}
				prev, first = it.key, false
				count++
			}
			return
		}
		if len(n.children) != len(n.items)+1 {
			t.Fatalf("internal node has %d items but %d children", len(n.items), len(n.children))
		}
		for i, it := range n.items {
			walk(n.children[i], depth+1, false)
			if !first && bytes.Compare(prev, it.key) >= 0 {
				t.Fatalf("keys out of order at internal node: %q then %q", prev, it.key)
			}
			prev, first = it.key, false
			count++
		}
		walk(n.children[len(n.items)], depth+1, false)
	}
	walk(tr.root, 0, true)
	if count != tr.size {
		t.Fatalf("counted %d items, tree.Len() = %d", count, tr.size)
	}
	return count
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, ok := tr.Delete([]byte("x")); ok {
		t.Fatal("Delete on empty tree returned ok")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree returned ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree returned ok")
	}
	tr.Ascend(func([]byte, any) bool { t.Fatal("Ascend visited item in empty tree"); return true })
}

func TestSetGetSingle(t *testing.T) {
	var tr Tree
	if _, replaced := tr.Set([]byte("k"), 42); replaced {
		t.Fatal("first Set reported replaced")
	}
	v, ok := tr.Get([]byte("k"))
	if !ok || v.(int) != 42 {
		t.Fatalf("Get = %v, %v; want 42, true", v, ok)
	}
}

func TestSetReplacesValue(t *testing.T) {
	var tr Tree
	tr.Set([]byte("k"), 1)
	prev, replaced := tr.Set([]byte("k"), 2)
	if !replaced || prev.(int) != 1 {
		t.Fatalf("Set replace = %v, %v; want 1, true", prev, replaced)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d after replace, want 1", tr.Len())
	}
	if v, _ := tr.Get([]byte("k")); v.(int) != 2 {
		t.Fatalf("Get = %v, want 2", v)
	}
}

func TestInsertManyAscendingKeepsInvariants(t *testing.T) {
	var tr Tree
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Set([]byte(fmt.Sprintf("key-%08d", i)), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len() = %d, want %d", tr.Len(), n)
	}
	checkInvariants(t, &tr)
	for i := 0; i < n; i += 97 {
		v, ok := tr.Get([]byte(fmt.Sprintf("key-%08d", i)))
		if !ok || v.(int) != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
}

func TestInsertManyRandomThenDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Tree
	const n = 5000
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Set([]byte(fmt.Sprintf("key-%08d", i)), i)
	}
	checkInvariants(t, &tr)
	perm = rng.Perm(n)
	for step, i := range perm {
		v, ok := tr.Delete([]byte(fmt.Sprintf("key-%08d", i)))
		if !ok || v.(int) != i {
			t.Fatalf("Delete(%d) = %v, %v", i, v, ok)
		}
		if step%500 == 0 {
			checkInvariants(t, &tr)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d after deleting all, want 0", tr.Len())
	}
	if tr.root != nil {
		t.Fatal("root not nil after deleting all")
	}
}

func TestDeleteMissingKey(t *testing.T) {
	var tr Tree
	for i := 0; i < 100; i++ {
		tr.Set([]byte(fmt.Sprintf("k%03d", i)), i)
	}
	if _, ok := tr.Delete([]byte("absent")); ok {
		t.Fatal("Delete(absent) returned ok")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", tr.Len())
	}
}

func TestAscendVisitsInOrder(t *testing.T) {
	var tr Tree
	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for i, k := range keys {
		tr.Set([]byte(k), i)
	}
	var got []string
	tr.Ascend(func(k []byte, _ any) bool {
		got = append(got, string(k))
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("visited %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	var tr Tree
	for i := 0; i < 1000; i++ {
		tr.Set([]byte(fmt.Sprintf("%04d", i)), i)
	}
	count := 0
	tr.Ascend(func([]byte, any) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d items after early stop, want 10", count)
	}
}

func TestAscendRange(t *testing.T) {
	var tr Tree
	for i := 0; i < 100; i++ {
		tr.Set([]byte(fmt.Sprintf("%04d", i)), i)
	}
	var got []int
	tr.AscendRange([]byte("0010"), []byte("0020"), func(_ []byte, v any) bool {
		got = append(got, v.(int))
		return true
	})
	if len(got) != 10 {
		t.Fatalf("range [0010,0020) visited %d items, want 10: %v", len(got), got)
	}
	for i, v := range got {
		if v != 10+i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 10+i)
		}
	}
}

func TestAscendRangeNilBounds(t *testing.T) {
	var tr Tree
	for i := 0; i < 50; i++ {
		tr.Set([]byte(fmt.Sprintf("%04d", i)), i)
	}
	count := 0
	tr.AscendRange(nil, nil, func([]byte, any) bool { count++; return true })
	if count != 50 {
		t.Fatalf("unbounded range visited %d, want 50", count)
	}
	count = 0
	tr.AscendRange([]byte("0040"), nil, func([]byte, any) bool { count++; return true })
	if count != 10 {
		t.Fatalf("lo-only range visited %d, want 10", count)
	}
	count = 0
	tr.AscendRange(nil, []byte("0010"), func([]byte, any) bool { count++; return true })
	if count != 10 {
		t.Fatalf("hi-only range visited %d, want 10", count)
	}
}

func TestAscendPrefix(t *testing.T) {
	var tr Tree
	tr.Set([]byte("lfn-1"), 1)
	tr.Set([]byte("lfn-10"), 10)
	tr.Set([]byte("lfn-100"), 100)
	tr.Set([]byte("lfn-2"), 2)
	tr.Set([]byte("pfn-1"), -1)
	var got []string
	tr.AscendPrefix([]byte("lfn-1"), func(k []byte, _ any) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"lfn-1", "lfn-10", "lfn-100"}
	if len(got) != len(want) {
		t.Fatalf("prefix scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAscendPrefixEmptyIsFullScan(t *testing.T) {
	var tr Tree
	for i := 0; i < 20; i++ {
		tr.Set([]byte(fmt.Sprintf("%02d", i)), i)
	}
	count := 0
	tr.AscendPrefix(nil, func([]byte, any) bool { count++; return true })
	if count != 20 {
		t.Fatalf("empty prefix visited %d, want 20", count)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0x00}, []byte{0x01}},
	}
	for _, c := range cases {
		got := PrefixEnd(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("PrefixEnd(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	var tr Tree
	for _, k := range []string{"m", "a", "z", "q"} {
		tr.Set([]byte(k), k)
	}
	if k, _, ok := tr.Min(); !ok || string(k) != "a" {
		t.Fatalf("Min = %q, %v; want a", k, ok)
	}
	if k, _, ok := tr.Max(); !ok || string(k) != "z" {
		t.Fatalf("Max = %q, %v; want z", k, ok)
	}
}

func TestKeysAreCopiedOnInsert(t *testing.T) {
	var tr Tree
	k := []byte("mutable")
	tr.Set(k, 1)
	k[0] = 'X'
	if _, ok := tr.Get([]byte("mutable")); !ok {
		t.Fatal("mutating caller's key slice corrupted the tree")
	}
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	var tr Tree
	for i := 0; i < 100000; i++ {
		tr.Set([]byte(fmt.Sprintf("%08d", i)), nil)
	}
	if d := tr.depth(); d > 5 {
		t.Fatalf("depth = %d for 100k items with degree %d, want <= 5", d, degree)
	}
}

// TestQuickAgainstMap drives random operation sequences and compares the
// tree against a reference map, then checks structural invariants.
func TestQuickAgainstMap(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tree
		ref := map[string]int{}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("k%03d", rng.Intn(300))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int()
				_, replaced := tr.Set([]byte(k), v)
				_, existed := ref[k]
				if replaced != existed {
					t.Errorf("seed %d: Set(%q) replaced=%v, want %v", seed, k, replaced, existed)
					return false
				}
				ref[k] = v
			case 2:
				_, ok := tr.Delete([]byte(k))
				_, existed := ref[k]
				if ok != existed {
					t.Errorf("seed %d: Delete(%q) ok=%v, want %v", seed, k, ok, existed)
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			t.Errorf("seed %d: Len=%d, ref=%d", seed, tr.Len(), len(ref))
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get([]byte(k))
			if !ok || got.(int) != v {
				t.Errorf("seed %d: Get(%q) = %v, %v; want %v", seed, k, got, ok, v)
				return false
			}
		}
		checkInvariants(t, &tr)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAscendMatchesSortedKeys verifies that iteration always yields the
// sorted key set for random inputs.
func TestQuickAscendMatchesSortedKeys(t *testing.T) {
	check := func(keys [][]byte) bool {
		var tr Tree
		ref := map[string]bool{}
		for _, k := range keys {
			tr.Set(k, nil)
			ref[string(k)] = true
		}
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.Ascend(func(k []byte, _ any) bool {
			got = append(got, string(k))
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNoStaleSlotsPastLen checks that shrinking a node never leaves items or
// child pointers in its backing array past len. A tree that is never cloned
// owns its nodes for their whole life, so a stale slot would keep a deleted
// value — and the row or subtree behind it — reachable indefinitely.
func TestNoStaleSlotsPastLen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tr Tree
	live := map[int]bool{}
	for op := 0; op < 20000; op++ {
		k := rng.Intn(4000)
		key := []byte(fmt.Sprintf("key-%06d", k))
		if rng.Intn(3) == 0 && len(live) > 0 {
			tr.Delete(key)
			delete(live, k)
		} else {
			tr.Set(key, op)
			live[k] = true
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	checkInvariants(t, &tr)
	var walk func(n *node)
	walk = func(n *node) {
		for i, it := range n.items[len(n.items):cap(n.items)] {
			if it.key != nil || it.value != nil {
				t.Fatalf("items[%d] past len %d holds %q", len(n.items)+i, len(n.items), it.key)
			}
		}
		for i, c := range n.children[len(n.children):cap(n.children)] {
			if c != nil {
				t.Fatalf("children[%d] past len %d is set", len(n.children)+i, len(n.children))
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
}

func BenchmarkSet(b *testing.B) {
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%012d", i*2654435761%1000000007))
	}
	b.ResetTimer()
	var tr Tree
	for i := 0; i < b.N; i++ {
		tr.Set(keys[i], i)
	}
}

func BenchmarkGet(b *testing.B) {
	var tr Tree
	const n = 1 << 20
	for i := 0; i < n; i++ {
		tr.Set([]byte(fmt.Sprintf("key-%012d", i)), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("key-%012d", i&(n-1))))
	}
}
