// Package btree implements an in-memory B-tree keyed by byte strings.
//
// The storage engine uses it for every ordered (secondary) index and, since
// the MVCC refactor, for table heaps: equality lookups, prefix scans for
// wildcard queries, and full ordered scans for soft-state update
// enumeration. Keys are compared with bytes.Compare, so any order-preserving
// encoding of column values works as a key.
//
// Trees support copy-on-write structural sharing: Clone returns an O(1)
// snapshot of the tree, and subsequent mutations of either tree copy only
// the node path they touch, leaving the other tree untouched. This is what
// lets the storage engine publish an immutable tree per committed
// transaction at path-copy cost instead of a full rebuild.
//
// A single tree is not safe for concurrent mutation; the storage engine
// guards mutable trees with its table latches. Read-only operations may run
// concurrently with each other, and — the property MVCC snapshots build on —
// readers of a clone never race writers of the tree it was cloned from.
package btree

import "bytes"

// degree is the minimum number of children of an internal node. Nodes hold
// between degree-1 and 2*degree-1 items. 32 keeps nodes around two cache
// lines of key headers while staying shallow for multi-million-entry tables.
const degree = 32

const (
	minItems = degree - 1
	maxItems = 2*degree - 1
)

type item struct {
	key   []byte
	value any
}

// cowToken identifies the tree that created a node. A node whose token
// differs from the mutating tree's token may be shared with a clone and is
// copied before mutation (see mutableFor). Tokens are compared by pointer
// identity only.
type cowToken struct{ _ byte }

type node struct {
	cow      *cowToken
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// mutableFor returns a node owned by the given token that the caller may
// mutate: n itself when already owned, otherwise a copy with fresh item and
// child slices (the shared original stays frozen for clones). The copies get
// one slot of spare capacity: a copy is made because a mutation follows, and
// an insert — the common one — would otherwise reallocate the slice at once.
func (n *node) mutableFor(c *cowToken) *node {
	if n.cow == c {
		return n
	}
	out := &node{cow: c, items: append(make([]item, 0, len(n.items)+1), n.items...)}
	if len(n.children) > 0 {
		out.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	return out
}

// mutableChild makes children[i] mutable under token c, installing and
// returning the owned node. n itself must already be owned by c.
func (n *node) mutableChild(i int, c *cowToken) *node {
	child := n.children[i].mutableFor(c)
	n.children[i] = child
	return child
}

// search returns the index of the first item with key >= k and whether the
// key at that index equals k.
func (n *node) search(k []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.items[mid].key, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && bytes.Equal(n.items[lo].key, k) {
		return lo, true
	}
	return lo, false
}

// Tree is a B-tree map from []byte keys to arbitrary values.
// The zero value is an empty tree ready for use.
type Tree struct {
	root *node
	size int
	cow  *cowToken
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// Clone returns a snapshot of the tree in O(1): both trees share every node
// and lazily copy the path a mutation touches, so writes to one are never
// visible to the other. Readers of either tree are safe against concurrent
// mutation of the other; each individual tree still requires external
// synchronization between its own readers and writers.
func (t *Tree) Clone() *Tree {
	out := &Tree{root: t.root, size: t.size, cow: &cowToken{}}
	// The receiver also gets a fresh token: every currently shared node now
	// belongs to neither tree, forcing both sides to copy before mutating.
	t.cow = &cowToken{}
	return out
}

// ensureCow lazily allocates the ownership token of a zero-value tree.
func (t *Tree) ensureCow() {
	if t.cow == nil {
		t.cow = &cowToken{}
	}
}

// Get returns the value stored under key, or (nil, false) if absent.
func (t *Tree) Get(key []byte) (any, bool) {
	n := t.root
	for n != nil {
		i, ok := n.search(key)
		if ok {
			return n.items[i].value, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
	return nil, false
}

// Set stores value under key, replacing any existing value. It returns the
// previous value and whether one was present.
func (t *Tree) Set(key []byte, value any) (prev any, replaced bool) {
	t.ensureCow()
	if t.root == nil {
		t.root = &node{cow: t.cow, items: []item{{key: append([]byte(nil), key...), value: value}}}
		t.size = 1
		return nil, false
	}
	t.root = t.root.mutableFor(t.cow)
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node{cow: t.cow, children: []*node{old}}
		t.root.splitChild(0, t.cow)
	}
	prev, replaced = t.root.insert(key, value, t.cow)
	if !replaced {
		t.size++
	}
	return prev, replaced
}

// splitChild splits the full child at index i, promoting its median item.
// n must be owned by c; the child is made mutable first.
func (n *node) splitChild(i int, c *cowToken) {
	child := n.mutableChild(i, c)
	mid := maxItems / 2
	median := child.items[mid]

	// The right half is sized like a mutableFor copy: the insert that caused
	// the split may land in it.
	rightItems := child.items[mid+1:]
	right := &node{cow: c, items: append(make([]item, 0, len(rightItems)+1), rightItems...)}
	if !child.leaf() {
		rightChildren := child.children[mid+1:]
		right.children = append(make([]*node, 0, len(rightChildren)+1), rightChildren...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]

	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert descends from an owned node, making each visited child mutable.
func (n *node) insert(key []byte, value any, c *cowToken) (prev any, replaced bool) {
	i, ok := n.search(key)
	if ok {
		prev = n.items[i].value
		n.items[i].value = value
		return prev, true
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: append([]byte(nil), key...), value: value}
		return nil, false
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i, c)
		switch cmp := bytes.Compare(key, n.items[i].key); {
		case cmp == 0:
			prev = n.items[i].value
			n.items[i].value = value
			return prev, true
		case cmp > 0:
			i++
		}
	}
	return n.mutableChild(i, c).insert(key, value, c)
}

// Delete removes key from the tree. It returns the removed value and whether
// the key was present.
func (t *Tree) Delete(key []byte) (any, bool) {
	if t.root == nil {
		return nil, false
	}
	t.ensureCow()
	t.root = t.root.mutableFor(t.cow)
	v, ok := t.root.remove(key, t.cow)
	if ok {
		t.size--
	}
	if len(t.root.items) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	return v, ok
}

// remove operates on an owned node, making every child it descends into or
// rebalances mutable first.
func (n *node) remove(key []byte, c *cowToken) (any, bool) {
	i, ok := n.search(key)
	if n.leaf() {
		if !ok {
			return nil, false
		}
		v := n.items[i].value
		n.items = append(n.items[:i], n.items[i+1:]...)
		return v, true
	}
	if ok {
		// Replace with predecessor from the left subtree, then remove it.
		v := n.items[i].value
		n.ensureChild(i, c)
		// ensureChild may have shifted our items; re-search.
		j, stillHere := n.search(key)
		if !stillHere {
			// Key moved into a child during rebalancing.
			_, _ = n.mutableChild(j, c).remove(key, c)
			return v, true
		}
		pred := n.children[j].max()
		n.items[j] = pred
		_, _ = n.mutableChild(j, c).remove(pred.key, c)
		return v, true
	}
	n.ensureChild(i, c)
	j, stillHere := n.search(key)
	if stillHere {
		// Rebalancing pulled the key up into this node.
		v := n.items[j].value
		pred := n.children[j].max()
		n.items[j] = pred
		_, _ = n.mutableChild(j, c).remove(pred.key, c)
		return v, true
	}
	return n.mutableChild(j, c).remove(key, c)
}

// ensureChild guarantees children[i] has more than minItems items before the
// removal descends into it, borrowing from a sibling or merging. Every node
// it mutates — the child and whichever sibling donates — is made mutable; a
// merged-away sibling is only read, never written.
func (n *node) ensureChild(i int, c *cowToken) {
	if len(n.children[i].items) > minItems {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) > minItems:
		// Borrow from the left sibling through the separator.
		child, left := n.mutableChild(i, c), n.mutableChild(i-1, c)
		child.items = append(child.items, item{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) > minItems:
		// Borrow from the right sibling through the separator.
		child, right := n.mutableChild(i, c), n.mutableChild(i+1, c)
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
	default:
		// Merge with a sibling. The right node is discarded, so only the
		// surviving child needs to be mutable; the right's items and child
		// pointers are copied by the appends.
		if i == len(n.children)-1 {
			i--
		}
		child, right := n.mutableChild(i, c), n.children[i+1]
		child.items = append(child.items, n.items[i])
		child.items = append(child.items, right.items...)
		child.children = append(child.children, right.children...)
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
	}
}

func (n *node) max() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Ascend calls fn for every key/value pair in ascending key order until fn
// returns false.
func (t *Tree) Ascend(fn func(key []byte, value any) bool) {
	if t.root != nil {
		t.root.ascend(nil, nil, fn)
	}
}

// AscendRange calls fn for pairs with lo <= key < hi in ascending order. A
// nil lo means the smallest key; a nil hi means no upper bound.
func (t *Tree) AscendRange(lo, hi []byte, fn func(key []byte, value any) bool) {
	if t.root != nil {
		t.root.ascend(lo, hi, fn)
	}
}

func (n *node) ascend(lo, hi []byte, fn func([]byte, any) bool) bool {
	i := 0
	if lo != nil {
		i, _ = n.search(lo)
	}
	for ; i < len(n.items); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(lo, hi, fn) {
				return false
			}
		}
		it := n.items[i]
		if lo != nil && bytes.Compare(it.key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(it.key, hi) >= 0 {
			return false
		}
		if !fn(it.key, it.value) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.items)].ascend(lo, hi, fn)
	}
	return true
}

// AscendPrefix calls fn for every pair whose key begins with prefix, in
// ascending order.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key []byte, value any) bool) {
	if len(prefix) == 0 {
		t.Ascend(fn)
		return
	}
	t.AscendRange(prefix, PrefixEnd(prefix), fn)
}

// PrefixEnd returns the smallest key greater than every key having the given
// prefix, or nil if no such key exists (prefix is all 0xFF).
func PrefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// Min returns the smallest key and its value, or ok=false on an empty tree.
func (t *Tree) Min() (key []byte, value any, ok bool) {
	n := t.root
	if n == nil {
		return nil, nil, false
	}
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0].key, n.items[0].value, true
}

// Max returns the largest key and its value, or ok=false on an empty tree.
func (t *Tree) Max() (key []byte, value any, ok bool) {
	if t.root == nil {
		return nil, nil, false
	}
	it := t.root.max()
	return it.key, it.value, true
}

// depth returns the height of the tree (0 for empty); used by invariant
// checks in tests.
func (t *Tree) depth() int {
	d := 0
	for n := t.root; n != nil; {
		d++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return d
}
