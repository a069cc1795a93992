// Package btree implements a B+-tree keyed by byte strings with
// order-preserving key encoding helpers. The relational engine uses it for
// primary-key and secondary indexes.
//
// The tree lives in memory, but its leaves are page-shaped: a leaf splits
// when its encoded entries outgrow one page slot, Flush writes the leaves
// changed since the previous Flush to one CRC-sealed page each through a
// pager.BufferPool, and Attach rebuilds a tree over such pages from a fence
// list (first key and page of every leaf) without reading them — the nodes
// are built on first use and a leaf's entries read on first touch
// (paged.go). A tree that is never flushed
// needs no pool and does no I/O.
//
// dslint:errdomain
// dslint:vfsonly
package btree

import (
	"bytes"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dataspread/dataspread/internal/storage/pager"
)

// degree is the maximum number of keys per inner node. Leaves are bounded by
// encoded bytes instead (leafBudget).
const degree = 64

// Tree is a B+-tree mapping byte-string keys to uint64 values (typically row
// ids). Keys are unique: inserting an existing key replaces its value.
//
// Mutations (Set, Delete, Flush) need exclusive access. Reads (Get, the
// range iterators, Leaves, Len) may run concurrently with each other: the
// only state a read changes is a leaf's first-touch load, which is
// serialised inside the tree. The database layer maps the two onto the
// write and read side of its engine lock.
type Tree struct {
	root *node
	size int

	// pool serves first-touch leaf loads of an attached tree; faultMu
	// serialises them, so readers sharing the engine read lock that hit the
	// same unloaded leaf decode it once.
	pool    *pager.BufferPool
	faultMu sync.Mutex

	// An attached tree keeps its fence list and builds its nodes on first
	// use (spine); unbuilt tells Leaves whether root exists yet.
	fences  []Fence
	build   sync.Once
	unbuilt atomic.Bool
}

type node struct {
	leaf     bool
	keys     [][]byte
	vals     []uint64 // leaf only, parallel to keys
	children []*node  // internal only, len = len(keys)+1
	next     *node    // leaf chain for range scans

	// Paged-leaf state (leaves only; see paged.go).
	page  pager.PageID // logical pool page of the last flushed image; 0 = never flushed
	bytes int          // encoded size of the entries
	dirty bool         // changed since the last Flush
	// unloaded marks a leaf attached from a fence list whose keys and vals
	// have not been read from page yet; fence is its first key. Set only by
	// Attach, cleared only by fault, which publishes keys/vals with it.
	unloaded atomic.Bool
	fence    []byte
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.size }

// seek descends to the leaf whose key range covers key (the leftmost leaf
// for a nil key) and loads it.
func (t *Tree) seek(key []byte) (*node, error) {
	n := t.spine()
	for !n.leaf {
		if key == nil {
			n = n.children[0]
		} else {
			n = n.children[n.childIndex(key)]
		}
	}
	return n, t.load(n)
}

// Get returns the value for key and whether it exists.
func (t *Tree) Get(key []byte) (uint64, bool, error) {
	n, err := t.seek(key)
	if err != nil {
		return 0, false, err
	}
	i, ok := n.find(key)
	if !ok {
		return 0, false, nil
	}
	return n.vals[i], true, nil
}

// Set inserts or replaces the value for key. On error the tree is unchanged.
func (t *Tree) Set(key []byte, val uint64) error {
	k := make([]byte, len(key))
	copy(k, key)
	grew, err := t.insert(t.spine(), k, val)
	if err != nil {
		return err
	}
	if grew != nil {
		// Root split: grow the tree by one level.
		t.root = &node{
			keys:     [][]byte{grew.key},
			children: []*node{t.root, grew.right},
		}
	}
	return nil
}

// Delete removes key and reports whether it was present. Nodes are allowed
// to underflow (no rebalancing on delete); a leaf emptied this way stays
// linked until the next Flush drops it and releases its page.
func (t *Tree) Delete(key []byte) (bool, error) {
	n, err := t.seek(key)
	if err != nil {
		return false, err
	}
	i, ok := n.find(key)
	if !ok {
		return false, nil
	}
	n.bytes -= entrySize(n.keys[i], n.vals[i])
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.dirty = true
	t.size--
	return true, nil
}

// AscendRange calls fn for every key/value with lo <= key < hi in ascending
// key order, walking the leaf chain. A nil lo means "from the start"; a nil
// hi means "to the end". Iteration stops early if fn returns false. It is
// the access-path layer's range iterator: the executor turns sargable WHERE
// conjuncts into [lo, hi) bounds over the order-preserving key encoding.
// dslint:perrow
func (t *Tree) AscendRange(lo, hi []byte, fn func(key []byte, val uint64) bool) error {
	n, err := t.seek(lo)
	if err != nil {
		return err
	}
	start := 0
	if lo != nil {
		start = sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], lo) >= 0 })
	}
	for {
		for i := start; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return nil
			}
			if !fn(n.keys[i], n.vals[i]) {
				return nil
			}
		}
		n = n.next
		// An unloaded leaf starting at or past hi holds nothing in range:
		// stop without reading it.
		if n == nil || (hi != nil && n.unloaded.Load() && bytes.Compare(n.fence, hi) >= 0) {
			return nil
		}
		if err := t.load(n); err != nil {
			return err
		}
		start = 0
	}
}

// DescendRange calls fn for every key/value with lo <= key < hi in
// descending key order. The leaf chain only links forward, so descent
// recurses through the internal nodes right-to-left instead. Iteration
// stops early if fn returns false. The executor uses it to serve
// ORDER BY ... DESC LIMIT k from an index without sorting.
// dslint:perrow
func (t *Tree) DescendRange(lo, hi []byte, fn func(key []byte, val uint64) bool) error {
	_, err := t.descend(t.spine(), lo, hi, fn)
	return err
}

// descend visits n's keys in [lo, hi) in descending order. It returns false
// once iteration must stop — fn returned false, a key below lo was reached
// (every key the remaining traversal could visit is below lo as well), or a
// leaf failed to load.
func (t *Tree) descend(n *node, lo, hi []byte, fn func(key []byte, val uint64) bool) (bool, error) {
	if n.leaf {
		if err := t.load(n); err != nil {
			return false, err
		}
		end := len(n.keys)
		if hi != nil {
			end = sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], hi) >= 0 })
		}
		for i := end - 1; i >= 0; i-- {
			if lo != nil && bytes.Compare(n.keys[i], lo) < 0 {
				return false, nil
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false, nil
			}
		}
		return true, nil
	}
	// Children after childIndex(hi) hold only keys >= a separator >= hi.
	start := len(n.children) - 1
	if hi != nil {
		start = n.childIndex(hi)
	}
	for ci := start; ci >= 0; ci-- {
		// Child ci holds only keys below its right separator: at or below
		// lo it (and everything left of it) is out of range — stop without
		// touching its leaves.
		if lo != nil && ci < len(n.keys) && bytes.Compare(n.keys[ci], lo) <= 0 {
			return false, nil
		}
		if more, err := t.descend(n.children[ci], lo, hi, fn); !more {
			return false, err
		}
	}
	return true, nil
}

// PrefixEnd returns the smallest key that is strictly greater than every
// key beginning with p, or nil when no such key exists (p is all 0xFF).
// With the prefix-free value encodings of this package, [p, PrefixEnd(p))
// is exactly the set of keys whose leading components encode to p — the
// range an index scan probes for an equality prefix or an inclusive upper
// bound.
func PrefixEnd(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// split describes a node split propagating upward: key separates the original
// node from right.
type split struct {
	key   []byte
	right *node
}

func (t *Tree) insert(n *node, key []byte, val uint64) (*split, error) {
	if n.leaf {
		if err := t.load(n); err != nil {
			return nil, err
		}
		i, ok := n.find(key)
		if ok {
			if n.vals[i] != val {
				n.bytes += uvarintLen(val) - uvarintLen(n.vals[i])
				n.vals[i] = val
				n.dirty = true
			}
			return nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		n.bytes += entrySize(key, val)
		n.dirty = true
		t.size++
		return n.maybeSplitLeaf(i), nil
	}
	ci := n.childIndex(key)
	grew, err := t.insert(n.children[ci], key, val)
	if grew == nil {
		return nil, err
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = grew.key
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = grew.right
	return n.maybeSplitInternal(), nil
}

// maybeSplitLeaf splits a leaf whose entries no longer fit one page, at the
// byte midpoint — except that an append to the rightmost leaf (at is the
// index just inserted) splits off only the new entry, so an ascending load
// leaves full pages behind instead of half-empty ones. A single entry larger
// than a page stays alone in an oversized leaf; the pager spills it.
func (n *node) maybeSplitLeaf(at int) *split {
	if n.bytes <= leafBudget || len(n.keys) < 2 {
		return nil
	}
	mid := len(n.keys) - 1
	if n.next != nil || at != mid {
		mid = 1
		for left := entrySize(n.keys[0], n.vals[0]); mid < len(n.keys)-1 && left < n.bytes/2; mid++ {
			left += entrySize(n.keys[mid], n.vals[mid])
		}
	}
	right := &node{
		leaf:  true,
		keys:  append([][]byte(nil), n.keys[mid:]...),
		vals:  append([]uint64(nil), n.vals[mid:]...),
		next:  n.next,
		dirty: true,
	}
	for i, k := range right.keys {
		right.bytes += entrySize(k, right.vals[i])
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.bytes -= right.bytes
	n.next = right
	return &split{key: right.keys[0], right: right}
}

func (n *node) maybeSplitInternal() *split {
	if len(n.keys) <= degree {
		return nil
	}
	mid := len(n.keys) / 2
	sepKey := n.keys[mid]
	right := &node{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return &split{key: sepKey, right: right}
}

// childIndex returns the index of the child subtree that may contain key.
func (n *node) childIndex(key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) > 0 })
}

// find locates key within a loaded leaf: its index when present, its
// insertion point otherwise.
func (n *node) find(key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(j int) bool { return bytes.Compare(n.keys[j], key) >= 0 })
	return i, i < len(n.keys) && bytes.Equal(n.keys[i], key)
}

// entrySize is the encoded size of one leaf entry: uvarint key length, key
// bytes, uvarint value.
func entrySize(key []byte, val uint64) int {
	return uvarintLen(uint64(len(key))) + len(key) + uvarintLen(val)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
