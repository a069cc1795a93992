package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Page-resident leaves.
//
// A leaf page is
//
//	[0:4)  magic "DSBL"
//	[4:8)  CRC32-IEEE (little endian) over the body
//	[8:)   body: uvarint entry count, then per entry
//	       uvarint key length, key bytes, uvarint value
//
// and never embeds another page's id: the leaf order lives in the fence
// list the catalog keeps (Leaves / Attach), exactly like a table's page
// list, so relocating a leaf copy-on-write touches no other page. Inner
// nodes are never written; the first use after Attach builds them from the
// fence keys.

var leafMagic = [4]byte{'D', 'S', 'B', 'L'}

// leafHeader is the sealed frame plus the widest entry count a page holds.
const leafHeader = 8 + binary.MaxVarintLen16

// leafBudget is the encoded entry bytes a leaf may hold before it splits, so
// that header plus entries fill one page slot.
const leafBudget = pager.PagePayload - leafHeader

// Fence locates one leaf: its first key and its page.
type Fence struct {
	First []byte
	Page  pager.PageID
}

// Flush makes pool hold the current image of every leaf: leaves emptied by
// Delete are unlinked and their pages freed, and each leaf changed since the
// previous Flush is encoded and Put to its page (allocated on first flush).
// The work is proportional to the leaves that changed, plus one pass over
// the node structure. The caller flushes the pool afterwards and persists
// Len and Leaves to find the pages again. A failed Flush leaves the tree
// valid and the unwritten leaves dirty, so a later Flush retries them.
func (t *Tree) Flush(pool *pager.BufferPool) error {
	if t.unbuilt.Load() {
		return nil // untouched since Attach: the pages hold every leaf
	}
	var last *node
	if t.root.prune(pool, &last) {
		t.root = &node{leaf: true}
	}
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if last != nil {
		last.next = nil
	}
	for n := t.firstLeaf(); n != nil; n = n.next {
		if !n.dirty {
			continue
		}
		if n.page == pager.InvalidPage {
			id, err := pool.AllocatePage()
			if err != nil {
				return fmt.Errorf("btree: allocate leaf page: %w", err)
			}
			n.page = id
		}
		if err := pool.Put(n.page, encodeLeaf(n)); err != nil {
			return fmt.Errorf("btree: write leaf page %d: %w", n.page, err)
		}
		n.dirty = false
	}
	return nil
}

// prune removes the emptied leaves of n's subtree from the structure,
// freeing their pages, and relinks the surviving leaves through last. It
// reports whether the subtree has no leaf left. An unloaded leaf is never
// empty: Flush persists only leaves that hold entries.
func (n *node) prune(pool *pager.BufferPool, last **node) bool {
	if n.leaf {
		if !n.unloaded.Load() && len(n.keys) == 0 {
			if n.page != pager.InvalidPage {
				pool.Free(n.page)
			}
			return true
		}
		if *last != nil {
			(*last).next = n
		}
		*last = n
		return false
	}
	kept, keys := n.children[:0], n.keys[:0]
	for i, c := range n.children {
		if c.prune(pool, last) {
			continue
		}
		if len(kept) > 0 {
			// keys[i-1] bounds c from below and everything kept so far
			// from above.
			keys = append(keys, n.keys[i-1])
		}
		kept = append(kept, c)
	}
	clear(n.children[len(kept):])
	clear(n.keys[len(keys):])
	n.children, n.keys = kept, keys
	return len(kept) == 0
}

func (t *Tree) firstLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// Leaves returns the fence list: the first key and the logical page of every
// leaf that holds entries, in key order, without loading any. Right after
// Flush every such leaf has a page; one created since has pager.InvalidPage.
// A tree not used since Attach returns the fences it was given.
func (t *Tree) Leaves() []Fence {
	if t.unbuilt.Load() {
		return t.fences
	}
	var out []Fence
	for n := t.firstLeaf(); n != nil; n = n.next {
		switch {
		case n.unloaded.Load():
			out = append(out, Fence{First: n.fence, Page: n.page})
		case len(n.keys) > 0:
			out = append(out, Fence{First: n.keys[0], Page: n.page})
		}
	}
	return out
}

// Attach rebuilds a tree of size entries over the leaf pages a Flush wrote
// to pool, given their fence list in key order. It only checks the fences:
// no leaf page is read and no node is built until an operation first needs
// the tree (spine), and a leaf's entries are loaded the first time an
// operation reaches it.
func Attach(pool *pager.BufferPool, size int, fences []Fence) (*Tree, error) {
	if len(fences) == 0 && size != 0 {
		return nil, fmt.Errorf("btree: %d entries but no leaves: %w", size, dberr.ErrCorrupt)
	}
	for i, f := range fences {
		if f.Page == pager.InvalidPage {
			return nil, fmt.Errorf("btree: leaf %d has no page: %w", i, dberr.ErrCorrupt)
		}
		if i > 0 && bytes.Compare(fences[i-1].First, f.First) >= 0 {
			return nil, fmt.Errorf("btree: fence keys out of order at leaf %d: %w", i, dberr.ErrCorrupt)
		}
	}
	t := &Tree{root: &node{leaf: true}, size: size, pool: pool, fences: fences}
	t.unbuilt.Store(len(fences) > 0)
	return t, nil
}

// spine returns the root, first building an attached tree's nodes from its
// fences — unloaded leaves, then inner levels — once, however many readers
// sharing the engine read lock race to the first use.
func (t *Tree) spine() *node {
	if t.unbuilt.Load() {
		t.build.Do(t.buildSpine)
	}
	return t.root
}

func (t *Tree) buildSpine() {
	level := make([]*node, len(t.fences))
	mins := make([][]byte, len(t.fences)) // smallest key under each node of level
	for i, f := range t.fences {
		n := &node{leaf: true, page: f.Page, fence: f.First}
		n.unloaded.Store(true)
		if i > 0 {
			level[i-1].next = n
		}
		level[i], mins[i] = n, f.First
	}
	for len(level) > 1 {
		var up []*node
		var upMins [][]byte
		for i := 0; i < len(level); i += degree {
			j := min(i+degree, len(level))
			up = append(up, &node{
				keys:     append([][]byte(nil), mins[i+1:j]...),
				children: append([]*node(nil), level[i:j]...),
			})
			upMins = append(upMins, mins[i])
		}
		level, mins = up, upMins
	}
	t.root = level[0]
	t.unbuilt.Store(false)
}

// load makes a leaf's entries resident. The fast path is one atomic load.
func (t *Tree) load(n *node) error {
	if !n.unloaded.Load() {
		return nil
	}
	return t.fault(n)
}

// fault reads an unloaded leaf from its page. Concurrent readers may reach
// the same leaf; faultMu lets one decode it, and clearing unloaded publishes
// keys and vals to the others. A page that cannot be read or fails
// validation leaves the leaf unloaded, so every operation that needs it
// reports the error (dberr.ErrIO or dberr.ErrCorrupt) instead of missing
// its entries.
func (t *Tree) fault(n *node) error {
	t.faultMu.Lock()
	defer t.faultMu.Unlock()
	if !n.unloaded.Load() {
		return nil
	}
	data, err := t.pool.Get(n.page)
	if err != nil {
		if errors.Is(err, dberr.ErrIO) {
			return fmt.Errorf("btree: read leaf page %d: %w", n.page, err)
		}
		return fmt.Errorf("btree: read leaf page %d: %w: %w", n.page, dberr.ErrCorrupt, err)
	}
	keys, vals, size, err := decodeLeaf(data)
	if err != nil {
		return fmt.Errorf("btree: leaf page %d: %w", n.page, err)
	}
	if len(keys) == 0 || !bytes.Equal(keys[0], n.fence) {
		return fmt.Errorf("btree: leaf page %d does not start at its fence key: %w", n.page, dberr.ErrCorrupt)
	}
	n.keys, n.vals, n.bytes = keys, vals, size
	n.unloaded.Store(false)
	return nil
}

func encodeLeaf(n *node) []byte {
	buf := make([]byte, 8, leafHeader+n.bytes)
	copy(buf, leafMagic[:])
	buf = binary.AppendUvarint(buf, uint64(len(n.keys)))
	for i, k := range n.keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, n.vals[i])
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// decodeLeaf validates a leaf page and returns its entries and their encoded
// size. The keys alias one private copy of the page body.
func decodeLeaf(page []byte) (keys [][]byte, vals []uint64, size int, err error) {
	if len(page) < 8 || [4]byte(page[0:4]) != leafMagic {
		return nil, nil, 0, fmt.Errorf("not a leaf page: %w", dberr.ErrCorrupt)
	}
	if crc32.ChecksumIEEE(page[8:]) != binary.LittleEndian.Uint32(page[4:8]) {
		return nil, nil, 0, fmt.Errorf("checksum mismatch: %w", dberr.ErrCorrupt)
	}
	body := append([]byte(nil), page[8:]...)
	malformed := func() ([][]byte, []uint64, int, error) {
		return nil, nil, 0, fmt.Errorf("malformed entries: %w", dberr.ErrCorrupt)
	}
	count, pos := binary.Uvarint(body)
	// Every entry takes at least two bytes; reject the count before
	// allocating for it.
	if pos <= 0 || count > uint64(len(body)-pos)/2 {
		return malformed()
	}
	start := pos
	keys = make([][]byte, count)
	vals = make([]uint64, count)
	for i := range keys {
		klen, w := binary.Uvarint(body[pos:])
		if w <= 0 || klen > uint64(len(body)-pos-w) {
			return malformed()
		}
		pos += w
		end := pos + int(klen)
		keys[i] = body[pos:end:end]
		pos = end
		if vals[i], w = binary.Uvarint(body[pos:]); w <= 0 {
			return malformed()
		}
		pos += w
		if i > 0 && bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return malformed()
		}
	}
	if pos != len(body) {
		return malformed()
	}
	return keys, vals, pos - start, nil
}
