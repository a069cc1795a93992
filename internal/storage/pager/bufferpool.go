package pager

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// BufferPool caches page contents in memory with LRU replacement and
// write-back of dirty pages. Storage managers read and write pages through a
// pool so that repeated access to hot blocks (e.g. the visible window) does
// not touch the disk — in-memory (Store) and file-backed (FileStore) devices
// sit behind the same Backend interface.
//
// The pool is also the copy-on-write layer of the durability design: pages
// that the last durable checkpoint root references ("protected" pages) are
// never overwritten in place. A write-back of a protected page relocates it
// to a freshly allocated backend page and records the move in a forward map,
// so callers keep addressing the page by its original (logical) id while the
// durable image stays intact until the next checkpoint root flip commits the
// move. See BeginCheckpoint/CommitCheckpoint.
type BufferPool struct {
	mu       sync.Mutex
	store    Backend
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // front = most recently used; stores PageID
	stats    Stats

	// Copy-on-write state. forward maps a logical page id to its current
	// physical id after one or more relocations; durable holds the physical
	// ids the committed checkpoint root references; pending holds the
	// physical ids a checkpoint in flight has captured (both sets are
	// protected from in-place writes). pendingFree collects superseded or
	// freed protected pages that must survive until the next root flip;
	// freeAtCommit holds the portion safe to free when the in-flight
	// checkpoint commits.
	forward      map[PageID]PageID
	durable      pageSet
	pending      pageSet
	pendingFree  []PageID
	freeAtCommit []PageID
	// reuse parks physical pages that cannot return to the backend free
	// list because their id doubles as a live, relocated LOGICAL id: a
	// backend recycling such an id into a fresh Allocate would collide with
	// the live page. Parked pages stay allocated and serve as relocation
	// targets (physical-only use); unused ones are swept at the next open.
	reuse []PageID

	// versions counts content changes per logical page id — bumped on every
	// Put, Free and Allocate (ids can be recycled by the backend) — so
	// decoded-page caches above the pool can validate entries against
	// backend-level reloads and id reuse, not just writes they performed
	// themselves.
	versions map[PageID]uint64

	// Snapshot-epoch state (epoch.go). epoch counts OpenEpoch calls;
	// pageEpoch stamps each logical page with the epoch current at its last
	// content change; pinned counts readers per open epoch; retained parks
	// superseded page versions that a pinned epoch can still observe.
	epoch     uint64
	pageEpoch map[PageID]uint64
	pinned    map[uint64]int
	retained  map[PageID][]retainedVersion
}

type frame struct {
	data    []byte
	dirty   bool
	pins    int
	lruElem *list.Element
}

// NewBufferPool creates a pool over the store holding at most capacity pages.
// A capacity of zero or less disables caching entirely (every access goes to
// the store), which is useful for isolating raw block counts in benchmarks.
func NewBufferPool(store Backend, capacity int) *BufferPool {
	return &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		lru:      list.New(),
		forward:  make(map[PageID]PageID),
		versions: make(map[PageID]uint64),
	}
}

// Store returns the underlying page device.
func (bp *BufferPool) Store() Backend { return bp.store }

// physLocked translates a logical page id to its current physical id
// (caller holds bp.mu).
func (bp *BufferPool) physLocked(id PageID) PageID {
	if n, ok := bp.forward[id]; ok {
		return n
	}
	return id
}

// Resolve returns the physical backend page currently holding the logical
// page id. Checkpoint metadata must persist physical ids: after a reopen
// there is no forward map.
func (bp *BufferPool) Resolve(id PageID) PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.physLocked(id)
}

// ResolveAll is Resolve over a list, in place and under one pool lock.
func (bp *BufferPool) ResolveAll(ids []PageID) []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i, id := range ids {
		ids[i] = bp.physLocked(id)
	}
	return ids
}

// protectedLocked reports whether the physical page is referenced by the
// durable root or by a checkpoint in flight (caller holds bp.mu).
func (bp *BufferPool) protectedLocked(q PageID) bool {
	return bp.durable.has(q) || bp.pending.has(q)
}

// pageSet is a set of physical page ids: a bitset, as FileStore ids are
// dense slot numbers. Ids from denseIDs up, which only a damaged catalog
// names in practice, go to far instead of sizing the bitset.
const denseIDs = 1 << 24 // 2 MiB of bits covers a 64 GiB heap

type pageSet struct {
	bits []uint64
	far  map[PageID]struct{}
}

func newPageSet(ids []PageID) pageSet {
	var top PageID
	for _, id := range ids {
		if id < denseIDs {
			top = max(top, id)
		}
	}
	s := pageSet{bits: make([]uint64, top/64+1)}
	for _, id := range ids {
		if id < denseIDs {
			s.bits[id/64] |= 1 << (id % 64)
			continue
		}
		if s.far == nil {
			s.far = make(map[PageID]struct{})
		}
		s.far[id] = struct{}{}
	}
	return s
}

func (s pageSet) has(id PageID) bool {
	if id < PageID(len(s.bits))*64 {
		return s.bits[id/64]&(1<<(id%64)) != 0
	}
	_, ok := s.far[id]
	return ok
}

// scratchPageLocked hands out a physical page for a relocation target:
// parked pages first (they are already allocated and unreferenced), then a
// fresh backend allocation (caller holds bp.mu).
func (bp *BufferPool) scratchPageLocked() PageID {
	if k := len(bp.reuse); k > 0 {
		n := bp.reuse[k-1]
		bp.reuse = bp.reuse[:k-1]
		return n
	}
	return bp.store.Allocate()
}

// writeBackLocked writes page contents to the backend, relocating protected
// pages copy-on-write so the durable checkpoint image is never torn (caller
// holds bp.mu).
func (bp *BufferPool) writeBackLocked(id PageID, data []byte) error {
	q := bp.physLocked(id)
	if !bp.protectedLocked(q) {
		return bp.store.WritePage(q, data)
	}
	n := bp.scratchPageLocked()
	if n == InvalidPage {
		if err := storeErr(bp.store); err != nil {
			return fmt.Errorf("pager: cannot relocate protected page %d: %w", q, err)
		}
		return fmt.Errorf("pager: cannot relocate protected page %d", q)
	}
	// Only adopt the relocation once the copy landed: recording it first
	// would leave the logical page pointing at an empty scratch page if the
	// write fails, silently shadowing the last good copy at q.
	if err := bp.store.WritePage(n, data); err != nil {
		bp.store.Free(n)
		return err
	}
	bp.forward[id] = n
	bp.pendingFree = append(bp.pendingFree, q)
	return nil
}

func (bp *BufferPool) bumpVersionLocked(id PageID) { bp.versions[id]++ }

// Version returns a counter that changes whenever the logical page's content
// can have changed: on Put, Free and Allocate (backends recycle ids).
// Decoded-page caches compare it to detect stale entries.
func (bp *BufferPool) Version(id PageID) uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.versions[id]
}

// Allocate creates a new page in the underlying store and caches an empty
// frame for it. An id that doubles as a live relocated logical page is never
// handed out — deleting its forward mapping would silently point the live
// page at the empty newcomer — such ids are parked for physical-only reuse.
func (bp *BufferPool) Allocate() PageID {
	bp.mu.Lock()
	id := bp.store.Allocate()
	for id != InvalidPage {
		if _, conflict := bp.forward[id]; !conflict {
			break
		}
		bp.reuse = append(bp.reuse, id)
		id = bp.store.Allocate()
	}
	if id != InvalidPage {
		bp.retainBeforeChangeLocked(id)
	}
	bp.bumpVersionLocked(id)
	if bp.capacity > 0 && id != InvalidPage {
		bp.install(id, nil)
	}
	bp.mu.Unlock()
	return id
}

// ErrAllocFailed reports a page allocation that the backend refused without
// recording a more specific cause.
var ErrAllocFailed = errors.New("pager: page allocation failed")

// AllocatePage is Allocate with the failure reason: instead of InvalidPage
// it returns the backend's recorded I/O failure (a FileStore latches the
// slot-write error that made Allocate fail), so insert paths can classify
// allocation failures under dberr.ErrIO.
func (bp *BufferPool) AllocatePage() (PageID, error) {
	id := bp.Allocate()
	if id != InvalidPage {
		return id, nil
	}
	if err := storeErr(bp.store); err != nil {
		return InvalidPage, fmt.Errorf("pager: page allocation failed: %w", err)
	}
	return InvalidPage, ErrAllocFailed
}

// storeErr surfaces a backend's sticky internal I/O failure when it exposes
// one (FileStore does; the in-memory Store cannot fail).
func storeErr(store Backend) error {
	if e, ok := store.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Get returns the contents of a page, reading it from the store on a miss.
// The returned slice is owned by the pool; callers must not retain it across
// other pool calls — copy if needed (Put makes its own copy).
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		bp.touch(id, f)
		return f.data, nil
	}
	bp.stats.Misses++
	data, err := bp.store.ReadPage(bp.physLocked(id))
	if err != nil {
		return nil, err
	}
	if bp.capacity > 0 {
		bp.install(id, data)
	}
	return data, nil
}

// Put replaces the contents of a page in the pool and marks it dirty. The
// write reaches the store when the page is evicted or flushed.
func (bp *BufferPool) Put(id PageID, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.retainBeforeChangeLocked(id)
	bp.bumpVersionLocked(id)
	if bp.capacity <= 0 {
		return bp.writeBackLocked(id, cp)
	}
	if !bp.store.Exists(bp.physLocked(id)) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	f, ok := bp.frames[id]
	if !ok {
		f = bp.install(id, cp)
	} else {
		f.data = cp
		bp.touch(id, f)
	}
	f.dirty = true
	return nil
}

// Free drops a page from the pool and the store. Protected pages (referenced
// by the durable checkpoint root) are only freed once the next root flip
// commits; until then the durable image stays readable.
func (bp *BufferPool) Free(id PageID) {
	bp.mu.Lock()
	bp.retainBeforeChangeLocked(id)
	bp.bumpVersionLocked(id)
	if f, ok := bp.frames[id]; ok {
		bp.lru.Remove(f.lruElem)
		delete(bp.frames, id)
	}
	q := bp.physLocked(id)
	delete(bp.forward, id)
	if bp.protectedLocked(q) {
		bp.pendingFree = append(bp.pendingFree, q)
		bp.mu.Unlock()
		return
	}
	bp.mu.Unlock()
	bp.store.Free(q)
}

// Pin marks a page as unevictable until a matching Unpin.
func (bp *BufferPool) Pin(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		f.pins++
	}
}

// Unpin releases a pin taken with Pin.
func (bp *BufferPool) Unpin(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok && f.pins > 0 {
		f.pins--
	}
}

// Flush writes a dirty page back to the store.
func (bp *BufferPool) Flush(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || !f.dirty {
		return nil
	}
	if err := bp.writeBackLocked(id, f.data); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// FlushAll writes every dirty page back to the store.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, f := range bp.frames {
		if !f.dirty {
			continue
		}
		if err := bp.writeBackLocked(id, f.data); err != nil {
			return err
		}
		f.dirty = false
	}
	return nil
}

// --- checkpoint protocol ---
//
// The durability layer drives the pool through three steps:
//
//  1. SetDurable at open: the physical pages the recovered root references
//     become protected — no in-place overwrite can ever tear them.
//  2. BeginCheckpoint after FlushAll + metadata capture: the captured
//     physical pages join the protected set ("pending"), and previously
//     superseded durable pages move to the free-at-commit list.
//  3. CommitCheckpoint after the root flip is durable: pending becomes the
//     new durable set, and the pages only the old root referenced are
//     returned to the backend. AbortCheckpoint rolls step 2 back without
//     freeing anything the old root can still reach.

// SetDurable declares the physical pages referenced by the recovered
// checkpoint root. Called once at open, before any writes.
func (bp *BufferPool) SetDurable(ids []PageID) {
	set := newPageSet(ids)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.durable = set
}

// BeginCheckpoint protects the captured physical pages of a checkpoint in
// flight and stages the currently superseded durable pages for release at
// commit. Pages relocated or freed after this call accumulate for the
// *next* checkpoint, since the in-flight root will reference them.
func (bp *BufferPool) BeginCheckpoint(referenced []PageID) {
	set := newPageSet(referenced)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.pending = set
	// Append rather than replace: a previous checkpoint that failed after
	// its flip attempt leaves its staged frees behind (neither commit nor
	// abort ran), and they must ride along to this checkpoint's commit
	// instead of leaking until the next open's sweep.
	bp.freeAtCommit = append(bp.freeAtCommit, bp.pendingFree...)
	bp.pendingFree = nil
}

// CommitCheckpoint makes the pending set the durable set and frees the pages
// only the previous root referenced. Call after the new root is synced.
// Pages whose id is still a live relocated logical id are parked instead of
// freed: on the backend free list they would be recycled into a colliding
// logical id (FileStore reuses ids LIFO).
func (bp *BufferPool) CommitCheckpoint() {
	bp.mu.Lock()
	bp.durable, bp.pending = bp.pending, pageSet{}
	var toFree []PageID
	for _, q := range bp.freeAtCommit {
		if _, live := bp.forward[q]; live {
			bp.reuse = append(bp.reuse, q)
		} else {
			toFree = append(toFree, q)
		}
	}
	bp.freeAtCommit = nil
	bp.mu.Unlock()
	for _, q := range toFree {
		bp.store.Free(q)
	}
}

// AbortCheckpoint undoes BeginCheckpoint after a failed checkpoint: the
// pending pages lose their protection (they are unreferenced scratch now)
// and the staged frees move back to waiting for a future successful commit.
func (bp *BufferPool) AbortCheckpoint() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.pending = pageSet{}
	bp.pendingFree = append(bp.pendingFree, bp.freeAtCommit...)
	bp.freeAtCommit = nil
}

// Stats returns pool-level hit/miss counters (block reads/writes are counted
// by the underlying Store).
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the pool counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Len returns the number of cached frames.
func (bp *BufferPool) Len() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// install adds a frame for id (caller holds bp.mu) evicting as needed.
func (bp *BufferPool) install(id PageID, data []byte) *frame {
	bp.evictIfFull()
	f := &frame{data: data}
	f.lruElem = bp.lru.PushFront(id)
	bp.frames[id] = f
	return f
}

// touch moves a frame to the MRU position (caller holds bp.mu).
func (bp *BufferPool) touch(id PageID, f *frame) {
	_ = id
	bp.lru.MoveToFront(f.lruElem)
}

// evictIfFull evicts the least recently used unpinned frame when at capacity
// (caller holds bp.mu). Dirty victims are written back.
func (bp *BufferPool) evictIfFull() {
	for len(bp.frames) >= bp.capacity && bp.capacity > 0 {
		var victim *list.Element
		for e := bp.lru.Back(); e != nil; e = e.Prev() {
			id := e.Value.(PageID)
			if bp.frames[id].pins == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return // everything pinned; allow temporary over-capacity
		}
		id := victim.Value.(PageID)
		f := bp.frames[id]
		if f.dirty {
			// A missing page means it was freed underneath us and the data
			// can be dropped. Any other write-back failure (real I/O error
			// on a file backend) must not lose the dirty frame: keep it,
			// let the pool run over capacity, and surface the error on the
			// next explicit Flush/FlushAll.
			if err := bp.writeBackLocked(id, f.data); err != nil && !errors.Is(err, ErrPageNotFound) {
				return
			}
		}
		bp.lru.Remove(victim)
		delete(bp.frames, id)
	}
}
