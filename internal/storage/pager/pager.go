// Package pager provides the block-granular storage substrate under the
// table store, the index leaves and the workbook file.
//
// The paper reasons about storage efficiency in terms of how many disk blocks
// an operation touches (e.g. "radically reducing the disk blocks that need an
// update during a schema change"). The pager therefore models a disk as a set
// of fixed-size pages and counts every block read and write, and layers an
// LRU buffer pool on top. Benchmarks compare storage layouts by block-touch
// counts as well as wall-clock time.
//
// dslint:vfsonly
package pager

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the logical page capacity in bytes. Storage managers size
// their data blocks around it.
const PageSize = 4096

// PagePayload is the largest page content a FileStore keeps in one PageSize
// slot (the slot header takes the rest); longer content spills into
// continuation slots. Writers that size their pages to the device — the
// B-tree's leaf pages — split at this budget.
const PagePayload = PageSize - slotHeaderSize

// PageID identifies a page within a Store. Zero is never a valid page id.
type PageID uint64

// InvalidPage is the zero PageID, used to mark "no page".
const InvalidPage PageID = 0

// ErrPageNotFound is returned when reading a page that was never allocated or
// has been freed.
var ErrPageNotFound = errors.New("pager: page not found")

// Stats counts block-level activity. Reads and Writes count accesses that
// reached the underlying store (i.e. buffer-pool misses and write-backs);
// Hits counts buffer-pool hits that avoided a block read.
type Stats struct {
	Reads  uint64 // block reads from the store
	Writes uint64 // block writes to the store
	Allocs uint64 // pages allocated
	Frees  uint64 // pages freed
	Hits   uint64 // buffer pool hits
	Misses uint64 // buffer pool misses
}

// String formats the statistics compactly for experiment output.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d hits=%d misses=%d",
		s.Reads, s.Writes, s.Allocs, s.Frees, s.Hits, s.Misses)
}

// Sub returns the element-wise difference s - o, used to measure the cost of
// a single operation between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:  s.Reads - o.Reads,
		Writes: s.Writes - o.Writes,
		Allocs: s.Allocs - o.Allocs,
		Frees:  s.Frees - o.Frees,
		Hits:   s.Hits - o.Hits,
		Misses: s.Misses - o.Misses,
	}
}

// BlocksTouched returns the total number of distinct block accesses (reads +
// writes), the paper's primary storage cost metric.
func (s Stats) BlocksTouched() uint64 { return s.Reads + s.Writes }

// Store is an in-memory simulation of a block device: a set of fixed-size
// pages addressed by PageID. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	pages map[PageID][]byte
	next  PageID
	stats Stats
}

// NewStore creates an empty page store.
func NewStore() *Store {
	return &Store{pages: make(map[PageID][]byte), next: 1}
}

// Allocate reserves a new, zero-length page and returns its id.
func (s *Store) Allocate() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.pages[id] = nil
	s.stats.Allocs++
	return id
}

// Free releases a page. Freeing an unknown page is a no-op.
func (s *Store) Free(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[id]; ok {
		delete(s.pages, id)
		s.stats.Frees++
	}
}

// Read returns a copy of the page contents.
func (s *Store) Read(id PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	s.stats.Reads++
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Write replaces the page contents. Writing to an unallocated page is an
// error; pages larger than PageSize are accepted (a storage manager that
// overflows a page models a multi-block write and is charged accordingly).
func (s *Store) Write(id PageID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[id]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	blocks := uint64(1 + len(data)/PageSize)
	s.stats.Writes += blocks
	cp := make([]byte, len(data))
	copy(cp, data)
	s.pages[id] = cp
	return nil
}

// Exists reports whether the page is allocated.
func (s *Store) Exists(id PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pages[id]
	return ok
}

// PageCount returns the number of allocated pages.
func (s *Store) PageCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// PageIDs returns the ids of all allocated pages.
func (s *Store) PageIDs() []PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PageID, 0, len(s.pages))
	for id := range s.pages {
		out = append(out, id)
	}
	return out
}

// Stats returns a snapshot of the accumulated statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters (allocation state is unchanged).
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}
