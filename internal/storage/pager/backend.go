package pager

// Backend is the physical page device a BufferPool sits on: a set of
// fixed-size pages addressed by PageID. The in-memory Store holds the tables
// of an in-memory workbook and models a disk for the block-count
// experiments; FileStore is the single-file heap of a durable workbook. Implementations are safe for
// concurrent use.
type Backend interface {
	// Allocate reserves a new, empty page and returns its id.
	Allocate() PageID
	// Free releases a page. Freeing an unknown page is a no-op.
	Free(id PageID)
	// ReadPage returns a copy of the page contents.
	ReadPage(id PageID) ([]byte, error)
	// WritePage replaces the page contents. Data larger than PageSize is
	// accepted and charged as a multi-block write.
	WritePage(id PageID, data []byte) error
	// Exists reports whether the page is allocated.
	Exists(id PageID) bool
	// PageCount returns the number of allocated pages.
	PageCount() int
	// Sync makes all completed writes durable. A no-op for memory backends.
	// dslint:critical
	Sync() error
	// Close releases the backend. Closing twice is a no-op.
	// dslint:critical
	Close() error
	// PageIDs returns the ids of all allocated pages, in no particular
	// order. The durability layer uses it to sweep pages a crashed
	// checkpoint left unreferenced.
	PageIDs() []PageID
	// Stats returns a snapshot of the accumulated block-level statistics.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
}

// ReadPage is Read under the Backend interface's name.
func (s *Store) ReadPage(id PageID) ([]byte, error) { return s.Read(id) }

// WritePage is Write under the Backend interface's name.
func (s *Store) WritePage(id PageID, data []byte) error { return s.Write(id, data) }

// Sync is a no-op: the in-memory store has no durability.
func (s *Store) Sync() error { return nil }

// Close is a no-op for the in-memory store.
func (s *Store) Close() error { return nil }

var _ Backend = (*Store)(nil)
