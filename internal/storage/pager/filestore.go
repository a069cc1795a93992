package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// FileStore is a Backend over a single file laid out as a heap of
// PageSize-byte slots.
//
// Slot 0 is the header:
//
//	[0:8]   magic "DSPGHEAP"
//	[8:12]  format version (little endian uint32, currently 1)
//	[12:20] slot count including the header (uint64)
//	[20:28] free-list head slot (uint64, 0 = empty; informational)
//
// Every other slot starts with a 16-byte slot header:
//
//	[0:4]   payload length in this slot (uint32)
//	[4:12]  next slot in the chain (uint64, 0 = none)
//	[12]    flags: 0 = chain head, 1 = continuation, 2 = free
//	[13:16] reserved
//
// followed by up to PageSize-16 payload bytes. A logical page larger than one
// slot's payload capacity spills into a chain of continuation slots, so
// callers keep the in-memory Store's "oversized pages are multi-block writes"
// semantics. Freed slots are recycled in memory immediately but flagged on
// disk lazily: the pending flags coalesce into one header-write pass at
// Sync/Close, and a slot reused before the flush never writes a free flag at
// all. Recovery scans the slot headers at open to rebuild the free list, so
// the header page being stale is harmless; slots freed after the last flush
// merely leak across a crash (the startup sweep of unreachable pages
// reclaims them) — no live data is at risk.
type FileStore struct {
	mu     sync.Mutex
	f      vfs.File
	next   PageID   // next never-used slot; also the slot count
	free   []PageID // recycled slots, used LIFO
	heads  map[PageID]struct{}
	stats  Stats
	closed bool

	// dirtyFree holds recycled slots whose on-disk flagFree header has not
	// been written yet. Frees are batched: the flags coalesce into one
	// header-write pass at Sync/Close (the checkpoint adopt stage) instead
	// of one full-slot write per free, and a slot reused before the flush
	// never writes its free flag at all.
	dirtyFree map[PageID]struct{}

	// syncErr latches the first fsync failure. Per the fsync-gate rule the
	// kernel may have dropped the dirty pages a failed fsync covered, so a
	// retried fsync that "succeeds" proves nothing — every later Sync and
	// the final Close report this error instead of retrying.
	syncErr error

	// opErr latches the first I/O failure inside an operation whose
	// signature cannot carry it (Allocate, Free). Err exposes it so callers
	// seeing InvalidPage can classify the cause.
	opErr error
}

const (
	slotHeaderSize = 16
	slotPayload    = PagePayload
	fileVersion    = 1

	flagHead         = 0
	flagContinuation = 1
	flagFree         = 2
)

var fileMagic = [8]byte{'D', 'S', 'P', 'G', 'H', 'E', 'A', 'P'}

// ErrClosed is returned when using a FileStore after Close.
var ErrClosed = errors.New("pager: file store is closed")

// OpenFileStore opens (creating if necessary) the single-file page heap at
// path on the real filesystem.
func OpenFileStore(path string) (*FileStore, error) {
	return OpenFileStoreVFS(vfs.OS(), path)
}

// OpenFileStoreVFS opens the page heap through an injectable filesystem.
// Existing files are validated and scanned to rebuild the allocation and
// free-list state.
func OpenFileStoreVFS(fsys vfs.FS, path string) (*FileStore, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fs := &FileStore{f: f, next: 1, heads: make(map[PageID]struct{})}
	info, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pager: stat %s: %w", path, err), f.Close())
	}
	if info.Size() == 0 {
		if err := fs.writeHeader(); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		return fs, nil
	}
	if err := fs.load(info.Size()); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return fs, nil
}

// load validates the header and scans slot headers to rebuild in-memory
// state. The slot count is derived from the file size (a torn final slot from
// a crashed extension is dropped); the persistent free flags are
// authoritative for the free list.
func (fs *FileStore) load(size int64) error {
	var hdr [28]byte
	if _, err := fs.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("pager: read header: %w", err)
	}
	if [8]byte(hdr[0:8]) != fileMagic {
		return fmt.Errorf("pager: bad magic %q", hdr[0:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != fileVersion {
		return fmt.Errorf("pager: unsupported format version %d", v)
	}
	fs.next = PageID(size / PageSize)
	if fs.next < 1 {
		fs.next = 1
	}
	for id := PageID(1); id < fs.next; id++ {
		_, _, flags, err := fs.readSlotHeader(id)
		if err != nil {
			return err
		}
		switch flags {
		case flagHead:
			fs.heads[id] = struct{}{}
		case flagFree:
			fs.free = append(fs.free, id)
		}
	}
	return nil
}

func slotOffset(id PageID) int64 { return int64(id) * PageSize }

func (fs *FileStore) readSlotHeader(id PageID) (length uint32, next PageID, flags byte, err error) {
	var buf [slotHeaderSize]byte
	if _, err := fs.f.ReadAt(buf[:], slotOffset(id)); err != nil {
		return 0, 0, 0, fmt.Errorf("pager: read slot %d header: %w", id, err)
	}
	return binary.LittleEndian.Uint32(buf[0:4]),
		PageID(binary.LittleEndian.Uint64(buf[4:12])),
		buf[12], nil
}

// writeSlot writes a full slot: header plus zero-padded payload.
func (fs *FileStore) writeSlot(id PageID, flags byte, next PageID, payload []byte) error {
	var buf [PageSize]byte
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:12], uint64(next))
	buf[12] = flags
	copy(buf[slotHeaderSize:], payload)
	if _, err := fs.f.WriteAt(buf[:], slotOffset(id)); err != nil {
		return fmt.Errorf("pager: write slot %d: %w", id, err)
	}
	return nil
}

func (fs *FileStore) writeHeader() error {
	var buf [PageSize]byte
	copy(buf[0:8], fileMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], fileVersion)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(fs.next))
	var freeHead PageID
	if n := len(fs.free); n > 0 {
		freeHead = fs.free[n-1]
	}
	binary.LittleEndian.PutUint64(buf[20:28], uint64(freeHead))
	if _, err := fs.f.WriteAt(buf[:], 0); err != nil {
		return fmt.Errorf("pager: write header: %w", err)
	}
	return nil
}

// allocSlot grabs a slot from the free list or extends the file, without
// touching the public Allocs counter (continuation slots are an internal
// detail of oversized pages).
func (fs *FileStore) allocSlot(flags byte) (PageID, error) {
	var id PageID
	if n := len(fs.free); n > 0 {
		id = fs.free[n-1]
		fs.free = fs.free[:n-1]
		// A pending free flag is moot: the slot header is rewritten below.
		delete(fs.dirtyFree, id)
	} else {
		id = fs.next
		fs.next++
	}
	if err := fs.writeSlot(id, flags, 0, nil); err != nil {
		return InvalidPage, err
	}
	return id, nil
}

// freeSlot recycles one slot in memory and defers the on-disk free flag to
// the next Sync/Close flush. Churny workloads free and promptly reuse slots,
// so flagging eagerly cost one full-slot write per free that the very next
// allocation overwrote; deferring turns a free into a map insert and the
// flush into one 16-byte header write per slot still free at the barrier. A
// crash before the flush leaves the slots flagged live on disk — they leak
// until the startup sweep of unreachable pages reclaims them, but no live
// data is ever at risk.
func (fs *FileStore) freeSlot(id PageID) {
	fs.free = append(fs.free, id)
	if fs.dirtyFree == nil {
		fs.dirtyFree = make(map[PageID]struct{})
	}
	fs.dirtyFree[id] = struct{}{}
}

// writeSlotHeader rewrites just the 16-byte slot header, leaving the payload
// bytes in place (free-flag flushes have no payload to clear).
func (fs *FileStore) writeSlotHeader(id PageID, flags byte, next PageID, length uint32) error {
	var buf [slotHeaderSize]byte
	binary.LittleEndian.PutUint32(buf[0:4], length)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(next))
	buf[12] = flags
	if _, err := fs.f.WriteAt(buf[:], slotOffset(id)); err != nil {
		return fmt.Errorf("pager: write slot %d header: %w", id, err)
	}
	return nil
}

// flushFreeSlots writes the deferred flagFree headers (caller holds mu).
func (fs *FileStore) flushFreeSlots() error {
	for id := range fs.dirtyFree {
		if err := fs.writeSlotHeader(id, flagFree, 0, 0); err != nil {
			return err
		}
		delete(fs.dirtyFree, id)
	}
	return nil
}

// chain returns the continuation slots of a head page, in order.
func (fs *FileStore) chain(id PageID) ([]PageID, error) {
	var out []PageID
	_, next, _, err := fs.readSlotHeader(id)
	if err != nil {
		return nil, err
	}
	for next != InvalidPage {
		if len(out) > int(fs.next) {
			return nil, fmt.Errorf("pager: slot chain cycle at page %d", id)
		}
		out = append(out, next)
		_, n, _, err := fs.readSlotHeader(next)
		if err != nil {
			return nil, err
		}
		next = n
	}
	return out, nil
}

// Allocate reserves a new, empty page and returns its id.
func (fs *FileStore) Allocate() PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return InvalidPage
	}
	id, err := fs.allocSlot(flagHead)
	if err != nil {
		fs.recordOpErr(err)
		return InvalidPage
	}
	fs.heads[id] = struct{}{}
	fs.stats.Allocs++
	return id
}

// recordOpErr latches the first swallowed I/O failure for Err. Callers hold
// mu.
func (fs *FileStore) recordOpErr(err error) {
	if fs.opErr == nil {
		fs.opErr = err
	}
}

// Err returns the first I/O failure recorded by an operation that could not
// report it directly — a failed slot write inside Allocate or Free, or a
// latched fsync failure. Callers that observe InvalidPage from Allocate use
// it to classify the cause.
func (fs *FileStore) Err() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.syncErr != nil {
		return fs.syncErr
	}
	return fs.opErr
}

// Reclaim re-registers slot id as an allocated, empty head page even when
// the on-disk slot header is unreadable garbage — a torn write into a
// reserved slot (a root ping-pong slot) must not brick the file. The slot is
// pulled out of the free list if it landed there, and the file is extended
// if it is beyond the current tail.
func (fs *FileStore) Reclaim(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if id == InvalidPage {
		return fmt.Errorf("pager: cannot reclaim the header slot")
	}
	if _, ok := fs.heads[id]; ok {
		return nil
	}
	for i, fid := range fs.free {
		if fid == id {
			fs.free = append(fs.free[:i], fs.free[i+1:]...)
			delete(fs.dirtyFree, id)
			break
		}
	}
	if err := fs.writeSlot(id, flagHead, 0, nil); err != nil {
		return err
	}
	if id >= fs.next {
		fs.next = id + 1
	}
	fs.heads[id] = struct{}{}
	fs.stats.Allocs++
	return nil
}

// Free releases a page and its overflow chain. Freeing an unknown page is a
// no-op, matching Store.
func (fs *FileStore) Free(id PageID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return
	}
	if _, ok := fs.heads[id]; !ok {
		return
	}
	tail, err := fs.chain(id)
	if err != nil {
		fs.recordOpErr(err)
		return
	}
	delete(fs.heads, id)
	fs.freeSlot(id)
	for _, c := range tail {
		fs.freeSlot(c)
	}
	fs.stats.Frees++
}

// ReadPage reassembles and returns the page contents.
func (fs *FileStore) ReadPage(id PageID) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if _, ok := fs.heads[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	fs.stats.Reads++
	var out []byte
	cur := id
	for cur != InvalidPage {
		length, next, _, err := fs.readSlotHeader(cur)
		if err != nil {
			return nil, err
		}
		if length > slotPayload {
			return nil, fmt.Errorf("pager: slot %d has invalid payload length %d", cur, length)
		}
		if length > 0 {
			buf := make([]byte, length)
			if _, err := fs.f.ReadAt(buf, slotOffset(cur)+slotHeaderSize); err != nil {
				return nil, fmt.Errorf("pager: read slot %d payload: %w", cur, err)
			}
			out = append(out, buf...)
		}
		cur = next
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

// WritePage replaces the page contents, growing or shrinking the overflow
// chain as needed. Continuation slots are written before the head so a crash
// mid-write leaves the old head intact as long as possible.
func (fs *FileStore) WritePage(id PageID, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if _, ok := fs.heads[id]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	// Same multi-block charge as the in-memory Store.
	fs.stats.Writes += uint64(1 + len(data)/PageSize)

	chunks := 1 + (max(len(data), 1)-1)/slotPayload
	old, err := fs.chain(id)
	if err != nil {
		return err
	}
	slots := append([]PageID{id}, old...)
	for len(slots) < chunks {
		c, err := fs.allocSlot(flagContinuation)
		if err != nil {
			return err
		}
		slots = append(slots, c)
	}
	surplus := slots[chunks:]
	slots = slots[:chunks]
	for i := chunks - 1; i >= 0; i-- {
		lo := i * slotPayload
		hi := min(lo+slotPayload, len(data))
		if lo > hi {
			lo = hi
		}
		next := InvalidPage
		if i+1 < chunks {
			next = slots[i+1]
		}
		flags := byte(flagContinuation)
		if i == 0 {
			flags = flagHead
		}
		if err := fs.writeSlot(slots[i], flags, next, data[lo:hi]); err != nil {
			return err
		}
	}
	// Only release surplus slots once the shortened chain is fully
	// written (their free flags land at the next Sync; until then the
	// shortened head no longer references them, so they are merely dead
	// space after a crash).
	for _, extra := range surplus {
		fs.freeSlot(extra)
	}
	return nil
}

// Exists reports whether the page is allocated.
func (fs *FileStore) Exists(id PageID) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.heads[id]
	return ok
}

// PageCount returns the number of allocated (head) pages.
func (fs *FileStore) PageCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.heads)
}

// PageIDs returns the ids of all allocated (head) pages.
func (fs *FileStore) PageIDs() []PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]PageID, 0, len(fs.heads))
	for id := range fs.heads {
		out = append(out, id)
	}
	return out
}

// Sync refreshes the header page and forces everything to stable storage.
// After one fsync failure every later Sync reports that first error without
// retrying: the kernel may already have dropped the dirty pages, so a retry
// that returns nil would be a silent lie about durability.
// dslint:critical
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if fs.syncErr != nil {
		return fmt.Errorf("pager: heap fsync failed earlier, not retrying (fsync-gate): %w", fs.syncErr)
	}
	if err := fs.flushFreeSlots(); err != nil {
		return err
	}
	if err := fs.writeHeader(); err != nil {
		return err
	}
	if err := fs.f.Sync(); err != nil {
		fs.syncErr = err
		return err
	}
	return nil
}

// Close syncs and closes the file. A second Close is a no-op. A latched
// fsync failure skips the final header write and sync (fsync-gate) and is
// reported alongside the close.
// dslint:critical
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	var err error
	if fs.syncErr != nil {
		err = fmt.Errorf("pager: heap fsync failed earlier, not retrying (fsync-gate): %w", fs.syncErr)
	} else {
		err = fs.flushFreeSlots()
		if hErr := fs.writeHeader(); err == nil {
			err = hErr
		}
		if sErr := fs.f.Sync(); sErr != nil {
			fs.syncErr = sErr
			if err == nil {
				err = sErr
			}
		}
	}
	if cErr := fs.f.Close(); err == nil {
		err = cErr
	}
	return err
}

// Stats returns a snapshot of the accumulated statistics.
func (fs *FileStore) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ResetStats zeroes the counters.
func (fs *FileStore) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = Stats{}
}

var _ Backend = (*FileStore)(nil)
