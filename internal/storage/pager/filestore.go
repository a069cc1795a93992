package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
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
// semantics. Every slot's flags and chain link are also kept in memory, so
// allocation, frees and chain walks read no slot header.
//
// Opening reads only the header; Attach rebuilds the slot states from a
// checkpoint's slot map (slotmap.go) or, without one, from every slot
// header. Free flags reach the disk lazily, at Sync/Close, so a scan after a
// crash can see freed slots in use; Retain at open frees them.
type FileStore struct {
	mu     sync.Mutex
	f      vfs.File
	next   PageID      // next never-used slot; also the slot count
	free   []PageID    // recycled slots, used LIFO
	slots  []slotState // every slot below next once attached ([0] is the header)
	stats  Stats
	closed bool

	attached bool // slots is built; before, ReadPage follows on-disk chains
	dirty    bool // written since the last fsync, so Sync has work

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

type slotState struct {
	next      PageID
	flags     byte
	unflagged bool // free, but its flagFree header is not on disk yet (freeSlot)
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

// OpenFileStoreVFS opens the page heap through an injectable filesystem. An
// existing file's header is validated; Attach rebuilds its slot states.
func OpenFileStoreVFS(fsys vfs.FS, path string) (*FileStore, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fs := &FileStore{f: f, next: 1}
	info, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pager: stat %s: %w", path, err), f.Close())
	}
	if info.Size() == 0 {
		fs.slots, fs.attached = make([]slotState, 1), true
		if err := fs.writeHeader(); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		return fs, nil
	}
	if err := fs.readHeader(info.Size()); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return fs, nil
}

// readHeader validates the header. The slot count is derived from the file
// size (a torn final slot from a crashed extension is dropped).
func (fs *FileStore) readHeader(size int64) error {
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
	fs.next = max(PageID(size/PageSize), 1)
	return nil
}

// Attach builds the slot states every operation but ReadPage needs: from
// slotMap, the MarshalSlotMap bytes a checkpoint root names (slots past its
// high-water mark are free), or, for a nil or refused map, by reading every
// slot header in the same loop; scanned reports that. On a new or attached
// store it does nothing.
func (fs *FileStore) Attach(slotMap []byte) (scanned bool, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed || fs.attached {
		return false, fs.ready()
	}
	slots := make([]slotState, fs.next)
	mapped, err := decodeSlotMap(slotMap, fs.next)
	scanned = err != nil
	copy(slots, mapped)
	var free []PageID
	for id := PageID(1); id < fs.next; id++ {
		switch {
		case scanned:
			_, next, flags, err := fs.readSlotHeader(id)
			if err != nil {
				return true, err
			}
			slots[id] = slotState{next: next, flags: flags}
		case id >= PageID(len(mapped)):
			slots[id].flags = flagFree
		}
		if slots[id].flags == flagFree {
			free = append(free, id)
		}
	}
	fs.slots, fs.free, fs.attached = slots, free, true
	return scanned, nil
}

// ready reports a closed store or one not attached yet (caller holds mu).
func (fs *FileStore) ready() error {
	if fs.closed {
		return ErrClosed
	}
	if !fs.attached {
		return errors.New("pager: file store used before Attach")
	}
	return nil
}

func (fs *FileStore) isHead(id PageID) bool {
	return id != InvalidPage && id < PageID(len(fs.slots)) && fs.slots[id].flags == flagHead
}

func slotOffset(id PageID) int64 { return int64(id) * PageSize }

// slotsFor is the number of slots a page of n bytes occupies.
func slotsFor(n int) int { return 1 + (max(n, 1)-1)/slotPayload }

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
	fs.dirty = true
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
	fs.dirty = true
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
// detail of oversized pages). A slot whose header write fails is leaked.
func (fs *FileStore) allocSlot(flags byte) (PageID, error) {
	var id PageID
	if n := len(fs.free); n > 0 {
		id = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		id = fs.next
		fs.next++
		fs.slots = append(fs.slots, slotState{})
	}
	fs.slots[id] = slotState{flags: flagContinuation}
	if err := fs.writeSlot(id, flags, 0, nil); err != nil {
		return InvalidPage, err
	}
	fs.slots[id].flags = flags
	return id, nil
}

// freeSlot recycles one slot in memory and defers the on-disk free flag to
// the next Sync/Close flush. Churny workloads free and promptly reuse slots,
// so flagging eagerly cost one full-slot write per free that the very next
// allocation overwrote; deferring turns a free into a list append and the
// flush into one 16-byte header write per slot still free at the barrier. A
// crash before the flush leaves the slots flagged live on disk; the next open
// frees them (a slot map never reads the flags, a header scan ends in
// Retain), and no live data is ever at risk.
func (fs *FileStore) freeSlot(id PageID) {
	fs.slots[id] = slotState{flags: flagFree, unflagged: true}
	fs.free = append(fs.free, id)
	fs.dirty = true
}

// flushFreeSlots writes the deferred free flags, 16 header bytes per slot
// with the payload left as it is (caller holds mu).
func (fs *FileStore) flushFreeSlots() error {
	var hdr [slotHeaderSize]byte
	hdr[12] = flagFree
	for _, id := range fs.free {
		if s := &fs.slots[id]; s.unflagged {
			if _, err := fs.f.WriteAt(hdr[:], slotOffset(id)); err != nil {
				return fmt.Errorf("pager: write slot %d header: %w", id, err)
			}
			s.unflagged = false
		}
	}
	return nil
}

// chain returns the continuation slots of a head page, in order, from the
// in-memory links. A link that leaves the file, reaches a slot that is not
// a continuation or loops is an error; the slots before it are returned.
func (fs *FileStore) chain(id PageID) ([]PageID, error) {
	var out []PageID
	for next := fs.slots[id].next; next != InvalidPage; next = fs.slots[next].next {
		if next >= fs.next || fs.slots[next].flags != flagContinuation || len(out) >= len(fs.slots) {
			return out, fmt.Errorf("pager: broken slot chain at page %d", id)
		}
		out = append(out, next)
	}
	return out, nil
}

// reach marks every slot on the chains of the head pages in live, recording a
// broken chain for Err (caller holds mu).
func (fs *FileStore) reach(live []PageID) []bool {
	reached := make([]bool, fs.next)
	for _, id := range live {
		if !fs.isHead(id) || reached[id] {
			continue
		}
		reached[id] = true
		tail, err := fs.chain(id)
		if err != nil {
			fs.recordOpErr(err)
		}
		for _, c := range tail {
			reached[c] = true
		}
	}
	return reached
}

// Retain frees every slot off the chains of live, the pages a checkpoint
// root reaches, following no link out of a slot it frees: a stale on-disk
// link from a page written after the checkpoint cannot free a live slot.
func (fs *FileStore) Retain(live []PageID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.ready() != nil {
		return
	}
	reached := fs.reach(live)
	for id := PageID(1); id < fs.next; id++ {
		if !reached[id] && fs.slots[id].flags != flagFree {
			fs.freeSlot(id)
		}
	}
}

// Allocate reserves a new, empty page and returns its id.
func (fs *FileStore) Allocate() PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.ready() != nil {
		return InvalidPage
	}
	id, err := fs.allocSlot(flagHead)
	if err != nil {
		fs.recordOpErr(err)
		return InvalidPage
	}
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
// report it directly — a failed slot write inside Allocate, a broken chain
// met by Free or Retain, or a latched fsync failure. Callers that observe InvalidPage from
// Allocate use it to classify the cause.
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
	if id == InvalidPage {
		return fmt.Errorf("pager: cannot reclaim the header slot")
	}
	if err := fs.ready(); err != nil || fs.isHead(id) {
		return err
	}
	if id < fs.next && fs.slots[id].flags == flagFree {
		fs.free = slices.DeleteFunc(fs.free, func(fid PageID) bool { return fid == id })
	}
	if err := fs.writeSlot(id, flagHead, 0, nil); err != nil {
		return err
	}
	for fs.next <= id {
		fs.slots = append(fs.slots, slotState{flags: flagContinuation})
		fs.next++
	}
	fs.slots[id] = slotState{flags: flagHead}
	fs.stats.Allocs++
	return nil
}

// Free releases a page and its overflow chain. Freeing an unknown page is a
// no-op, matching Store. It is a pure in-memory operation: the on-disk free
// flags wait for the next Sync or Close. A broken chain link ends the chain
// and is recorded for Err; the slots past it stay allocated.
func (fs *FileStore) Free(id PageID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.ready() != nil || !fs.isHead(id) {
		return
	}
	tail, err := fs.chain(id)
	if err != nil {
		fs.recordOpErr(err)
	}
	fs.freeSlot(id)
	for _, c := range tail {
		fs.freeSlot(c)
	}
	fs.stats.Frees++
}

// ReadPage reassembles and returns the page contents, reading each slot of
// the chain — header and payload — in one ReadAt. Before the slot states are
// attached it follows the on-disk chain of any slot whose header says chain
// head.
func (fs *FileStore) ReadPage(id PageID) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if fs.attached && !fs.isHead(id) || id == InvalidPage || id >= fs.next {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	fs.stats.Reads++
	size := PageSize
	if fs.attached {
		tail, _ := fs.chain(id)
		size *= 1 + len(tail)
	}
	out := make([]byte, 0, size)
	for cur, n := id, 0; cur != InvalidPage; n++ {
		// Read the slot into the tail of out, then slide its payload down
		// over the header.
		at := len(out)
		out = slices.Grow(out, PageSize)[:at+PageSize]
		if _, err := fs.f.ReadAt(out[at:], slotOffset(cur)); err != nil {
			return nil, fmt.Errorf("pager: read slot %d: %w", cur, err)
		}
		length := binary.LittleEndian.Uint32(out[at : at+4])
		next := PageID(binary.LittleEndian.Uint64(out[at+4 : at+12]))
		switch {
		case cur == id && !fs.attached && out[at+12] != flagHead:
			return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
		case length > slotPayload:
			return nil, fmt.Errorf("pager: slot %d has invalid payload length %d", cur, length)
		case n >= int(fs.next):
			return nil, fmt.Errorf("pager: slot chain cycle at page %d", id)
		}
		copy(out[at:], out[at+slotHeaderSize:at+slotHeaderSize+int(length)])
		out = out[:at+int(length)]
		cur = next
	}
	return out, nil
}

// WritePage replaces the page contents, growing or shrinking the overflow
// chain as needed. Continuation slots are written before the head so a crash
// mid-write leaves the old head intact as long as possible.
func (fs *FileStore) WritePage(id PageID, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ready(); err != nil {
		return err
	}
	if !fs.isHead(id) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	// Same multi-block charge as the in-memory Store.
	fs.stats.Writes += uint64(1 + len(data)/PageSize)

	chunks := slotsFor(len(data))
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
		fs.slots[slots[i]].next = next
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
	return fs.ready() == nil && fs.isHead(id)
}

// PageCount returns the number of allocated (head) pages.
func (fs *FileStore) PageCount() int { return len(fs.PageIDs()) }

// PageIDs returns the ids of all allocated (head) pages, in slot order.
func (fs *FileStore) PageIDs() []PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.ready() != nil {
		return nil
	}
	var out []PageID
	for id := PageID(1); id < fs.next; id++ {
		if fs.slots[id].flags == flagHead {
			out = append(out, id)
		}
	}
	return out
}

// Sync refreshes the header page and forces everything to stable storage;
// with nothing written since the last Sync it does neither. After one fsync
// failure every later Sync reports that first error without retrying: the
// kernel may already have dropped the dirty pages, so a retry that returns
// nil would be a silent lie about durability.
// dslint:critical
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	return fs.syncLocked()
}

// syncLocked is Sync under mu.
// dslint:critical
func (fs *FileStore) syncLocked() error {
	if fs.syncErr != nil {
		return fmt.Errorf("pager: heap fsync failed earlier, not retrying (fsync-gate): %w", fs.syncErr)
	}
	if !fs.dirty {
		return nil
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
	fs.dirty = false
	return nil
}

// Close syncs (see Sync) and closes the file. A second Close is a no-op. A
// latched fsync failure skips the final header write and sync (fsync-gate)
// and is reported alongside the close.
// dslint:critical
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	err := fs.syncLocked()
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
