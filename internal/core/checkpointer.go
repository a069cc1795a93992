// Background shadow-paged checkpoints.
//
// A checkpoint moves durability work off the write path: commands only pay
// for their WAL append, and a background goroutine — nudged whenever the WAL
// grows past a size threshold — periodically captures the workbook and makes
// the page file the source of truth up to a watermark LSN.
//
// The protocol is shadow-paged end to end, in four stages:
//
//	capture  (under cmdMu) write the index leaves changed since the last
//	         checkpoint into the buffer pool and flush it — copy-on-write
//	         relocates every dirty page that the durable root references to
//	         a fresh page — then serialize the page catalog, the sheet
//	         snapshot and the watermark. Nothing the old root references
//	         was touched, and the work follows the dirty set: the catalog
//	         lists pages, not rows.
//	write    (off-lock)    write the catalog, snapshot and zone blobs to
//	         fresh pages, then the heap's slot map — the slot states the
//	         new root reaches, its own page included — and sync.
//	flip     (off-lock)    write the next root — generation+1, watermark,
//	         blob pages — into the ping-pong slot the previous root does
//	         NOT occupy, and sync. This single page write is the commit
//	         point: a crash before it recovers the old root plus the full
//	         WAL; after it, the new root plus the WAL tail above the
//	         watermark.
//	adopt    (post-commit) mirror the root into the sibling slot, promote
//	         the pool's pending protection set to durable (freeing pages
//	         only the old root referenced), release the old blob pages, and
//	         compact the WAL through the watermark — concurrent appends
//	         above it survive.
//
// Writers keep running during write/flip/adopt; only capture excludes them,
// and it performs no fsync; it refuses while a transaction owns the tables.
// Close and Checkpoint drain the background goroutine deterministically.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/txn"
)

// defaultCheckpointWALBytes is the WAL size that triggers a background
// checkpoint when Options.CheckpointWALBytes is zero.
const defaultCheckpointWALBytes = 4 << 20

// Background checkpoint retry policy: a transient failure (anything except a
// failed fsync or a poisoned workbook) is retried with doubling backoff, up
// to ckptRetryMax attempts per trigger.
const (
	ckptRetryMax         = 3
	defaultCkptRetryBase = 50 * time.Millisecond
	ckptRetryCap         = 2 * time.Second
)

// ckptState carries one checkpoint through its stages.
type ckptState struct {
	metaBlob  []byte
	snapBlob  []byte
	zoneBlob  []byte
	dataPages []pager.PageID
	root      rootInfo // the root this checkpoint commits
	prev      rootInfo // the root it replaced, once flipped
}

// startCheckpointer launches the background goroutine. A negative threshold
// disables it (explicit Checkpoint still works).
func (ds *DataSpread) startCheckpointer() {
	if ds.ckptThreshold < 0 {
		return
	}
	ds.ckptTrigger = make(chan struct{}, 1)
	ds.ckptStop = make(chan struct{})
	ds.ckptDone = make(chan struct{})
	stop, trigger, done := ds.ckptStop, ds.ckptTrigger, ds.ckptDone
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-trigger:
				ds.runCheckpointWithRetry(stop)
			}
		}
	}()
}

// runCheckpointWithRetry drives one triggered background checkpoint to
// success, a permanent failure, or retry exhaustion. Transient failures (a
// rejected write, ENOSPC on an allocation) back off and retry: the condition
// may clear. Durability-class failures — a failed fsync (the kernel may have
// dropped the dirty pages; fsync-gate) or a commit-uncertain root flip — are
// never retried; checkpointOnce has already poisoned the workbook for the
// flip case and the heap's own sync latch refuses retries for the rest.
// The outcome lands in ckptErr, where Health exposes it and the next
// explicit Checkpoint or Close consumes it; a success clears it.
func (ds *DataSpread) runCheckpointWithRetry(stop <-chan struct{}) {
	backoff := ds.ckptRetryBase
	if backoff <= 0 {
		backoff = defaultCkptRetryBase
	}
	var err error
	for attempt := 0; attempt < ckptRetryMax; attempt++ {
		if attempt > 0 {
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > ckptRetryCap {
				backoff = ckptRetryCap
			}
		}
		err = ds.checkpointOnce()
		if errors.Is(err, dberr.ErrConflict) {
			return // a transaction owns the tables; the next logCommand nudges again
		}
		if err == nil || isSyncFault(err) || ds.isPoisoned() {
			break
		}
	}
	ds.ckptErrMu.Lock()
	ds.ckptErr = err
	ds.ckptErrMu.Unlock()
}

// stopCheckpointer signals the goroutine and waits for any in-flight
// checkpoint to finish. Safe to call twice.
func (ds *DataSpread) stopCheckpointer() {
	ds.ckptErrMu.Lock()
	stop := ds.ckptStop
	ds.ckptStop = nil
	ds.ckptErrMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-ds.ckptDone
}

// maybeTriggerCheckpoint nudges the background goroutine when the WAL has
// outgrown the threshold. Non-blocking: a nudge while a checkpoint runs
// coalesces into the single buffered slot.
func (ds *DataSpread) maybeTriggerCheckpoint() {
	if ds.ckptTrigger == nil || ds.ckptThreshold <= 0 || ds.wal == nil || ds.isPoisoned() {
		return
	}
	if ds.wal.LogSize() < ds.ckptThreshold {
		return
	}
	select {
	case ds.ckptTrigger <- struct{}{}:
	default:
	}
}

// checkpointOnce runs one full checkpoint. ckptMu serialises explicit
// Checkpoint calls with the background goroutine — whichever enters second
// waits, so "Checkpoint returned" always means "no checkpoint in flight".
func (ds *DataSpread) checkpointOnce() error {
	ds.ckptMu.Lock()
	defer ds.ckptMu.Unlock()
	if err := ds.checkWritable(); err != nil {
		return fmt.Errorf("core: checkpoint skipped: %w", err)
	}
	ds.Wait()
	st, err := ds.ckptCapture()
	if err != nil {
		return err
	}
	if err := ds.ckptWrite(st); err != nil {
		ds.ckptAbort(st)
		return err
	}
	if err := ds.ckptFlip(st); err != nil {
		// Commit-uncertain: the new root-slot write may have reached disk
		// even though the sync (or the write itself) reported failure, so
		// the blob pages and captured data pages must NOT be freed or
		// unprotected — a reopen could legitimately choose that root. The
		// scratch pages leak until the next open sweeps them. With two
		// roots both plausibly current and no way to learn which one disk
		// holds, no further write can be known consistent: poison.
		ds.poison(err)
		return err
	}
	return ds.ckptAdopt(st)
}

// ckptCapture is the only stage that excludes writers: it flushes dirty index
// leaves and the pool (copy-on-write keeps the durable image intact),
// serializes the catalog and sheet snapshot, and records the watermark. No
// fsync happens here. It refuses with dberr.ErrConflict while a transaction
// owns the tables: the pages would hold its uncommitted changes, and its
// COMMIT record, logged above the watermark, would replay onto them.
func (ds *DataSpread) ckptCapture() (*ckptState, error) {
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	if ds.wal == nil {
		return nil, fmt.Errorf("core: checkpoint requires a durable workbook: %w", dberr.ErrUnsupported)
	}
	if err := ds.db.Busy(); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	st := &ckptState{root: rootInfo{gen: ds.root.gen + 1, watermark: ds.wal.LastLSN()}}
	var err error
	if st.metaBlob, err = ds.db.MarshalPages(); err != nil {
		return nil, fmt.Errorf("core: checkpoint flush: %w", err)
	}
	st.zoneBlob = ds.db.MarshalZones()
	st.snapBlob = txn.EncodeRecords([]txn.Record{{LSN: st.root.watermark, Ops: ds.snapshotOps()}})
	st.dataPages = ds.db.DurablePageIDs()
	ds.db.Pool().BeginCheckpoint(st.dataPages)
	return st, nil
}

// ckptWrite lands the catalog, snapshot, zone and slot-map blobs on fresh
// pages and syncs. Old state is untouched; a crash here only leaks pages,
// which the next open sweeps.
func (ds *DataSpread) ckptWrite(st *ckptState) error {
	be, r := ds.backend, &st.root
	if r.metaPage = be.Allocate(); r.metaPage == pager.InvalidPage {
		return allocErr(be)
	}
	if r.snapPage = be.Allocate(); r.snapPage == pager.InvalidPage {
		return allocErr(be)
	}
	if err := be.WritePage(r.metaPage, st.metaBlob); err != nil {
		return fmt.Errorf("core: write page catalog: %w", err)
	}
	if err := be.WritePage(r.snapPage, st.snapBlob); err != nil {
		return fmt.Errorf("core: write sheet snapshot: %w", err)
	}
	r.zonePage = advisoryPage(be, func(pager.PageID) ([]byte, error) { return st.zoneBlob, nil })
	// The slot map comes last: it records the pages the new root reaches,
	// the blobs above among them, as the heap holds them now. Slots that
	// writers allocate or free from here on are unreachable from this root,
	// and a reopen rebuilds them as free.
	r.mapPage = advisoryPage(be, func(id pager.PageID) ([]byte, error) {
		return be.MarshalSlotMap(id, r.reach(st.dataPages))
	})
	if err := be.Sync(); err != nil {
		return fmt.Errorf("core: sync checkpoint pages: %w", err)
	}
	return nil
}

// advisoryPage writes an advisory blob — the zone maps or the slot map,
// which a reopen can do without — to a fresh page and returns it. An
// allocation, marshal or write failure drops the blob from this checkpoint
// (page 0) instead of failing it; a latched backend I/O error still surfaces
// at the Sync that follows, exactly as it would for the mandatory blobs.
func advisoryPage(be *pager.FileStore, marshal func(id pager.PageID) ([]byte, error)) pager.PageID {
	id := be.Allocate()
	if id == pager.InvalidPage {
		return 0
	}
	blob, err := marshal(id)
	if err == nil {
		err = be.WritePage(id, blob)
	}
	if err != nil {
		be.Free(id)
		return 0
	}
	return id
}

// ckptFlip atomically commits the checkpoint: one root-slot write plus sync.
func (ds *DataSpread) ckptFlip(st *ckptState) error {
	if err := writeRoot(ds.backend, rootSlotFor(st.root.gen), st.root); err != nil {
		return err
	}
	if err := ds.backend.Sync(); err != nil {
		return fmt.Errorf("core: sync root flip: %w", err)
	}
	// Commit point passed: from here on the checkpoint is durable.
	st.prev, ds.root = ds.root, st.root
	return nil
}

// ckptAdopt runs after the commit point: mirror the root into the sibling
// slot (so one later page corruption cannot resurrect the stale root),
// promote the pool's protection set, free the previous blob pages, and
// compact the WAL through the watermark.
func (ds *DataSpread) ckptAdopt(st *ckptState) error {
	var firstErr error
	other := rootSlotA
	if rootSlotFor(ds.root.gen) == rootSlotA {
		other = rootSlotB
	}
	if err := writeRoot(ds.backend, other, ds.root); err != nil {
		firstErr = err
	} else if err := ds.backend.Sync(); err != nil {
		firstErr = fmt.Errorf("core: sync root mirror: %w", err)
	}
	ds.db.Pool().CommitCheckpoint()
	for _, id := range st.prev.blobs() {
		ds.backend.Free(id)
	}
	if err := ds.wal.TruncateThrough(st.root.watermark); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("core: compact WAL: %w", err)
	}
	return firstErr
}

// allocErr classifies a failed checkpoint page allocation: the backend's
// recorded I/O failure when it has one (a FileStore latches the slot-write
// error), otherwise a broken invariant.
func allocErr(be pager.Backend) error {
	if e, ok := be.(interface{ Err() error }); ok {
		if err := e.Err(); err != nil {
			return fmt.Errorf("core: checkpoint: page allocation failed: %w", err)
		}
	}
	return fmt.Errorf("core: checkpoint: page allocation failed: %w", dberr.ErrInternal)
}

// ckptAbort rolls back a checkpoint that failed before any root-slot write
// was attempted: the pool's pending protections lift and the scratch blob
// pages are freed. It must not run after ckptFlip has started — once a root
// write may have landed, nothing the new root references can be released.
func (ds *DataSpread) ckptAbort(st *ckptState) {
	ds.db.Pool().AbortCheckpoint()
	for _, id := range st.root.blobs() {
		ds.backend.Free(id)
	}
}
