package pager

import (
	"fmt"
	"sort"
)

// Snapshot epochs.
//
// An epoch is a point-in-time view of every logical page's content, pinned
// by a reader so that scans can proceed without the engine lock while
// writers keep mutating pages. The pool keeps the machinery cheap by
// reusing the copy-on-write discipline it already has: page bytes are never
// mutated in place (Put swaps in a fresh copy, backends return owned
// buffers), so serving an old version is a matter of *retaining* the
// superseded byte slice, not copying live data.
//
// Bookkeeping, all under bp.mu:
//
//   - epoch is a counter; every content change (Put, Free, Allocate)
//     stamps the page with the current value. OpenEpoch returns the
//     current value E and bumps the counter, so every later change stamps
//     strictly greater than E.
//   - a page whose stamp is <= E is unchanged since epoch E was opened:
//     readers at E see the current content.
//   - before a change to a page whose old stamp some pinned epoch still
//     covers, the old bytes are parked in retained[id] keyed by that
//     stamp. GetAt(E, id) picks the retained version with the largest
//     stamp <= E.
//   - ReleaseEpoch unpins and garbage-collects: a retained version is
//     freed as soon as no pinned epoch falls inside its validity window
//     [stamp, nextStamp). When the last reader drains, everything goes.
//
// Retention is memory-only and never blocks or redirects checkpoints:
// write-backs and checkpoint frees operate on physical pages and do not
// change logical content, so they need no epoch interaction.

// retainedVersion is one superseded content version of a logical page.
type retainedVersion struct {
	stamp uint64 // page's epoch stamp while this content was current
	ver   uint64 // versions[id] while this content was current
	data  []byte
}

// OpenEpoch pins a snapshot of every page's current content and returns
// its epoch. The caller must release it with ReleaseEpoch; until then the
// pool retains every page version the epoch can still observe.
func (bp *BufferPool) OpenEpoch() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.pinned == nil {
		bp.pinned = make(map[uint64]int)
	}
	e := bp.epoch
	bp.epoch++
	bp.pinned[e]++
	return e
}

// ReleaseEpoch unpins an epoch returned by OpenEpoch and frees retained
// page versions no remaining reader can observe. Releasing an epoch more
// times than it was opened is a no-op.
func (bp *BufferPool) ReleaseEpoch(e uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if n, ok := bp.pinned[e]; ok {
		if n--; n <= 0 {
			delete(bp.pinned, e)
		} else {
			bp.pinned[e] = n
		}
	}
	bp.gcRetainedLocked()
}

// GetAt returns the content and version of a logical page as of epoch e,
// in one pool-lock acquisition so the pair is consistent. The returned
// slice is immutable from the pool's point of view (the pool never mutates
// page bytes in place); callers may decode it after the call returns.
func (bp *BufferPool) GetAt(e uint64, id PageID) ([]byte, uint64, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.pageEpoch[id] <= e {
		// Unchanged since the epoch opened: current content is the
		// snapshot content.
		ver := bp.versions[id]
		if f, ok := bp.frames[id]; ok {
			bp.stats.Hits++
			bp.touch(id, f)
			return f.data, ver, nil
		}
		bp.stats.Misses++
		data, err := bp.store.ReadPage(bp.physLocked(id))
		if err != nil {
			return nil, 0, err
		}
		if bp.capacity > 0 {
			bp.install(id, data)
		}
		return data, ver, nil
	}
	if rv := bp.retainedAtLocked(e, id); rv != nil {
		return rv.data, rv.ver, nil
	}
	return nil, 0, fmt.Errorf("pager: no retained version of page %d at epoch %d: %w", id, e, ErrPageNotFound)
}

// VersionAt returns the version GetAt(e, id) reports, without touching the
// page bytes: a decoded-page cache probes with it and fetches only on a miss.
// While e stays pinned (or, for the all-ones epoch, writers stay excluded)
// the answer does not change. ok is false when no version is visible at e.
func (bp *BufferPool) VersionAt(e uint64, id PageID) (ver uint64, ok bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.pageEpoch[id] <= e {
		return bp.versions[id], true
	}
	if rv := bp.retainedAtLocked(e, id); rv != nil {
		return rv.ver, true
	}
	return 0, false
}

// retainedAtLocked picks the retained version of a page changed since epoch
// e opened: the one with the largest stamp <= e (caller holds bp.mu).
func (bp *BufferPool) retainedAtLocked(e uint64, id PageID) *retainedVersion {
	vers := bp.retained[id]
	for i := len(vers) - 1; i >= 0; i-- {
		if vers[i].stamp <= e {
			return &vers[i]
		}
	}
	return nil
}

// retainBeforeChangeLocked parks the current content of a page that is
// about to change (Put, Free, recycled Allocate) when a pinned epoch can
// still observe it, and advances the page's epoch stamp (caller holds
// bp.mu; call before bumpVersionLocked so the retained version records the
// pre-change counter).
func (bp *BufferPool) retainBeforeChangeLocked(id PageID) {
	stamp := bp.pageEpoch[id]
	if bp.anyPinnedAtLeastLocked(stamp) {
		var old []byte
		if f, ok := bp.frames[id]; ok {
			// Adopt the frame's slice: Put replaces it with a fresh copy
			// and Free drops the frame, so ownership transfers cleanly.
			old = f.data
		} else if data, err := bp.store.ReadPage(bp.physLocked(id)); err == nil {
			old = data
		}
		if old != nil {
			if bp.retained == nil {
				bp.retained = make(map[PageID][]retainedVersion)
			}
			bp.retained[id] = append(bp.retained[id], retainedVersion{
				stamp: stamp,
				ver:   bp.versions[id],
				data:  old,
			})
		}
	}
	if bp.pageEpoch == nil {
		bp.pageEpoch = make(map[PageID]uint64)
	}
	bp.pageEpoch[id] = bp.epoch
}

// anyPinnedAtLeastLocked reports whether some pinned epoch is >= stamp,
// i.e. a reader can still observe content last changed at that stamp
// (caller holds bp.mu).
func (bp *BufferPool) anyPinnedAtLeastLocked(stamp uint64) bool {
	for e := range bp.pinned {
		if e >= stamp {
			return true
		}
	}
	return false
}

// gcRetainedLocked frees retained versions that no pinned epoch can
// observe: version i of a page is live for epochs in [stamp_i, stamp_i+1)
// — the next retained version's stamp, or the page's current stamp for
// the newest one (caller holds bp.mu).
func (bp *BufferPool) gcRetainedLocked() {
	if len(bp.retained) == 0 {
		return
	}
	if len(bp.pinned) == 0 {
		bp.retained = nil
		return
	}
	pins := make([]uint64, 0, len(bp.pinned))
	for e := range bp.pinned {
		pins = append(pins, e)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
	for id, vers := range bp.retained {
		kept := vers[:0]
		for i, rv := range vers {
			next := bp.pageEpoch[id]
			if i+1 < len(vers) {
				next = vers[i+1].stamp
			}
			if pinnedInRange(pins, rv.stamp, next) {
				kept = append(kept, rv)
			}
		}
		if len(kept) == 0 {
			delete(bp.retained, id)
		} else {
			bp.retained[id] = kept
		}
	}
}

// pinnedInRange reports whether the sorted pin list has an epoch in
// [lo, hi).
func pinnedInRange(pins []uint64, lo, hi uint64) bool {
	i := sort.Search(len(pins), func(i int) bool { return pins[i] >= lo })
	return i < len(pins) && pins[i] < hi
}

// EpochStats reports the number of pinned reader epochs and retained
// superseded page versions (tests and health probes).
func (bp *BufferPool) EpochStats() (pinned, retained int) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, n := range bp.pinned {
		pinned += n
	}
	for _, vers := range bp.retained {
		retained += len(vers)
	}
	return pinned, retained
}
