package tablestore

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// decodedCacheCap bounds the number of decoded pages one store keeps. At the
// default packing (~512 values per block) this covers a few hundred thousand
// rows per table before eviction sets in.
const decodedCacheCap = 4096

// decodedCacheShards spreads entries over independently locked shards so
// concurrent snapshot readers on different morsels do not serialize on one
// cache mutex. Sixteen shards keeps the per-shard maps small and covers the
// worker counts the executor uses (GOMAXPROCS-bounded).
const decodedCacheShards = 16

// decodedCache memoizes decoded page images so repeated scans of the same
// table do not re-decode every block from its byte form. Entries are shared
// read-only snapshots: only the read paths (ScanColsRange/GetCols) consult the
// cache, while mutators keep decoding private copies they are free to edit
// in place.
//
// Entries are keyed by (page id, BufferPool version): the pool bumps the
// version on *any* content-changing event — local writes through this store,
// a backend-level reload of the id, or the backend recycling the id into a
// fresh allocation — so the cache can never serve a decode of bytes that are
// not the version the caller asked for. Version keying also lets epoch
// snapshot scans (ScanColsRange over a TableSnap) and current-content point
// reads share one cache: a superseded page version and its replacement
// occupy distinct entries until eviction.
type decodedCache struct {
	shards [decodedCacheShards]cacheShard
}

type cacheShard struct {
	mu     sync.Mutex
	tuples map[cacheKey]tupleEntry
}

type cacheKey struct {
	id    pager.PageID
	ver   uint64
	width int // the group width the decode was checked against
}

type tupleEntry struct {
	ids  []RowID
	rows [][]sheet.Value
}

func (c *decodedCache) shard(id pager.PageID) *cacheShard {
	return &c.shards[uint64(id)%decodedCacheShards]
}

// getTuplesAt returns the decoded tuple page as of a snapshot epoch (or, at
// liveEpoch, the current one under the caller's writer exclusion), decoding
// and caching on a miss. The probe asks the pool for the version alone, so a
// decoded hit costs no page read; on a miss the pool hands back the (content,
// version) pair in one atomic step, so the entry is keyed by the bytes it
// decodes even with no engine lock held while writers churn.
func (c *decodedCache) getTuplesAt(pool *pager.BufferPool, epoch uint64, id pager.PageID, width int) ([]RowID, [][]sheet.Value, error) {
	sh := c.shard(id)
	if ver, ok := pool.VersionAt(epoch, id); ok {
		sh.mu.Lock()
		e, hit := sh.tuples[cacheKey{id, ver, width}]
		sh.mu.Unlock()
		if hit {
			return e.ids, e.rows, nil
		}
	}
	data, ver, err := pool.GetAt(epoch, id)
	if err != nil {
		return nil, nil, listedPageErr(id, err)
	}
	return sh.addTuples(cacheKey{id, ver, width}, data)
}

// listedPageErr classes a failed read of a page the store's page lists name:
// a backend without it was handed a catalog that does not match it.
func listedPageErr(id pager.PageID, err error) error {
	if errors.Is(err, pager.ErrPageNotFound) {
		return fmt.Errorf("tablestore: listed page %d is missing: %w: %w", id, dberr.ErrCorrupt, err)
	}
	return err
}

// addTuples decodes outside the shard lock (concurrent misses may decode
// twice; last write wins, both decodes are identical) and installs the
// entry.
func (sh *cacheShard) addTuples(key cacheKey, data []byte) ([]RowID, [][]sheet.Value, error) {
	ids, rows, err := decodeTuples(data, key.width)
	if err != nil {
		return nil, nil, err
	}
	sh.mu.Lock()
	if sh.tuples == nil {
		sh.tuples = make(map[cacheKey]tupleEntry)
	}
	sh.evictIfFull()
	sh.tuples[key] = tupleEntry{ids: ids, rows: rows}
	sh.mu.Unlock()
	return ids, rows, nil
}

// evictIfFull drops arbitrary entries while the shard is at its share of
// the capacity (caller holds sh.mu). Scans repopulate in page order, so
// losing a random victim only costs one re-decode; superseded page versions
// age out the same way once their snapshot readers drain.
func (sh *cacheShard) evictIfFull() {
	const shardCap = decodedCacheCap / decodedCacheShards
	for key := range sh.tuples {
		if len(sh.tuples) < shardCap {
			return
		}
		delete(sh.tuples, key)
	}
}
