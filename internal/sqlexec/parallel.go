package sqlexec

import (
	"cmp"
	"runtime"
	"sync"

	"github.com/dataspread/dataspread/internal/sheet"
)

// The worker pool and the two sinks that merge per-partition state: the
// GROUP BY fold and the hash-join build. A pipeline (scan.go) is drained by
// 1..N pullers, N sized by Config.Workers (default GOMAXPROCS) when the
// leading source holds at least parMinRows rows. The unit of work is a
// morsel: one contiguous partition of the input (a page range of a table
// snapshot, or a row range of rows in memory). Pullers claim morsels from a
// shared atomic cursor, so a puller that finishes early steals the remaining
// work instead of idling behind a skewed partition.
//
// Two invariants make the puller count invisible in the result:
//
//   - Pullers never touch the engine lock. A table scan pins a BufferPool
//     epoch through Store.Snapshot (the lock is held only for that call),
//     and every morsel then reads frozen page versions with no lock at all —
//     writers never block readers and readers never block writers.
//   - Partition order is row order. Collected rows concatenate in partition
//     order; per-partition GROUP BY tables merge in partition order, keeping
//     first-appearance group order; partitioned hash-join builds are probed
//     in partition order so matches surface in build-row order. Golden
//     tests hold every puller count to the serial plan's bytes — with one
//     caveat: SUM/AVG over non-integral floats re-associate across
//     partitions, so their last bits may differ between puller counts.
//
// Compiled expression trees (boundExpr) carry per-tree scratch buffers, so
// every puller gets its own compile of what it evaluates; the compiles run
// sequentially in the coordinator because compilation itself may fold
// RANGEVALUE references through the shared SheetAccessor.

// parMinRows is the input size below which parallel execution is not worth
// the fan-out overhead and fragments stay serial.
const parMinRows = 4096

// morselsPerWorker is the partition over-split factor: more morsels than
// workers keeps the pool balanced when partitions carry skewed row counts.
const morselsPerWorker = 4

// parWorkers returns the worker-pool size for parallel fragments: the
// PlanHint's Workers, else Config.Workers, defaulting to GOMAXPROCS. A
// width of 1 keeps every fragment on the calling goroutine.
func (db *Database) parWorkers() int {
	w := db.planHint().Workers
	if w <= 0 {
		w = db.cfg.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// pullersFor sizes a base source of `rows` rows for a pool of `workers`: how
// many pullers are worth running and how many morsels to cut for them.
func pullersFor(rows, workers int) (pullers, morsels int) {
	if workers <= 1 || rows < parMinRows {
		return 1, 1
	}
	return workers, workers * morselsPerWorker
}

// parRun fans fn out over workers goroutines and returns the first error in
// worker order; a single worker runs on the calling goroutine. fn must not
// touch the engine lock: the callers' fragments run concurrently with
// writers that hold it.
func parRun(workers int, fn func(w int) error) error {
	if workers == 1 {
		return fn(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitRows cuts [0, total) into at most n non-empty contiguous ranges.
func splitRows(total, n int) [][2]int {
	if total <= 0 || n <= 0 {
		return nil
	}
	if n > total {
		n = total
	}
	out := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := total*i/n, total*(i+1)/n
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// --- GROUP BY fold ---

// groupState accumulates one GROUP BY group: the representative input row
// (for grouping-column projection) and the aggregate accumulators.
type groupState struct {
	rep    []sheet.Value
	hasRep bool
	accs   []aggState
}

// groupTable is the fold of one partition: groups in first-appearance order,
// hashed by their typed GROUP BY key. The implicit single group of an
// aggregate without GROUP BY has no index and exists from the start, so
// aggregates over an empty input still produce one row (COUNT(*) = 0).
type groupTable struct {
	ix     *keyIndex
	groups []*groupState
	naccs  int
}

func newGroupTable(p *projector) *groupTable {
	t := &groupTable{naccs: len(p.reg.specs)}
	if len(p.groupBy) == 0 {
		t.groups = []*groupState{{accs: make([]aggState, t.naccs)}}
	} else {
		t.ix = newKeyIndex(len(p.groupBy))
	}
	return t
}

// group returns the group of key, adding it behind the groups already seen.
func (t *groupTable) group(key []normValue) *groupState {
	if t.ix == nil {
		return t.groups[0]
	}
	slot, added := t.ix.getOrAdd(key)
	if added {
		t.groups = append(t.groups, &groupState{accs: make([]aggState, t.naccs)})
	}
	return t.groups[slot]
}

// foldGroups is the GROUP BY sink: every puller folds the partitions it
// claims into one groupTable per partition — no group retains its member
// rows — and the tables merge in partition order, which preserves the
// first-appearance group order and the first-row representative of a single
// serial pass. A DISTINCT aggregate's dedup sets do not merge, so such a
// statement folds through one puller into one table. projs holds one compile
// of the statement per puller (their aggregate slots line up because
// compilation is deterministic).
//
// dslint:nolock(engine)
func foldGroups(src rowSource, projs []*projector, env *execEnv) ([]*groupState, error) {
	workers, parts := src.shape()
	single := projs[0].distinctAgg()
	if single {
		workers, parts = 1, 1
	}
	stable := src.stable()
	tables := make([]*groupTable, parts)
	err := parRun(workers, func(w int) error {
		p := projs[w]
		ctx := env.newRowCtx()
		var arena valueArena
		var keyBuf []normValue
		var t *groupTable
		cur := -1
		return src.pull(w, env, func(part int, row []sheet.Value) error {
			if single {
				part = 0
			}
			if part != cur {
				cur, t = part, newGroupTable(p)
				tables[part] = t
			}
			ctx.row = row
			keyBuf = keyBuf[:0]
			for _, ge := range p.groupBy {
				v, err := ge.eval(ctx)
				if err != nil {
					return err
				}
				keyBuf = append(keyBuf, normKeyValue(v))
			}
			g := t.group(keyBuf)
			if !g.hasRep {
				if g.rep, g.hasRep = row, true; !stable {
					g.rep = arena.clone(row)
				}
			}
			for i, sp := range p.reg.specs {
				if err := sp.update(&g.accs[i], ctx); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	// Merge in partition order into the first table. Contiguous partitions
	// mean first appearance across (partition order, slot order) equals first
	// appearance across the serial row order.
	var merged *groupTable
	for _, t := range tables {
		if merged == nil || t == nil { // t == nil: the partition emitted no row
			merged = cmp.Or(merged, t)
			continue
		}
		for slot, g := range t.groups {
			var key []normValue
			if t.ix != nil {
				key = t.ix.arena[slot*t.ix.arity : (slot+1)*t.ix.arity]
			}
			mergeGroup(projs[0].reg, merged.group(key), g)
		}
	}
	if merged == nil {
		merged = newGroupTable(projs[0])
	}
	return merged.groups, nil
}

// mergeGroup folds one partition's group into the merged group: the
// representative row of the earliest contributing partition wins (= the
// serial first row of the group) and the accumulators combine per slot.
func mergeGroup(reg *aggRegistry, dst, src *groupState) {
	if !dst.hasRep && src.hasRep {
		dst.rep, dst.hasRep = src.rep, true
	}
	for i, sp := range reg.specs {
		mergeAggState(sp, &dst.accs[i], &src.accs[i])
	}
}

// mergeAggState combines two accumulators of one aggregate. DISTINCT
// accumulators never reach here (foldGroups folds them into one table).
func mergeAggState(sp *aggSpec, dst, src *aggState) {
	switch sp.name {
	case "COUNT":
		dst.n += src.n
	case "SUM", "AVG":
		dst.sum += src.sum
		dst.n += src.n
	default: // MIN, MAX
		if !src.hasBest {
			return
		}
		if !dst.hasBest {
			dst.best, dst.hasBest = src.best, true
			return
		}
		c := src.best.Compare(dst.best)
		if (sp.name == "MIN" && c < 0) || (sp.name == "MAX" && c > 0) {
			dst.best = src.best
		}
	}
}

// --- hash-join build ---

// buildIndexes builds the hash-join build side as one keyIndex per contiguous
// partition of the build rows, one builder per partition. Row indexes stored
// in each partition's index are global build-side row numbers, so probing the
// indexes in partition order yields matches in ascending build-row order —
// the match order of a single index — at any partition count.
//
// dslint:nolock(engine)
func buildIndexes(rows [][]sheet.Value, keys []int, workers int, env *execEnv) ([]*keyIndex, error) {
	if len(rows) < parMinRows {
		workers = 1
	}
	ranges := splitRows(len(rows), workers)
	indexes := make([]*keyIndex, len(ranges))
	err := parRun(len(ranges), func(w int) error {
		poll := env.poller()
		ix := newKeyIndex(len(keys))
		keyBuf := make([]normValue, 0, len(keys))
		for ri := ranges[w][0]; ri < ranges[w][1]; ri++ {
			if err := poll.check(); err != nil {
				return err
			}
			keyBuf = normalizeRowKey(keyBuf, rows[ri], keys)
			slot, _ := ix.getOrAdd(keyBuf)
			ix.addRow(slot, ri)
		}
		indexes[w] = ix
		return nil
	})
	return indexes, err
}

// probeIndexes walks the partitioned build indexes in partition order,
// appending the global build-row matches for key to dst.
func probeIndexes(indexes []*keyIndex, key []normValue, dst []int32) []int32 {
	for _, ix := range indexes {
		if slot := ix.lookup(key); slot >= 0 {
			dst = append(dst, ix.matches(slot)...)
		}
	}
	return dst
}
