package sqlexec

import (
	"context"
	"runtime"
	"sync"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// Morsel-driven parallel execution. Eligible pipeline fragments — the
// filtered scan of a named table, the fold phase of GROUP BY, and the
// build/probe phases of a hash join — fan out over a bounded worker pool
// sized by Config.Workers (default GOMAXPROCS). The unit of work is a
// morsel: one contiguous partition of the input (a page range of a table
// snapshot, or a row range of a materialised relation). Workers pull morsels
// from a shared atomic cursor, so a worker that finishes early steals the
// remaining work instead of idling behind a skewed partition.
//
// Two invariants keep parallel plans exchangeable with serial ones:
//
//   - Readers never touch the engine lock. A table scan pins a BufferPool
//     epoch through Store.Snapshot (the lock is held only for that call),
//     and every morsel then reads frozen page versions with no lock at all —
//     writers never block readers and readers never block writers (the
//     kernel is scan.go).
//   - Output is row-for-row identical to the serial executor. Morsel results
//     are concatenated in partition order (= serial scan order); merged
//     GROUP BY groups keep first-appearance order; partitioned hash joins
//     probe the per-partition build indexes in partition order so matches
//     surface in build-row order. SetWorkers(1) golden tests hold the two
//     executors to byte equality.
//
// Compiled expression trees (boundExpr) carry per-tree scratch buffers, so
// every worker gets its own compile of the predicates/expressions it
// evaluates; the compiles run sequentially in the coordinator because
// compilation itself may fold RANGEVALUE references through the shared
// SheetAccessor.

// parMinRows is the input size below which parallel execution is not worth
// the fan-out overhead and fragments stay serial.
const parMinRows = 4096

// morselsPerWorker is the partition over-split factor: more morsels than
// workers keeps the pool balanced when partitions carry skewed row counts.
const morselsPerWorker = 4

// parWorkers returns the worker-pool size for parallel fragments: the
// SetWorkers override, else Config.Workers, defaulting to GOMAXPROCS. A
// width of 1 keeps every fragment on the calling goroutine.
func (db *Database) parWorkers() int {
	w := int(db.workersOverride.Load())
	if w <= 0 {
		w = db.cfg.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// parPoll is a per-worker cancellation poller. execEnv.check counts ticks on
// the shared execEnv and is therefore not safe for concurrent use; each
// worker polls the context through its own counter instead.
type parPoll struct {
	ctx   context.Context
	ticks int
}

// check polls the worker's context every ctxCheckInterval rows.
//
// dslint:poll
func (p *parPoll) check() error {
	if p.ctx == nil {
		return nil
	}
	p.ticks++
	if p.ticks%ctxCheckInterval != 0 {
		return nil
	}
	select {
	case <-p.ctx.Done():
		return p.ctx.Err()
	default:
		return nil
	}
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

// envCtx returns the execution's context (nil-safe).
func envCtx(env *execEnv) context.Context {
	if env == nil {
		return nil
	}
	return env.ctx
}

// --- parallel GROUP BY fold ---

// groupCompile is one worker's private compile of a grouped projection: the
// aggregate registry its fold updates and the bound GROUP BY expressions.
type groupCompile struct {
	reg     *aggRegistry
	groupBy []boundExpr
}

// compileGroupWorker reproduces the grouped projection's compile for one
// worker. Compilation is deterministic, so the worker registry's spec slots
// line up with the coordinator's and per-slot accumulators can merge.
func compileGroupWorker(stmt *sqlparser.SelectStmt, items []sqlparser.SelectItem, rel *relation, env *execEnv) (*groupCompile, error) {
	gc := &groupCompile{reg: &aggRegistry{}}
	cenv := env.compileEnv(rel.cols)
	cenv.aggs = gc.reg
	for _, item := range items {
		if _, err := compileExpr(item.Expr, cenv); err != nil {
			return nil, err
		}
	}
	if stmt.Having != nil {
		if _, err := compileExpr(stmt.Having, cenv); err != nil {
			return nil, err
		}
	}
	rowEnv := env.compileEnv(rel.cols)
	gc.groupBy = make([]boundExpr, len(stmt.GroupBy))
	var err error
	for i, g := range stmt.GroupBy {
		if gc.groupBy[i], err = compileExpr(g, rowEnv); err != nil {
			return nil, err
		}
	}
	return gc, nil
}

// parFoldGroups runs the GROUP BY fold phase with the worker pool: each
// worker folds a contiguous row range into its own hash of groups, and the
// per-worker groups merge in partition order — which preserves the serial
// executor's first-appearance group order — with per-slot accumulator
// merging. It reports handled=false when the fragment is not eligible
// (small input, serial mode, or DISTINCT aggregates, whose dedup sets do
// not merge).
func (db *Database) parFoldGroups(stmt *sqlparser.SelectStmt, items []sqlparser.SelectItem, rel *relation, reg *aggRegistry, env *execEnv) (groups []*groupState, handled bool, err error) {
	workers := db.parWorkers()
	if workers <= 1 || len(rel.rows) < parMinRows {
		return nil, false, nil
	}
	for _, sp := range reg.specs {
		if sp.distinct {
			return nil, false, nil
		}
	}
	compiles := make([]*groupCompile, workers)
	for w := range compiles {
		if compiles[w], err = compileGroupWorker(stmt, items, rel, env); err != nil {
			return nil, false, err
		}
		if len(compiles[w].reg.specs) != len(reg.specs) {
			return nil, false, nil
		}
	}

	ranges := splitRows(len(rel.rows), workers)
	type workerFold struct {
		ix     *keyIndex
		groups []*groupState
	}
	folds := make([]workerFold, len(ranges))
	err = parRun(len(ranges), func(w int) error {
		gc := compiles[w]
		fold := &folds[w]
		ctx := env.newRowCtx()
		poll := parPoll{ctx: envCtx(env)}
		var keyBuf []normValue
		if len(gc.groupBy) == 0 {
			fold.groups = append(fold.groups, &groupState{accs: make([]aggState, len(gc.reg.specs))})
		} else {
			fold.ix = newKeyIndex(len(gc.groupBy))
			keyBuf = make([]normValue, 0, len(gc.groupBy))
		}
		for _, row := range rel.rows[ranges[w][0]:ranges[w][1]] {
			if err := poll.check(); err != nil {
				return err
			}
			ctx.row = row
			var cur *groupState
			if fold.ix == nil {
				cur = fold.groups[0]
			} else {
				keyBuf = keyBuf[:0]
				for _, ge := range gc.groupBy {
					v, err := ge.eval(ctx)
					if err != nil {
						return err
					}
					keyBuf = append(keyBuf, normKeyValue(v))
				}
				slot, added := fold.ix.getOrAdd(keyBuf)
				if added {
					fold.groups = append(fold.groups, &groupState{accs: make([]aggState, len(gc.reg.specs))})
				}
				cur = fold.groups[slot]
			}
			if !cur.hasRep {
				cur.rep, cur.hasRep = row, true
			}
			for i, sp := range gc.reg.specs {
				if err := sp.update(&cur.accs[i], ctx); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}

	// Merge per-worker folds in partition order. Contiguous partitions mean
	// first appearance across (worker order, slot order) equals first
	// appearance across the serial row order.
	if len(stmt.GroupBy) == 0 {
		merged := &groupState{accs: make([]aggState, len(reg.specs))}
		for _, fold := range folds {
			mergeGroup(reg, merged, fold.groups[0])
		}
		return []*groupState{merged}, true, nil
	}
	ix := newKeyIndex(len(stmt.GroupBy))
	for _, fold := range folds {
		if fold.ix == nil {
			continue
		}
		for slot, g := range fold.groups {
			key := fold.ix.arena[slot*fold.ix.arity : (slot+1)*fold.ix.arity]
			gslot, added := ix.getOrAdd(key)
			if added {
				groups = append(groups, &groupState{accs: make([]aggState, len(reg.specs))})
			}
			mergeGroup(reg, groups[gslot], g)
		}
	}
	return groups, true, nil
}

// mergeGroup folds one worker-local group into the merged group: the
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
// accumulators never reach here (parFoldGroups falls back to serial).
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

// --- parallel hash join ---

// parBuildIndexes builds the hash-join build side as one keyIndex per
// contiguous partition of the build rows, in parallel. Row indexes stored in
// each partition's index are global build-side row numbers, so probing the
// indexes in partition order yields matches in ascending build-row order —
// exactly the serial single-index match order.
func parBuildIndexes(rows [][]sheet.Value, keys []int, workers int, env *execEnv) ([]*keyIndex, error) {
	ranges := splitRows(len(rows), workers)
	if len(ranges) == 0 {
		return nil, nil
	}
	indexes := make([]*keyIndex, len(ranges))
	err := parRun(len(ranges), func(w int) error {
		poll := parPoll{ctx: envCtx(env)}
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
	if err != nil {
		return nil, err
	}
	return indexes, nil
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

// parHashJoinEligible reports whether a hash join is worth fanning out.
func (db *Database) parHashJoinEligible(left, right *relation) (workers int, ok bool) {
	workers = db.parWorkers()
	if workers <= 1 {
		return 0, false
	}
	if len(left.rows) < parMinRows && len(right.rows) < parMinRows {
		return 0, false
	}
	return workers, true
}

// parHashJoinKeyed runs the NATURAL/USING hash join (key equality only, no
// ON predicate) with the worker pool: partitioned build, then parallel
// probe over contiguous left-row ranges whose outputs concatenate in range
// order (= serial left order).
func parHashJoinKeyed(left, right *relation, leftKeys, rightKeys []int, joinType sqlparser.JoinType, pad []sheet.Value, projectRight func([]sheet.Value) []sheet.Value, workers int, env *execEnv) ([][]sheet.Value, error) {
	indexes, err := parBuildIndexes(right.rows, rightKeys, workers, env)
	if err != nil {
		return nil, err
	}
	ranges := splitRows(len(left.rows), workers)
	outs := make([][][]sheet.Value, len(ranges))
	err = parRun(len(ranges), func(w int) error {
		poll := parPoll{ctx: envCtx(env)}
		keyBuf := make([]normValue, 0, len(leftKeys))
		var matchBuf []int32
		var out [][]sheet.Value
		for _, lrow := range left.rows[ranges[w][0]:ranges[w][1]] {
			if err := poll.check(); err != nil {
				return err
			}
			keyBuf = normalizeRowKey(keyBuf, lrow, leftKeys)
			matchBuf = probeIndexes(indexes, keyBuf, matchBuf[:0])
			if len(matchBuf) == 0 {
				if joinType == sqlparser.JoinLeft {
					out = append(out, concatRows(lrow, pad))
				}
				continue
			}
			for _, ri := range matchBuf {
				out = append(out, concatRows(lrow, projectRight(right.rows[ri])))
			}
		}
		outs[w] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows [][]sheet.Value
	for _, o := range outs {
		rows = append(rows, o...)
	}
	return rows, nil
}

// parHashJoinOn runs the equi-key ON hash join with the worker pool. Every
// probe worker evaluates its own compile of the ON predicate against its
// own scratch row, exactly as the serial path does per candidate.
func parHashJoinOn(left, right *relation, lk, rk []int, join sqlparser.Join, outCols []colDesc, pad []sheet.Value, workers int, env *execEnv) ([][]sheet.Value, error) {
	ons := make([]boundExpr, workers)
	var err error
	for w := range ons {
		if ons[w], err = compileExpr(join.On, env.compileEnv(outCols)); err != nil {
			return nil, err
		}
	}
	indexes, err := parBuildIndexes(right.rows, rk, workers, env)
	if err != nil {
		return nil, err
	}
	leftWidth := len(left.cols)
	ranges := splitRows(len(left.rows), workers)
	outs := make([][][]sheet.Value, len(ranges))
	err = parRun(len(ranges), func(w int) error {
		on := ons[w]
		ctx := env.newRowCtx()
		poll := parPoll{ctx: envCtx(env)}
		scratch := make([]sheet.Value, len(left.cols)+len(right.cols))
		keyBuf := make([]normValue, 0, len(lk))
		var matchBuf []int32
		var out [][]sheet.Value
		for _, lrow := range left.rows[ranges[w][0]:ranges[w][1]] {
			if err := poll.check(); err != nil {
				return err
			}
			keyBuf = normalizeRowKey(keyBuf, lrow, lk)
			matchBuf = probeIndexes(indexes, keyBuf, matchBuf[:0])
			matched := false
			if len(matchBuf) > 0 {
				copy(scratch, lrow)
				for _, ri := range matchBuf {
					copy(scratch[leftWidth:], right.rows[ri])
					ctx.row = scratch
					keep, err := evalBoundPredicate(on, ctx)
					if err != nil {
						return err
					}
					if keep {
						out = append(out, concatRows(lrow, right.rows[ri]))
						matched = true
					}
				}
			}
			if !matched && join.Type == sqlparser.JoinLeft {
				out = append(out, concatRows(lrow, pad))
			}
		}
		outs[w] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows [][]sheet.Value
	for _, o := range outs {
		rows = append(rows, o...)
	}
	return rows, nil
}
