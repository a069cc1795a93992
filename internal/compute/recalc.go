package compute

import (
	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/sheet"
)

// bookSource adapts the workbook to the formula evaluator's DataSource.
type bookSource struct {
	book     *sheet.Book
	ownSheet string
}

func (b *bookSource) CellValue(sheetName string, a sheet.Address) sheet.Value {
	if sheetName == "" {
		sheetName = b.ownSheet
	}
	sh, ok := b.book.Sheet(sheetName)
	if !ok {
		return sheet.ErrRef
	}
	return sh.Value(a)
}

func (b *bookSource) RangeValues(sheetName string, r sheet.Range) [][]sheet.Value {
	if sheetName == "" {
		sheetName = b.ownSheet
	}
	sh, ok := b.book.Sheet(sheetName)
	if !ok {
		return nil
	}
	return sh.Values(r)
}

// probeLimit is the largest reference range whose precedents are always
// found by probing it address by address.
const probeLimit = 512

// markLocked walks from the changed cells (including changed cells that are
// themselves formulas) to every formula they transitively affect, marks each
// one dirty and returns them. Nodes reached by this walk carry its stamp, so
// the walk keeps no visited set; exact readers hang off the node itself, and
// the tile index is probed only while some formula reads a range.
func (e *Engine) markLocked(changed []CellID) []*formulaNode {
	e.walks++
	var reached []*formulaNode
	reach := func(n *formulaNode) {
		if n.stamp != e.walks {
			n.stamp = e.walks
			reached = append(reached, n)
			e.markDirtyLocked(n)
		}
	}
	readers := func(id CellID, exact nodeSet) {
		for n := range exact {
			reach(n)
		}
		if len(e.depIndex) == 0 {
			return
		}
		for n := range e.depIndex[depTile{sheet: id.Sheet, tr: id.Addr.Row / depTileRows, tc: id.Addr.Col / depTileCols}] {
			for _, ref := range n.refs {
				if ref.Range.Size() > 1 && ref.Sheet == id.Sheet && ref.Range.Contains(id.Addr) {
					reach(n)
				}
			}
		}
	}
	// Changed cells arrive in sheet-contiguous runs (e.g. a spilled query
	// result); memoize the sheet-key normalization instead of lowering the
	// same name once per cell.
	var lastRaw, lastKey string
	for _, id := range changed {
		if id.Sheet != lastRaw {
			lastRaw, lastKey = id.Sheet, sheet.FoldName(id.Sheet)
		}
		id.Sheet = lastKey
		if n := e.formulas[id]; n != nil {
			reach(n) // its readers are walked below
		} else {
			readers(id, e.depExact[id])
		}
	}
	for i := 0; i < len(reached); i++ {
		readers(reached[i].id, reached[i].readers)
	}
	return reached
}

// markDirtyLocked queues a node for evaluation.
func (e *Engine) markDirtyLocked(n *formulaNode) {
	if n.state != dirty {
		n.state = dirty
		e.pending = append(e.pending, n)
	}
}

// eachPrecedent calls fn for every node of set that n reads. A small
// reference range is probed address by address, so the common case stays
// linear in the set's size; a huge one falls back to scanning the set.
func eachPrecedent(n *formulaNode, set map[CellID]*formulaNode, fn func(*formulaNode)) {
	for _, ref := range n.refs {
		if size := ref.Range.Size(); size <= probeLimit || size <= len(set) {
			for row := ref.Range.Start.Row; row <= ref.Range.End.Row; row++ {
				for col := ref.Range.Start.Col; col <= ref.Range.End.Col; col++ {
					if p := set[CellID{Sheet: ref.Sheet, Addr: sheet.Addr(row, col)}]; p != nil && p != n {
						fn(p)
					}
				}
			}
			continue
		}
		for _, p := range set {
			if p != n && p.id.Sheet == ref.Sheet && ref.Range.Contains(p.id.Addr) {
				fn(p)
			}
		}
	}
}

// buildDeps computes, for every dirty formula, which other dirty formulas it
// reads (its dirty precedents).
func buildDeps(dirty map[CellID]*formulaNode) map[CellID][]CellID {
	depsOf := make(map[CellID][]CellID, len(dirty))
	for id, node := range dirty {
		eachPrecedent(node, dirty, func(p *formulaNode) { depsOf[id] = append(depsOf[id], p.id) })
	}
	return depsOf
}

// topoOrder orders the dirty formulas so precedents come before dependents.
// Cells participating in a cycle are returned separately.
func topoOrder(dirty map[CellID]*formulaNode, depsOf map[CellID][]CellID) (order []CellID, cyclic []CellID) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[CellID]int, len(dirty))
	inCycle := make(map[CellID]bool)
	var visit func(id CellID)
	visit = func(id CellID) {
		switch color[id] {
		case grey:
			inCycle[id] = true
			return
		case black:
			return
		}
		color[id] = grey
		for _, p := range depsOf[id] {
			visit(p)
		}
		color[id] = black
		order = append(order, id)
	}
	for id := range dirty {
		visit(id)
	}
	if len(inCycle) > 0 {
		// Anything that (transitively) depends on a cycle member is also
		// cyclic; mark members themselves, keep the rest of the order.
		filtered := order[:0]
		for _, id := range order {
			cycle := inCycle[id]
			for _, p := range depsOf[id] {
				if inCycle[p] {
					cycle = true
				}
			}
			if cycle {
				inCycle[id] = true
				cyclic = append(cyclic, id)
			} else {
				filtered = append(filtered, id)
			}
		}
		order = filtered
	}
	return order, cyclic
}

// evaluate runs one formula and stores its value; the caller holds e.mu.
func (e *Engine) evaluate(node *formulaNode) {
	env := &formula.Env{Sheet: node.id.Sheet, At: node.id.Addr, Data: &bookSource{book: e.book, ownSheet: node.id.Sheet}}
	e.store(node, formula.Eval(node.expr, env))
}

func (e *Engine) store(node *formulaNode, v sheet.Value) {
	if sh, ok := e.book.Sheet(node.id.Sheet); ok {
		sh.SetComputedValue(node.id.Addr, v)
	}
}

// RecalcVisibleFirst recomputes every formula affected by the changed cells.
// Before it returns it evaluates only the priority cone: the dirty formulas
// inside a visible window — left dirty by this edit or by an earlier one
// whose background pass has not reached them — plus, transitively, their
// dirty precedents. The cone is closed under dirty precedents, so a cycle
// through a cone node lies inside it and its #CIRC! is visible on return.
// Ordering, cycle marking and evaluation of the rest, and the external
// dependents the edit hit, are left to the background pass (the paper's
// lazy computation). The returned wait function blocks until the first
// background batch that starts after this edit — the one that takes over
// what the edit left — has finished; when nothing is left for it, wait is a
// no-op and no goroutine starts.
func (e *Engine) RecalcVisibleFirst(changed ...CellID) (wait func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	reached := e.markLocked(changed)
	for _, ext := range e.affectedExternalsLocked(changed, reached) {
		if !ext.queued { // one call covers every edit before it
			ext.queued = true
			e.notify = append(e.notify, ext)
		}
	}
	if len(e.pending) > 0 {
		e.evaluateConeLocked()
	}
	live := e.pending[:0]
	for _, n := range e.pending {
		if n.state == dirty {
			live = append(live, n)
		}
	}
	e.pending = live
	if len(e.pending) == 0 && len(e.notify) == 0 {
		return func() {}
	}
	if e.next == nil {
		if e.last == nil {
			go e.drain()
		}
		e.next = make(chan struct{})
		e.last = e.next
	}
	next := e.next
	return func() { <-next }
}

// evaluateConeLocked evaluates the priority cone in dependency order. With
// no window provider every pending formula is in it. Cyclic cone nodes are
// shown as #CIRC! now and stay dirty, so the background batch sees the whole
// cycle and marks the remainder formulas that read it.
func (e *Engine) evaluateConeLocked() {
	var visible map[string]sheet.Range
	if e.visible != nil {
		visible = e.visible()
	}
	var keys []string // each window's sheet key, resolved once per call
	var wins []sheet.Range
	for name, r := range visible {
		keys, wins = append(keys, sheet.FoldName(name)), append(wins, r)
	}
	cone := make(map[CellID]*formulaNode)
	var stack []*formulaNode
	add := func(n *formulaNode) {
		if n.state == dirty && cone[n.id] == nil {
			cone[n.id] = n
			stack = append(stack, n)
		}
	}
	for _, n := range e.pending {
		in := visible == nil
		for i, key := range keys {
			in = in || (key == n.id.Sheet && wins[i].Contains(n.id.Addr))
		}
		if in {
			add(n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		eachPrecedent(n, e.formulas, add)
	}
	order, cyclic := topoOrder(cone, buildDeps(cone))
	for _, id := range cyclic {
		e.store(cone[id], ErrCircular)
	}
	for _, id := range order {
		e.evaluate(cone[id])
		cone[id].state = clean
	}
	e.stats.Evaluations += uint64(len(order))
	e.stats.VisibleFirst += uint64(len(order))
}

// drain is the background pass. Each batch takes every dirty formula and
// every external the edits hit, evaluates the formulas in dependency order
// with e.mu held, calls the externals, then closes the channel that the
// edits made before it started wait on. It repeats while edits leave more.
func (e *Engine) drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.next != nil {
		done := e.next
		e.next = nil
		batch := make(map[CellID]*formulaNode, len(e.pending))
		for _, n := range e.pending {
			if n.state == dirty {
				batch[n.id] = n
			}
		}
		notif := e.notify
		for _, ext := range notif {
			ext.queued = false
		}
		e.pending, e.notify = e.pending[:0], nil
		order, cyclic := topoOrder(batch, buildDeps(batch))
		for _, id := range cyclic {
			e.store(batch[id], ErrCircular)
			batch[id].state = clean
		}
		for _, id := range order {
			e.evaluate(batch[id])
			batch[id].state = clean
		}
		e.stats.Evaluations += uint64(len(order))
		if len(batch) > 0 {
			e.stats.BackgroundRuns++
		}
		e.mu.Unlock()
		for _, ext := range notif {
			ext.callback()
		}
		e.mu.Lock()
		e.stats.ExternalNotifys += uint64(len(notif))
		if e.next == nil {
			e.last = nil // idle once done is closed
		}
		close(done)
	}
}

// RecalcAll synchronously recomputes every registered formula in dependency
// order (used after bulk loads and by the naive baseline comparison).
func (e *Engine) RecalcAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	order, cyclic := topoOrder(e.formulas, buildDeps(e.formulas))
	for _, id := range cyclic {
		e.store(e.formulas[id], ErrCircular)
	}
	for _, id := range order {
		e.evaluate(e.formulas[id])
	}
	e.stats.Evaluations += uint64(len(order))
}

// Wait blocks until the background pass has drained every formula and
// external dependent that edits so far left to it.
func (e *Engine) Wait() {
	e.mu.Lock()
	last := e.last
	e.mu.Unlock()
	if last != nil {
		<-last
	}
}

// affectedExternalsLocked returns external dependents whose watched ranges
// intersect the changed cells or any formula the edit reached.
func (e *Engine) affectedExternalsLocked(changed []CellID, reached []*formulaNode) []*external {
	if len(e.externals) == 0 {
		return nil
	}
	touched := make([]CellID, 0, len(changed)+len(reached))
	for _, id := range changed {
		id.Sheet = sheet.FoldName(id.Sheet)
		touched = append(touched, id)
	}
	for _, n := range reached {
		touched = append(touched, n.id)
	}
	var out []*external
	for _, ext := range e.externals {
	scan:
		for _, id := range touched {
			for _, ref := range ext.refs {
				if ref.Sheet == id.Sheet && ref.Range.Contains(id.Addr) {
					out = append(out, ext)
					break scan
				}
			}
		}
	}
	return out
}
