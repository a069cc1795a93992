// Package compute implements DataSpread's compute engine (paper §3): the
// component that keeps formula results up to date as cells and database
// tables change. It maintains a dependency graph between formula cells and
// their precedents, recomputes dirty formulas in dependency order, and —
// following the paper's "computation optimisation" and "lazy computation"
// semantics — prioritises the formulas whose results are visible in the
// current window, finishing the rest asynchronously in the background.
package compute

import (
	"cmp"
	"strings"
	"sync"

	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/sheet"
)

// CellID identifies a cell across the workbook.
type CellID struct {
	Sheet string
	Addr  sheet.Address
}

// ErrCircular is the error value written to cells participating in a
// circular reference.
var ErrCircular = sheet.ErrorValue("#CIRC!")

// dependency-index tile geometry: precedents are indexed at tile granularity
// so "which formulas read this cell" is answered without scanning every
// formula.
const (
	depTileRows = 64
	depTileCols = 16
)

type depTile struct {
	sheet  string // sheet key
	tr, tc int
}

// nodeSet is a set of formula nodes: the readers of one cell or one tile.
type nodeSet map[*formulaNode]struct{}

// A formula node is clean when its value is current and dirty while it
// waits for an evaluation.
const (
	clean uint8 = iota
	dirty
)

type formulaNode struct {
	id   CellID
	expr formula.Expr
	refs []formula.Reference // sheet keys, "" resolved to the own sheet
	// readers are the formulas reading this cell by exact address: the
	// same set as depExact[id], linked here so a closure walk goes from
	// node to node without hashing a cell key per reached node.
	readers nodeSet
	stamp   uint64 // the last closure walk that reached the node
	state   uint8
}

// external is a non-cell dependent (e.g. a DBSQL binding in the interface
// manager) that wants to be notified when any cell it reads changes.
type external struct {
	refs     []formula.Reference
	callback func()
	queued   bool // in Engine.notify, waiting for the next background batch
}

// Stats counts engine activity for experiments.
type Stats struct {
	Evaluations     uint64 // formula evaluations performed
	VisibleFirst    uint64 // evaluations performed in the priority pass
	BackgroundRuns  uint64 // background batches evaluated
	ExternalNotifys uint64 // external dependents notified
}

// Engine is the compute engine over one workbook. All exported methods are
// safe for concurrent use.
type Engine struct {
	// mu guards the graph, the node states and the counters, and every
	// formula evaluation holds it, so an evaluation never interleaves with
	// a closure walk or with another evaluation.
	mu       sync.Mutex
	book     *sheet.Book
	formulas map[CellID]*formulaNode
	// depIndex indexes range precedents at tile granularity; depExact
	// indexes single-cell precedents by exact address so wide fan-out on a
	// hot cell does not degrade dependent lookups for unrelated cells.
	depIndex  map[depTile]nodeSet
	depExact  map[CellID]nodeSet
	externals map[string]*external
	visible   func() map[string]sheet.Range
	stats     Stats
	walks     uint64         // closure walks so far, the last one's stamp
	pending   []*formulaNode // every dirty node, plus stale clean entries
	notify    []*external    // externals to call once the pending nodes are evaluated
	// next is closed when the background batch that takes the current
	// pending work finishes; nil until an edit leaves work for it. last is
	// the newest such channel, nil while the background pass is idle.
	next, last chan struct{}
}

// New creates a compute engine over the workbook.
func New(book *sheet.Book) *Engine {
	return &Engine{
		book:      book,
		formulas:  make(map[CellID]*formulaNode),
		depIndex:  make(map[depTile]nodeSet),
		depExact:  make(map[CellID]nodeSet),
		externals: make(map[string]*external),
	}
}

// SetVisibleProvider registers the function that reports the currently
// visible range per sheet (the window manager). A nil provider disables
// prioritisation.
func (e *Engine) SetVisibleProvider(fn func() map[string]sheet.Range) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.visible = fn
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// FormulaCount returns the number of registered formula cells.
func (e *Engine) FormulaCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.formulas)
}

// tilesForRange enumerates the dependency-index tiles covering a range of
// the sheet with the given key.
func tilesForRange(key string, r sheet.Range) []depTile {
	var out []depTile
	for tr := r.Start.Row / depTileRows; tr <= r.End.Row/depTileRows; tr++ {
		for tc := r.Start.Col / depTileCols; tc <= r.End.Col/depTileCols; tc++ {
			out = append(out, depTile{sheet: key, tr: tr, tc: tc})
		}
	}
	return out
}

// resolveRefs fills in the owning sheet for unqualified references and
// replaces every sheet name with its key.
func resolveRefs(refs []formula.Reference, ownSheet string) []formula.Reference {
	out := make([]formula.Reference, len(refs))
	for i, r := range refs {
		out[i] = r
		out[i].Sheet = sheet.FoldName(cmp.Or(r.Sheet, ownSheet))
	}
	return out
}

// --- registration ---

// SetValue writes a literal value into a cell and recomputes dependents,
// visible-first. It returns a wait function for the background pass.
func (e *Engine) SetValue(sheetName string, a sheet.Address, v sheet.Value) (wait func()) {
	return e.replaceCell(sheetName, a, func(sh *sheet.Sheet) { sh.SetCell(a, sheet.Cell{Value: v}) })
}

// replaceCell drops any formula at the cell, lets write change the cell and
// recomputes its dependents.
func (e *Engine) replaceCell(sheetName string, a sheet.Address, write func(*sheet.Sheet)) (wait func()) {
	sh, ok := e.book.Sheet(sheetName)
	if !ok {
		return func() {}
	}
	id := CellID{Sheet: sheet.FoldName(sheetName), Addr: a}
	e.mu.Lock()
	e.unregisterLocked(id)
	e.mu.Unlock()
	write(sh)
	return e.RecalcVisibleFirst(id)
}

// SetFormula parses and registers a formula cell, evaluates it, and
// recomputes dependents visible-first. DBSQL/DBTABLE formulas are rejected
// here — the core engine owns those.
func (e *Engine) SetFormula(sheetName string, a sheet.Address, src string) (wait func(), err error) {
	if name, ok := formula.IsDBFormula(src); ok {
		return func() {}, &DBFormulaError{Name: name}
	}
	expr, err := formula.Parse(src)
	if err != nil {
		return func() {}, err
	}
	sh, ok := e.book.Sheet(sheetName)
	if !ok {
		return func() {}, &UnknownSheetError{Name: sheetName}
	}
	id := CellID{Sheet: sheet.FoldName(sheetName), Addr: a}
	node := &formulaNode{id: id, expr: expr, refs: resolveRefs(formula.References(expr), sheetName)}
	e.mu.Lock()
	e.unregisterLocked(id)
	e.formulas[id] = node
	node.readers = e.depExact[id]
	e.linkLocked(node, true)
	e.mu.Unlock()
	src = strings.TrimPrefix(strings.TrimSpace(src), "=")
	sh.SetCell(a, sheet.Cell{Formula: src})
	return e.RecalcVisibleFirst(id), nil
}

// ClearCell removes a cell (value or formula) and recomputes dependents.
func (e *Engine) ClearCell(sheetName string, a sheet.Address) (wait func()) {
	return e.replaceCell(sheetName, a, func(sh *sheet.Sheet) { sh.Clear(a) })
}

// NotifyChanged tells the engine that cells were changed externally (e.g. a
// DBTABLE binding refreshed a region) and triggers dependent recomputation.
func (e *Engine) NotifyChanged(ids ...CellID) (wait func()) {
	return e.RecalcVisibleFirst(ids...)
}

// RegisterExternal registers a non-cell dependent: callback runs whenever any
// cell within refs changes. Used by the interface manager to refresh DBSQL
// results that reference sheet data via RANGEVALUE/RANGETABLE. The callback
// runs on the background pass, so it must not call the wait function of an
// edit it makes: that edit's batch runs only after the callback returns.
func (e *Engine) RegisterExternal(id string, refs []formula.Reference, ownSheet string, callback func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.externals[id] = &external{refs: resolveRefs(refs, ownSheet), callback: callback}
}

// UnregisterExternal removes an external dependent.
func (e *Engine) UnregisterExternal(id string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.externals, id)
}

// unregisterLocked removes a formula node and its dependency-index entries.
// The node ends clean, so no background batch evaluates it.
func (e *Engine) unregisterLocked(id CellID) {
	if node, ok := e.formulas[id]; ok {
		delete(e.formulas, id)
		node.state = clean
		e.linkLocked(node, false)
	}
}

// linkLocked adds node to (or, with add false, removes it from) the
// dependency index of each precedent, keeping the readers of a formula at an
// exact precedent equal to its depExact entry.
func (e *Engine) linkLocked(node *formulaNode, add bool) {
	for _, ref := range node.refs {
		if ref.Range.Size() > 1 {
			for _, t := range tilesForRange(ref.Sheet, ref.Range) {
				link(e.depIndex, t, node, add)
			}
			continue
		}
		key := CellID{Sheet: ref.Sheet, Addr: ref.Range.Start}
		set := link(e.depExact, key, node, add)
		if p := e.formulas[key]; p != nil {
			p.readers = set
		}
	}
}

// link adds n to (or removes it from) m[k] and returns the set left there,
// nil once it is empty.
func link[K comparable](m map[K]nodeSet, k K, n *formulaNode, add bool) nodeSet {
	set := m[k]
	if !add {
		if delete(set, n); len(set) == 0 {
			delete(m, k)
			return nil
		}
		return set
	}
	if set == nil {
		set = make(nodeSet)
		m[k] = set
	}
	set[n] = struct{}{}
	return set
}

// DBFormulaError reports an attempt to register a DBSQL/DBTABLE formula with
// the plain compute engine.
type DBFormulaError struct{ Name string }

func (e *DBFormulaError) Error() string {
	return "compute: " + e.Name + " formulas are evaluated by the core engine, not the compute engine"
}

// UnknownSheetError reports a reference to a sheet that does not exist.
type UnknownSheetError struct{ Name string }

func (e *UnknownSheetError) Error() string { return "compute: unknown sheet " + e.Name }
