package compute

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/sheet"
)

// The recalc oracle drives the engine with a seeded stream of edits over a
// generated workbook and checks it against a reference evaluator that knows
// nothing of dirty sets, cones or background passes:
//
//	(a) when an edit returns, every formula inside a visible window equals
//	    the reference, even while earlier un-waited background passes run;
//	(b) after Wait, every formula equals the reference, and every formula on
//	    or reading a cycle shows #CIRC!.
//
// The reference is the least fixpoint of formula.Eval over the model's
// literals, computed demand-driven: a formula reads the reference value of
// every formula cell it references, and a formula from which a cycle is
// reachable is #CIRC!. Generated formulas use only + and SUM, so the only
// error a cell can hold is #CIRC! and every formula reading one propagates it.

var oracleSheets = []string{"Sheet1", "Sheet2"}

const (
	oracleRows = 700 // column A down to row 600 is read by the > 512-cell ranges
	oracleCols = 6
	oracleWinR = 12 // visible window: 12 rows x 3 columns
	oracleWinC = 3
)

type cellKey struct {
	sheet int
	addr  sheet.Address
}

type oracle struct {
	t     *testing.T
	rng   *rand.Rand
	e     *Engine
	book  *sheet.Book
	lits  map[cellKey]float64
	forms map[cellKey]formula.Expr
	src   map[cellKey]string
	win   map[string]sheet.Range // nil: no window, every recalc is synchronous
	op    int
	hist  map[cellKey][]string // the edits of each cell, for failure messages
}

func newOracle(t *testing.T, seed int64) *oracle {
	book := sheet.NewBook()
	for _, name := range oracleSheets {
		book.AddSheet(name)
	}
	o := &oracle{
		t: t, rng: rand.New(rand.NewSource(seed)), e: New(book), book: book,
		lits: map[cellKey]float64{}, forms: map[cellKey]formula.Expr{}, src: map[cellKey]string{},
		hist: map[cellKey][]string{},
	}
	o.moveWindow()
	return o
}

// sheetIndex resolves a sheet name as written in a formula or a window.
func sheetIndex(name string) int {
	for i, n := range oracleSheets {
		if strings.EqualFold(n, name) {
			return i
		}
	}
	panic("unknown sheet " + name)
}

// spelled returns the sheet's name in a random case.
func (o *oracle) spelled(i int) string {
	switch o.rng.Intn(3) {
	case 0:
		return strings.ToLower(oracleSheets[i])
	case 1:
		return strings.ToUpper(oracleSheets[i])
	}
	return oracleSheets[i]
}

// randomCell picks a cell, mostly near the top of a sheet where windows and
// small ranges look.
func (o *oracle) randomCell() cellKey {
	row := o.rng.Intn(80)
	if o.rng.Intn(10) == 0 {
		row = o.rng.Intn(oracleRows)
	}
	return cellKey{o.rng.Intn(len(oracleSheets)), sheet.Addr(row, o.rng.Intn(oracleCols))}
}

// refCell picks a cell for a formula to read: half the time an existing
// formula, so chains and cycles form.
func (o *oracle) refCell() cellKey {
	if len(o.forms) > 0 && o.rng.Intn(2) == 0 {
		n := o.rng.Intn(len(o.forms))
		for k := range o.forms {
			if n == 0 {
				return k
			}
			n--
		}
	}
	return o.randomCell()
}

// refText writes a reference to r from a formula on sheet own, qualified by
// a randomly cased sheet name unless r is on the same sheet.
func (o *oracle) refText(own int, r sheet.Range, sh int) string {
	text := r.Start.String()
	if r.Size() > 1 {
		text += ":" + r.End.String()
	}
	if sh != own || o.rng.Intn(2) == 0 {
		text = o.spelled(sh) + "!" + text
	}
	return text
}

// genFormula builds a formula for cell at that does not read its own cell.
func (o *oracle) genFormula(at cellKey) string {
	for {
		var src string
		var reads []cellKey // the cells or range corners the formula reads
		var rng sheet.Range
		switch k := o.rng.Intn(10); {
		case k < 6: // single-cell references, often on the other sheet
			x, y := o.refCell(), o.refCell()
			reads = []cellKey{x, y}
			src = fmt.Sprintf("=%s+%s+%d",
				o.refText(at.sheet, sheet.Range{Start: x.addr, End: x.addr}, x.sheet),
				o.refText(at.sheet, sheet.Range{Start: y.addr, End: y.addr}, y.sheet), o.rng.Intn(5))
		case k < 9: // a small range: probed address by address
			c := o.randomCell()
			rng = sheet.RangeOf(c.addr.Row, c.addr.Col, c.addr.Row+o.rng.Intn(12), min(c.addr.Col+o.rng.Intn(3), oracleCols-1))
			reads = []cellKey{{c.sheet, rng.Start}}
			src = "=SUM(" + o.refText(at.sheet, rng, c.sheet) + ")+1"
		default: // a range over 512 cells: the scan fallback
			sh, col := o.rng.Intn(len(oracleSheets)), o.rng.Intn(oracleCols-1)
			if o.rng.Intn(2) == 0 {
				rng = sheet.RangeOf(0, col, 599, col)
			} else {
				rng = sheet.RangeOf(0, col, 299, col+1)
			}
			reads = []cellKey{{sh, rng.Start}}
			src = "=SUM(" + o.refText(at.sheet, rng, sh) + ")"
		}
		self := false
		for _, r := range reads {
			if r == at {
				self = true
			}
		}
		if rng.Size() > 1 && reads[0].sheet == at.sheet && rng.Contains(at.addr) {
			self = true
		}
		if !self {
			return src
		}
	}
}

func (o *oracle) moveWindow() {
	if o.rng.Intn(20) == 0 {
		o.win = nil
	} else {
		o.win = map[string]sheet.Range{}
		for i := range oracleSheets {
			if i == 0 || o.rng.Intn(2) == 0 {
				r, c := o.rng.Intn(70), o.rng.Intn(oracleCols-oracleWinC+1)
				o.win[o.spelled(i)] = sheet.RangeOf(r, c, r+oracleWinR-1, c+oracleWinC-1)
			}
		}
	}
	win := o.win
	if win == nil {
		o.e.SetVisibleProvider(func() map[string]sheet.Range { return nil })
		return
	}
	o.e.SetVisibleProvider(func() map[string]sheet.Range { return win })
}

func (o *oracle) visible(k cellKey) bool {
	if o.win == nil {
		return true
	}
	for name, r := range o.win {
		if sheetIndex(name) == k.sheet && r.Contains(k.addr) {
			return true
		}
	}
	return false
}

// --- edits: engine and model together ---

func (o *oracle) note(k cellKey, what string) {
	o.hist[k] = append(o.hist[k], fmt.Sprintf("op %d: %s (window %v)", o.op, what, o.win))
}

func (o *oracle) setLiteral(k cellKey, v float64) func() {
	o.note(k, fmt.Sprint("literal ", v))
	delete(o.forms, k)
	delete(o.src, k)
	o.lits[k] = v
	return o.e.SetValue(o.spelled(k.sheet), k.addr, sheet.Number(v))
}

func (o *oracle) setFormula(k cellKey, src string) func() {
	expr, err := formula.Parse(src)
	if err != nil {
		o.t.Fatalf("generated formula %q: %v", src, err)
	}
	o.note(k, src)
	delete(o.lits, k)
	o.forms[k], o.src[k] = expr, src
	wait, err := o.e.SetFormula(o.spelled(k.sheet), k.addr, src)
	if err != nil {
		o.t.Fatalf("SetFormula(%q): %v", src, err)
	}
	return wait
}

func (o *oracle) clearCell(k cellKey) func() {
	o.note(k, "clear")
	delete(o.lits, k)
	delete(o.forms, k)
	delete(o.src, k)
	return o.e.ClearCell(o.spelled(k.sheet), k.addr)
}

// straddle builds a cycle through a visible cell and a hidden one, plus a
// hidden formula that reads the cycle: the cone must show the visible #CIRC!
// and the background pass must mark the hidden reader.
func (o *oracle) straddle() []func() {
	var vis, hid []cellKey
	for i := 0; i < 200 && (len(vis) == 0 || len(hid) < 2); i++ {
		if k := o.randomCell(); o.visible(k) {
			vis = append(vis, k)
		} else if len(hid) == 0 || hid[0] != k {
			hid = append(hid, k)
		}
	}
	if len(vis) == 0 || len(hid) < 2 {
		return nil
	}
	v, h, d := vis[0], hid[0], hid[1]
	ref := func(from, to cellKey) string {
		return o.refText(from.sheet, sheet.Range{Start: to.addr, End: to.addr}, to.sheet)
	}
	return []func(){
		o.setFormula(d, "="+ref(d, h)+"+2"),
		o.setFormula(h, "="+ref(h, v)+"+1"),
		o.setFormula(v, "="+ref(v, h)+"+1"),
	}
}

// --- the reference evaluator ---

type reference struct {
	o    *oracle
	mark map[cellKey]int // 1 on the DFS stack, 2 no cycle reachable, 3 cycle reachable
	vals map[cellKey]sheet.Value
}

func (o *oracle) reference() *reference {
	return &reference{o: o, mark: map[cellKey]int{}, vals: map[cellKey]sheet.Value{}}
}

// precedents lists the formula cells k reads.
func (r *reference) precedents(k cellKey) []cellKey {
	var out []cellKey
	for _, ref := range formula.References(r.o.forms[k]) {
		sh := k.sheet
		if ref.Sheet != "" {
			sh = sheetIndex(ref.Sheet)
		}
		if ref.Range.Size() <= len(r.o.forms) {
			for row := ref.Range.Start.Row; row <= ref.Range.End.Row; row++ {
				for col := ref.Range.Start.Col; col <= ref.Range.End.Col; col++ {
					if p := (cellKey{sh, sheet.Addr(row, col)}); p != k && r.o.forms[p] != nil {
						out = append(out, p)
					}
				}
			}
			continue
		}
		for p := range r.o.forms {
			if p.sheet == sh && ref.Range.Contains(p.addr) && p != k {
				out = append(out, p)
			}
		}
	}
	return out
}

// cyclic reports whether a cycle is reachable from formula k.
func (r *reference) cyclic(k cellKey) bool {
	switch r.mark[k] {
	case 1, 3:
		return true
	case 2:
		return false
	}
	r.mark[k] = 1
	c := false
	for _, p := range r.precedents(k) {
		c = r.cyclic(p) || c
	}
	r.mark[k] = 2
	if c {
		r.mark[k] = 3
	}
	return c
}

func (r *reference) value(k cellKey) sheet.Value {
	if v, ok := r.vals[k]; ok {
		return v
	}
	if _, ok := r.o.forms[k]; !ok {
		if f, ok := r.o.lits[k]; ok {
			return sheet.Number(f)
		}
		return sheet.Empty()
	}
	v := ErrCircular
	if !r.cyclic(k) {
		v = formula.Eval(r.o.forms[k], &formula.Env{Sheet: oracleSheets[k.sheet], At: k.addr, Data: refSource{r, k.sheet}})
	}
	r.vals[k] = v
	return v
}

type refSource struct {
	r   *reference
	own int
}

func (s refSource) sheetOf(name string) int {
	if name == "" {
		return s.own
	}
	return sheetIndex(name)
}

func (s refSource) CellValue(name string, a sheet.Address) sheet.Value {
	return s.r.value(cellKey{s.sheetOf(name), a})
}

func (s refSource) RangeValues(name string, rg sheet.Range) [][]sheet.Value {
	out := make([][]sheet.Value, rg.Rows())
	for i := range out {
		out[i] = make([]sheet.Value, rg.Cols())
		for j := range out[i] {
			out[i][j] = s.CellValue(name, sheet.Addr(rg.Start.Row+i, rg.Start.Col+j))
		}
	}
	return out
}

// check compares every formula cell selected by want against the reference.
func (o *oracle) check(what string, want func(cellKey) bool) {
	o.t.Helper()
	ref := o.reference()
	for k := range o.forms {
		if !want(k) {
			continue
		}
		sh, _ := o.book.Sheet(oracleSheets[k.sheet])
		got, exp := sh.Value(k.addr), ref.value(k)
		if got.Kind != exp.Kind || got.Num != exp.Num || got.Err != exp.Err {
			o.t.Fatalf("%s: %s!%s (%s) = %v, reference %v; the formulas under it:\n%s",
				what, oracleSheets[k.sheet], k.addr, o.src[k], got, exp, o.explain(ref, k, 0, map[cellKey]bool{}))
		}
	}
}

// explain prints the formula tree under k: each formula with its engine
// value, its reference value and its edits.
func (o *oracle) explain(ref *reference, k cellKey, depth int, seen map[cellKey]bool) string {
	if seen[k] || depth > 6 {
		return ""
	}
	seen[k] = true
	sh, _ := o.book.Sheet(oracleSheets[k.sheet])
	out := fmt.Sprintf("%s%s!%s %s: engine %v, reference %v, edits %v\n", strings.Repeat("  ", depth),
		oracleSheets[k.sheet], k.addr, o.src[k], sh.Value(k.addr), ref.value(k), o.hist[k])
	for _, p := range ref.precedents(k) {
		out += o.explain(ref, p, depth+1, seen)
	}
	return out
}

// run applies ops generated edits. Every edit's wait is called or dropped
// at random, so background passes overlap later edits; the check after an
// edit covers the visible formulas, the one after Wait covers all of them.
func (o *oracle) run(ops int) {
	for i := 0; i < ops; i++ {
		o.op = i
		var waits []func()
		switch r := o.rng.Intn(100); {
		case r < 10:
			o.moveWindow()
			continue
		case r < 45:
			waits = append(waits, o.setLiteral(o.randomCell(), float64(o.rng.Intn(100))))
		case r < 75:
			k := o.randomCell()
			waits = append(waits, o.setFormula(k, o.genFormula(k)))
		case r < 82:
			waits = append(waits, o.clearCell(o.refCell()))
		case r < 88:
			waits = o.straddle()
		default: // overwrite a formula (or, rarely, a fresh cell) with a literal
			waits = append(waits, o.setLiteral(o.refCell(), float64(o.rng.Intn(100))))
		}
		if len(waits) == 0 {
			continue // no edit: newly visible cells may still be stale
		}
		o.check(fmt.Sprintf("op %d, visible on return", i), o.visible)
		if o.rng.Intn(2) == 0 {
			for _, w := range waits {
				w()
			}
		}
		if i%20 == 19 {
			o.e.Wait()
			o.check(fmt.Sprintf("op %d, after Wait", i), func(cellKey) bool { return true })
		}
	}
	o.e.Wait()
	o.check("final, after Wait", func(cellKey) bool { return true })
}

func TestRecalcOracle(t *testing.T) {
	ops := 1200
	if raceEnabled {
		ops = 400
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			o := newOracle(t, seed)
			o.run(ops)
			if len(o.forms) == 0 {
				t.Fatal("generator produced no formulas")
			}
		})
	}
}
