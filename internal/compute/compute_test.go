package compute

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/sheet"
)

func newEngine(t *testing.T) (*Engine, *sheet.Book) {
	t.Helper()
	book := sheet.NewBook()
	book.AddSheet("Sheet1")
	book.AddSheet("Sheet2")
	return New(book), book
}

func addr(s string) sheet.Address { return sheet.MustParseAddress(s) }

func cellValue(t *testing.T, b *sheet.Book, sheetName, ref string) sheet.Value {
	t.Helper()
	sh, ok := b.Sheet(sheetName)
	if !ok {
		t.Fatalf("no sheet %s", sheetName)
	}
	return sh.Value(addr(ref))
}

func TestSetValueAndFormulaBasic(t *testing.T) {
	e, b := newEngine(t)
	e.SetValue("Sheet1", addr("A1"), sheet.Number(10))()
	e.SetValue("Sheet1", addr("A2"), sheet.Number(32))()
	wait, err := e.SetFormula("Sheet1", addr("B1"), "=A1+A2")
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if got := cellValue(t, b, "Sheet1", "B1"); got.Num != 42 {
		t.Errorf("B1 = %v", got)
	}
	// Changing a precedent updates the dependent.
	e.SetValue("Sheet1", addr("A1"), sheet.Number(100))()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "B1"); got.Num != 132 {
		t.Errorf("B1 after change = %v", got)
	}
	if e.FormulaCount() != 1 {
		t.Errorf("FormulaCount = %d", e.FormulaCount())
	}
}

func TestFormulaChains(t *testing.T) {
	e, b := newEngine(t)
	e.SetValue("Sheet1", addr("A1"), sheet.Number(1))()
	mustFormula(t, e, "Sheet1", "B1", "=A1*2")
	mustFormula(t, e, "Sheet1", "C1", "=B1*2")
	mustFormula(t, e, "Sheet1", "D1", "=C1*2+B1")
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "D1"); got.Num != 10 {
		t.Errorf("D1 = %v", got)
	}
	// A single change at the root ripples through the whole chain.
	e.SetValue("Sheet1", addr("A1"), sheet.Number(5))()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "D1"); got.Num != 50 {
		t.Errorf("D1 after ripple = %v", got)
	}
	if got := cellValue(t, b, "Sheet1", "C1"); got.Num != 20 {
		t.Errorf("C1 after ripple = %v", got)
	}
}

func mustFormula(t *testing.T, e *Engine, sheetName, ref, src string) {
	t.Helper()
	wait, err := e.SetFormula(sheetName, addr(ref), src)
	if err != nil {
		t.Fatalf("SetFormula(%s, %s): %v", ref, src, err)
	}
	wait()
}

func TestRangeFormulasAndCrossSheet(t *testing.T) {
	e, b := newEngine(t)
	for i := 1; i <= 20; i++ {
		e.SetValue("Sheet1", addr(fmt.Sprintf("A%d", i)), sheet.Number(float64(i)))()
	}
	e.SetValue("Sheet2", addr("A1"), sheet.Number(1000))()
	mustFormula(t, e, "Sheet1", "C1", "=SUM(A1:A20)")
	mustFormula(t, e, "Sheet1", "C2", "=SUM(A1:A10)+Sheet2!A1")
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "C1"); got.Num != 210 {
		t.Errorf("C1 = %v", got)
	}
	if got := cellValue(t, b, "Sheet1", "C2"); got.Num != 1055 {
		t.Errorf("C2 = %v", got)
	}
	// Changing a cell inside the range updates both; changing a cell on the
	// other sheet updates only the cross-sheet formula.
	e.SetValue("Sheet1", addr("A5"), sheet.Number(105))()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "C1"); got.Num != 310 {
		t.Errorf("C1 after range change = %v", got)
	}
	e.SetValue("Sheet2", addr("A1"), sheet.Number(2000))()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "C2"); got.Num != 2155 {
		t.Errorf("C2 after cross-sheet change = %v", got)
	}
}

func TestClearCellAndOverwriteFormula(t *testing.T) {
	e, b := newEngine(t)
	e.SetValue("Sheet1", addr("A1"), sheet.Number(2))()
	mustFormula(t, e, "Sheet1", "B1", "=A1*10")
	// Overwrite the formula with another formula.
	mustFormula(t, e, "Sheet1", "B1", "=A1*100")
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "B1"); got.Num != 200 {
		t.Errorf("B1 = %v", got)
	}
	if e.FormulaCount() != 1 {
		t.Errorf("FormulaCount after overwrite = %d", e.FormulaCount())
	}
	// Overwrite with a literal: the old dependency must be gone.
	e.SetValue("Sheet1", addr("B1"), sheet.Number(7))()
	e.SetValue("Sheet1", addr("A1"), sheet.Number(3))()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "B1"); got.Num != 7 {
		t.Errorf("B1 should stay a literal: %v", got)
	}
	if e.FormulaCount() != 0 {
		t.Errorf("FormulaCount after literal overwrite = %d", e.FormulaCount())
	}
	// ClearCell removes content and dependencies.
	mustFormula(t, e, "Sheet1", "C1", "=A1")
	e.ClearCell("Sheet1", addr("C1"))()
	if e.FormulaCount() != 0 {
		t.Error("ClearCell should unregister the formula")
	}
	if got := cellValue(t, b, "Sheet1", "C1"); !got.IsEmpty() {
		t.Errorf("C1 should be empty: %v", got)
	}
}

func TestCircularReferenceDetection(t *testing.T) {
	e, b := newEngine(t)
	mustFormula(t, e, "Sheet1", "A1", "=B1+1")
	mustFormula(t, e, "Sheet1", "B1", "=A1+1")
	e.Wait()
	a := cellValue(t, b, "Sheet1", "A1")
	bv := cellValue(t, b, "Sheet1", "B1")
	if a.Err != ErrCircular.Err && bv.Err != ErrCircular.Err {
		t.Errorf("circular cells = %v, %v", a, bv)
	}
	// A formula depending on the cycle is also marked.
	mustFormula(t, e, "Sheet1", "C1", "=A1*2")
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "C1"); !got.IsError() {
		t.Errorf("dependent of cycle = %v", got)
	}
	// Breaking the cycle heals everything.
	e.SetValue("Sheet1", addr("B1"), sheet.Number(1))()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "A1"); got.Num != 2 {
		t.Errorf("A1 after breaking cycle = %v", got)
	}
	if got := cellValue(t, b, "Sheet1", "C1"); got.Num != 4 {
		t.Errorf("C1 after breaking cycle = %v", got)
	}
}

func TestDBFormulaRejectedAndUnknownSheet(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.SetFormula("Sheet1", addr("A1"), `=DBSQL("SELECT 1")`); err == nil {
		t.Error("DBSQL should be rejected by the compute engine")
	}
	if _, err := e.SetFormula("NoSheet", addr("A1"), "=1+1"); err == nil {
		t.Error("unknown sheet should be rejected")
	}
	if _, err := e.SetFormula("Sheet1", addr("A1"), "=1+"); err == nil {
		t.Error("invalid formula should be rejected")
	}
	// SetValue/ClearCell on unknown sheets are no-ops.
	e.SetValue("NoSheet", addr("A1"), sheet.Number(1))()
	e.ClearCell("NoSheet", addr("A1"))()
}

func TestVisibleFirstPrioritization(t *testing.T) {
	e, b := newEngine(t)
	// One input cell, many dependent formulas; only a few are visible.
	e.SetValue("Sheet1", addr("A1"), sheet.Number(1))()
	const n = 300
	for i := 0; i < n; i++ {
		mustFormula(t, e, "Sheet1", fmt.Sprintf("B%d", i+1), "=A1*2")
	}
	e.Wait()
	visibleRange := sheet.MustParseRange("B1:B10")
	e.SetVisibleProvider(func() map[string]sheet.Range {
		return map[string]sheet.Range{"Sheet1": visibleRange}
	})
	before := e.Stats()
	wait := e.SetValue("Sheet1", addr("A1"), sheet.Number(3))
	// Before waiting for the background pass, every visible cell must
	// already be up to date.
	for i := 0; i < 10; i++ {
		if got := cellValue(t, b, "Sheet1", fmt.Sprintf("B%d", i+1)); got.Num != 6 {
			t.Fatalf("visible cell B%d not prioritised: %v", i+1, got)
		}
	}
	mid := e.Stats()
	if v := mid.VisibleFirst - before.VisibleFirst; v != 10 {
		t.Errorf("priority pass evaluated %d formulas, want 10", v)
	}
	wait()
	after := e.Stats()
	if total := after.Evaluations - before.Evaluations; total != n {
		t.Errorf("total evaluations = %d, want %d", total, n)
	}
	// After the background pass everything is consistent.
	for i := 0; i < n; i++ {
		if got := cellValue(t, b, "Sheet1", fmt.Sprintf("B%d", i+1)); got.Num != 6 {
			t.Fatalf("background cell B%d stale: %v", i+1, got)
		}
	}
	if after.BackgroundRuns == 0 {
		t.Error("expected a background run")
	}
}

func TestPriorityIncludesHiddenPrecedents(t *testing.T) {
	e, b := newEngine(t)
	e.SetValue("Sheet1", addr("A1"), sheet.Number(1))()
	// Hidden intermediate Z100 feeds visible B1.
	mustFormula(t, e, "Sheet1", "Z100", "=A1*10")
	mustFormula(t, e, "Sheet1", "B1", "=Z100+1")
	e.Wait()
	e.SetVisibleProvider(func() map[string]sheet.Range {
		return map[string]sheet.Range{"Sheet1": sheet.MustParseRange("A1:C10")}
	})
	_ = e.SetValue("Sheet1", addr("A1"), sheet.Number(2))
	// Without waiting: the visible B1 must be correct, which requires the
	// off-screen precedent Z100 to have been computed in the priority pass.
	if got := cellValue(t, b, "Sheet1", "B1"); got.Num != 21 {
		t.Errorf("visible dependent of hidden precedent = %v", got)
	}
	e.Wait()
}

func TestRecalcAll(t *testing.T) {
	e, b := newEngine(t)
	e.SetValue("Sheet1", addr("A1"), sheet.Number(4))()
	mustFormula(t, e, "Sheet1", "B1", "=A1*A1")
	mustFormula(t, e, "Sheet1", "C1", "=B1+1")
	// Corrupt the stored values to prove RecalcAll recomputes them.
	sh, _ := b.Sheet("Sheet1")
	sh.SetComputedValue(addr("B1"), sheet.Number(-1))
	sh.SetComputedValue(addr("C1"), sheet.Number(-1))
	e.RecalcAll()
	if cellValue(t, b, "Sheet1", "B1").Num != 16 || cellValue(t, b, "Sheet1", "C1").Num != 17 {
		t.Error("RecalcAll did not restore values")
	}
}

func TestExternalDependents(t *testing.T) {
	e, _ := newEngine(t)
	e.SetValue("Sheet1", addr("B1"), sheet.Number(1))()
	fired := 0
	e.RegisterExternal("dbsql-1", []formula.Reference{
		{Sheet: "Sheet1", Range: sheet.MustParseRange("B1:B2")},
	}, "Sheet1", func() { fired++ })
	e.SetValue("Sheet1", addr("B1"), sheet.Number(2))()
	e.Wait()
	if fired != 1 {
		t.Errorf("external fired %d times, want 1", fired)
	}
	// Changes outside the watched range do not fire.
	e.SetValue("Sheet1", addr("Z9"), sheet.Number(1))()
	e.Wait()
	if fired != 1 {
		t.Errorf("external fired on unrelated change")
	}
	// A formula recomputation inside the watched range fires too.
	mustFormula(t, e, "Sheet1", "B2", "=Z9*2")
	e.Wait()
	fired = 0
	e.SetValue("Sheet1", addr("Z9"), sheet.Number(5))()
	e.Wait()
	if fired != 1 {
		t.Errorf("external fired %d times after dependent formula change, want 1", fired)
	}
	e.UnregisterExternal("dbsql-1")
	e.SetValue("Sheet1", addr("B1"), sheet.Number(3))()
	e.Wait()
	if fired != 1 {
		t.Error("unregistered external should not fire")
	}
}

func TestNotifyChanged(t *testing.T) {
	e, b := newEngine(t)
	sh, _ := b.Sheet("Sheet1")
	// Simulate a DBTABLE refresh writing values directly into the sheet.
	sh.SetValue(addr("A1"), sheet.Number(10))
	sh.SetValue(addr("A2"), sheet.Number(20))
	mustFormula(t, e, "Sheet1", "B1", "=SUM(A1:A2)")
	e.Wait()
	sh.SetValue(addr("A2"), sheet.Number(30))
	e.NotifyChanged(CellID{Sheet: "Sheet1", Addr: addr("A2")})()
	e.Wait()
	if got := cellValue(t, b, "Sheet1", "B1"); got.Num != 40 {
		t.Errorf("B1 after NotifyChanged = %v", got)
	}
}

func TestManyIndependentFormulasStatsAndConsistency(t *testing.T) {
	e, b := newEngine(t)
	const n = 500
	for i := 0; i < n; i++ {
		e.SetValue("Sheet1", sheet.Addr(i, 0), sheet.Number(float64(i)))()
	}
	for i := 0; i < n; i++ {
		mustFormula(t, e, "Sheet1", sheet.Addr(i, 1).String(), fmt.Sprintf("=A%d*2", i+1))
	}
	e.Wait()
	for i := 0; i < n; i += 47 {
		if got := cellValue(t, b, "Sheet1", sheet.Addr(i, 1).String()); got.Num != float64(i*2) {
			t.Fatalf("row %d = %v", i, got)
		}
	}
	if e.Stats().Evaluations < uint64(n) {
		t.Error("expected at least one evaluation per formula")
	}
}

// TestConcurrentEditsStatsAndWindows runs un-waited edits from several
// goroutines while the visible window moves and Stats is read; under -race
// (make racecheck) it guards the engine's locking, and after Wait every
// formula must hold its final value.
func TestConcurrentEditsStatsAndWindows(t *testing.T) {
	e, b := newEngine(t)
	const writers, rows, edits = 3, 200, 150
	for w := 0; w < writers; w++ {
		e.SetValue("Sheet1", sheet.Addr(0, w), sheet.Number(0))()
		for r := 1; r <= rows; r++ {
			mustFormula(t, e, "Sheet1", sheet.Addr(r, w).String(), fmt.Sprintf("=%s+%d", sheet.Addr(r-1, w), r))
		}
	}
	mustFormula(t, e, "Sheet2", "A1", fmt.Sprintf("=SUM(Sheet1!A1:C%d)", rows+1))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= edits; i++ {
				_ = e.SetValue("Sheet1", sheet.Addr(0, w), sheet.Number(float64(i)))
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			top := (i * 7) % rows
			e.SetVisibleProvider(func() map[string]sheet.Range {
				return map[string]sheet.Range{"SHEET1": sheet.RangeOf(top, 0, top+20, 2)}
			})
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Stats()
			_ = e.FormulaCount()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	e.Wait()
	total := 0.0
	for w := 0; w < writers; w++ {
		for r := 0; r <= rows; r++ {
			want := float64(edits + r*(r+1)/2)
			if got := cellValue(t, b, "Sheet1", sheet.Addr(r, w).String()); got.Num != want {
				t.Fatalf("Sheet1!%s = %v, want %v", sheet.Addr(r, w), got, want)
			}
			total += want
		}
	}
	if got := cellValue(t, b, "Sheet2", "A1"); got.Num != total {
		t.Fatalf("Sheet2!A1 = %v, want %v", got, total)
	}
}

// TestEditWaitUnderSustainedEdits pins that an edit's wait covers that
// edit's background work and returns while another goroutine keeps editing:
// every edit leaves hidden dependants and hits a slow external dependent,
// during whose callback the next edit lands, so the background pass never
// runs dry.
func TestEditWaitUnderSustainedEdits(t *testing.T) {
	e, b := newEngine(t)
	const rows = 300
	for col := 0; col < 2; col++ {
		e.SetValue("Sheet1", sheet.Addr(0, col), sheet.Number(0))()
		for r := 1; r <= rows; r++ {
			mustFormula(t, e, "Sheet1", sheet.Addr(r, col).String(), fmt.Sprintf("=%s+1", sheet.Addr(r-1, col)))
		}
	}
	e.SetVisibleProvider(func() map[string]sheet.Range {
		return map[string]sheet.Range{"Sheet1": sheet.RangeOf(0, 0, 9, 1)}
	})
	refs := []formula.Reference{{Range: sheet.RangeOf(0, 1, 0, 1)}}
	e.RegisterExternal("slow", refs, "Sheet1", func() { time.Sleep(time.Millisecond) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = e.SetValue("Sheet1", sheet.Addr(0, 1), sheet.Number(float64(i)))
			}
		}
	}()
	defer func() { close(stop); wg.Wait(); e.Wait() }()
	last := sheet.Addr(rows, 0)
	for i := 1; i <= 20; i++ {
		wait := e.SetValue("Sheet1", sheet.Addr(0, 0), sheet.Number(float64(i)))
		returned := make(chan struct{})
		go func() { wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("edit %d: its wait did not return while another goroutine kept editing", i)
		}
		if got := cellValue(t, b, "Sheet1", last.String()); got.Num != float64(i+rows) {
			t.Fatalf("edit %d: Sheet1!%s = %v after its wait, want %d", i, last, got, i+rows)
		}
	}
}

// TestEmptyPassIsFree pins that an edit with nothing left for the background
// pass — no dependant outside the window, no external hit — returns a no-op
// wait and starts no goroutine.
func TestEmptyPassIsFree(t *testing.T) {
	e, _ := newEngine(t)
	e.SetValue("Sheet1", addr("A1"), sheet.Number(1))()
	mustFormula(t, e, "Sheet1", "B1", "=A1*2")
	e.SetVisibleProvider(func() map[string]sheet.Range {
		return map[string]sheet.Range{"Sheet1": sheet.MustParseRange("A1:C10")}
	})
	e.Wait()
	before := e.Stats()
	idle := func(what string) {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.last != nil {
			t.Errorf("%s started a background pass", what)
		}
	}
	e.NotifyChanged(CellID{Sheet: "Sheet1", Addr: addr("Z99")}, CellID{Sheet: "Sheet2", Addr: addr("A1")})()
	idle("a change nothing reads")
	e.SetValue("Sheet1", addr("A1"), sheet.Number(5))()
	idle("an edit whose only dependant is visible")
	after := e.Stats()
	if after.BackgroundRuns != before.BackgroundRuns || after.VisibleFirst-before.VisibleFirst != 1 {
		t.Errorf("stats moved from %+v to %+v", before, after)
	}
}
