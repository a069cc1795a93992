package sheet

import (
	"math/rand"
	"sync"
	"testing"
)

func TestMapCellStoreBasic(t *testing.T) {
	s := NewMapCellStore()
	if s.Len() != 0 {
		t.Fatal("new store should be empty")
	}
	a := Addr(2, 3)
	s.Set(a, Cell{Value: Number(7)})
	got, ok := s.Get(a)
	if !ok || got.Value.Num != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatal("Len != 1")
	}
	s.Delete(a)
	if _, ok := s.Get(a); ok {
		t.Fatal("Delete failed")
	}
	// Setting an empty cell removes it.
	s.Set(a, Cell{Value: Number(1)})
	s.Set(a, Cell{})
	if s.Len() != 0 {
		t.Fatal("setting empty cell should delete")
	}
}

func TestMapCellStoreGetRangeBothPaths(t *testing.T) {
	s := NewMapCellStore()
	for r := 0; r < 20; r++ {
		for c := 0; c < 5; c++ {
			s.Set(Addr(r, c), Cell{Value: Number(float64(r*10 + c))})
		}
	}
	count := func(r Range) int {
		n := 0
		s.GetRange(r, func(Address, Cell) { n++ })
		return n
	}
	// Small range (probe path).
	if got := count(RangeOf(0, 0, 2, 2)); got != 9 {
		t.Errorf("small range count = %d, want 9", got)
	}
	// Large range (scan path): covers everything plus empty area.
	if got := count(RangeOf(0, 0, 1000, 1000)); got != 100 {
		t.Errorf("large range count = %d, want 100", got)
	}
}

func TestMapCellStoreBounds(t *testing.T) {
	s := NewMapCellStore()
	if _, ok := s.Bounds(); ok {
		t.Fatal("empty store should have no bounds")
	}
	s.Set(Addr(5, 2), Cell{Value: Number(1)})
	s.Set(Addr(1, 7), Cell{Value: Number(2)})
	b, ok := s.Bounds()
	if !ok || b != RangeOf(1, 2, 5, 7) {
		t.Errorf("Bounds = %+v ok=%v", b, ok)
	}
}

func TestMapCellStoreInsertRows(t *testing.T) {
	s := NewMapCellStore()
	for r := 0; r < 10; r++ {
		s.Set(Addr(r, 0), Cell{Value: Number(float64(r))})
	}
	s.InsertRows(5, 3)
	if c, ok := s.Get(Addr(4, 0)); !ok || c.Value.Num != 4 {
		t.Error("cells above insertion point should not move")
	}
	if _, ok := s.Get(Addr(5, 0)); ok {
		t.Error("insertion band should be empty")
	}
	if c, ok := s.Get(Addr(8, 0)); !ok || c.Value.Num != 5 {
		t.Error("cells below insertion point should shift down")
	}
	// Delete rows 2..4 (count=-3 at row 2): the values 2,3,4 disappear and
	// everything below shifts up by 3, so the empty inserted band lands at
	// rows 2..4 and value 5 lands back at row 5.
	s.InsertRows(2, -3)
	if _, ok := s.Get(Addr(2, 0)); ok {
		t.Error("deleted band should be empty after shift")
	}
	if c, ok := s.Get(Addr(5, 0)); !ok || c.Value.Num != 5 {
		t.Errorf("after delete, row 5 = %+v ok=%v, want 5", c, ok)
	}
}

func TestMapCellStoreInsertCols(t *testing.T) {
	s := NewMapCellStore()
	for c := 0; c < 6; c++ {
		s.Set(Addr(0, c), Cell{Value: Number(float64(c))})
	}
	s.InsertCols(3, 2)
	if c, _ := s.Get(Addr(0, 2)); c.Value.Num != 2 {
		t.Error("left of insertion should not move")
	}
	if _, ok := s.Get(Addr(0, 3)); ok {
		t.Error("insertion band should be empty")
	}
	if c, _ := s.Get(Addr(0, 5)); c.Value.Num != 3 {
		t.Error("right of insertion should shift")
	}
	s.InsertCols(0, -1)
	if c, _ := s.Get(Addr(0, 1)); c.Value.Num != 2 {
		t.Error("column delete wrong")
	}
}

func TestCellPredicates(t *testing.T) {
	if !(Cell{}).IsEmpty() {
		t.Error("zero cell should be empty")
	}
	if (Cell{Value: Number(1)}).IsEmpty() {
		t.Error("cell with value is not empty")
	}
	if (Cell{Origin: Origin{Kind: OriginTable, BindingID: 3}}).IsEmpty() {
		t.Error("cell with origin is not empty")
	}
	if !(Cell{Formula: "SUM(A1:A2)"}).IsFormula() || (Cell{}).IsFormula() {
		t.Error("IsFormula wrong")
	}
}

func TestSheetSetGetClear(t *testing.T) {
	sh := New("s1")
	if sh.Name() != "s1" {
		t.Error("name wrong")
	}
	a := MustParseAddress("B2")
	sh.SetValue(a, Number(10))
	if sh.Value(a).Num != 10 {
		t.Error("SetValue/Value wrong")
	}
	sh.SetCell(a, Cell{Value: Number(3), Formula: "1+2"})
	if got := sh.Get(a); got.Formula != "1+2" || got.Value.Num != 3 {
		t.Errorf("SetCell = %+v", got)
	}
	sh.SetComputedValue(a, Number(99))
	if got := sh.Get(a); got.Formula != "1+2" || got.Value.Num != 99 {
		t.Error("SetComputedValue must preserve formula")
	}
	sh.Clear(a)
	if !sh.Value(a).IsEmpty() {
		t.Error("Clear failed")
	}
	// Invalid addresses are ignored.
	sh.SetValue(Addr(-1, 0), Number(5))
	if sh.CellCount() != 0 {
		t.Error("invalid address should be ignored")
	}
}

func TestSheetValuesMatrix(t *testing.T) {
	sh := New("m")
	r := sh.SetValues(Addr(1, 1), [][]Value{
		{Number(1), Number(2)},
		{Number(3), Empty()},
		{String_("x"), Bool_(true)},
	})
	if r != RangeOf(1, 1, 3, 2) {
		t.Errorf("SetValues range = %v", r)
	}
	got := sh.Values(r)
	if got[0][0].Num != 1 || got[0][1].Num != 2 || got[1][0].Num != 3 {
		t.Error("Values content wrong")
	}
	if !got[1][1].IsEmpty() {
		t.Error("empty slot should stay empty")
	}
	if got[2][0].Str != "x" || got[2][1].Bool != true {
		t.Error("string/bool cells wrong")
	}
	// Overwriting with empty clears.
	sh.SetValues(Addr(1, 1), [][]Value{{Empty()}})
	if !sh.Value(Addr(1, 1)).IsEmpty() {
		t.Error("overwrite with empty should clear")
	}
}

func TestSheetClearRangeAndUsedRange(t *testing.T) {
	sh := New("cr")
	for i := 0; i < 10; i++ {
		sh.SetValue(Addr(i, i), Number(float64(i)))
	}
	ur, ok := sh.UsedRange()
	if !ok || ur != RangeOf(0, 0, 9, 9) {
		t.Errorf("UsedRange = %v ok=%v", ur, ok)
	}
	sh.ClearRange(RangeOf(0, 0, 4, 9))
	if sh.CellCount() != 5 {
		t.Errorf("after ClearRange count = %d, want 5", sh.CellCount())
	}
}

func TestSheetInsertRowsCols(t *testing.T) {
	sh := New("ins")
	sh.SetValue(Addr(5, 5), Number(1))
	sh.InsertRows(0, 2)
	sh.InsertCols(0, 3)
	if sh.Value(Addr(7, 8)).Num != 1 {
		t.Error("insert rows/cols did not shift cell")
	}
}

func TestSheetConcurrentAccess(t *testing.T) {
	sh := New("conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				a := Addr(rng.Intn(100), rng.Intn(20))
				if i%3 == 0 {
					_ = sh.Value(a)
				} else {
					sh.SetValue(a, Number(float64(i)))
				}
			}
		}(g)
	}
	wg.Wait()
	if sh.CellCount() == 0 {
		t.Error("expected some cells after concurrent writes")
	}
}

func TestBookSheets(t *testing.T) {
	b := NewBook()
	s1 := b.AddSheet("Sheet1")
	s2 := b.AddSheet("Sheet2")
	if s1 == nil || s2 == nil {
		t.Fatal("AddSheet returned nil")
	}
	for _, name := range []string{"Sheet1", "SHEET1", "sheet1"} {
		if again := b.AddSheet(name); again != s1 {
			t.Errorf("AddSheet(%q) should return the existing Sheet1", name)
		}
	}
	if got, ok := b.Sheet("sHEET2"); !ok || got != s2 || got.Name() != "Sheet2" {
		t.Error("Sheet lookup should fold case and keep the created spelling")
	}
	names := b.SheetNames()
	if len(names) != 2 || names[0] != "Sheet1" || names[1] != "Sheet2" {
		t.Errorf("SheetNames = %v", names)
	}
	got, ok := b.Sheet("Sheet2")
	if !ok || got != s2 {
		t.Error("Sheet lookup wrong")
	}
	b.RemoveSheet("SHEET1")
	if _, ok := b.Sheet("Sheet1"); ok {
		t.Error("RemoveSheet failed")
	}
	if len(b.SheetNames()) != 1 {
		t.Error("order not updated after removal")
	}
	b.RemoveSheet("nope") // no-op
}
