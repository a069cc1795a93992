package dataspread_test

import (
	"slices"
	"testing"
)

// TestSheetNamesFoldCase pins that sheet names are case-insensitive: adding
// a sheet whose name differs from an existing one only in case returns the
// existing sheet instead of creating a ghost that no lookup can reach, and
// every spelling of the name addresses the same cells.
func TestSheetNamesFoldCase(t *testing.T) {
	db := newTestDB(t)
	if err := db.AddSheet("Sheet2"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddSheet("sheet2"); err != nil {
		t.Fatal(err)
	}
	if got, want := db.SheetNames(), []string{"Sheet1", "Sheet2"}; !slices.Equal(got, want) {
		t.Fatalf("SheetNames = %v, want %v", got, want)
	}
	set := func(sheetName, addr, input string) {
		t.Helper()
		wait, err := db.SetCell(sheetName, addr, input)
		if err != nil {
			t.Fatal(err)
		}
		wait()
	}
	get := func(sheetName, addr string) float64 {
		t.Helper()
		v, err := db.Get(sheetName, addr)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := v.AsNumber()
		return f
	}
	set("Sheet2", "A1", "5")
	set("sheet2", "A1", "7")
	set("SHEET2", "B1", "=A1*2")
	for _, name := range []string{"Sheet2", "sheet2", "SHEET2"} {
		if a, b := get(name, "A1"), get(name, "B1"); a != 7 || b != 14 {
			t.Errorf("%s!A1, %s!B1 = %v, %v; want 7, 14", name, name, a, b)
		}
	}
	// A formula on one sheet reading another by a differently cased name.
	set("Sheet1", "C1", "=sHeEt2!B1+1")
	set("Sheet2", "A1", "10")
	if got := get("Sheet1", "C1"); got != 21 {
		t.Errorf("Sheet1!C1 = %v, want 21", got)
	}
}
