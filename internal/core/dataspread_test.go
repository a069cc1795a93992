package core

import (
	"fmt"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
)

func newDS(t *testing.T) *DataSpread {
	t.Helper()
	return New(Options{})
}

func set(t *testing.T, ds *DataSpread, sheetName, addr, input string) {
	t.Helper()
	wait, err := ds.SetCell(sheetName, addr, input)
	if err != nil {
		t.Fatalf("SetCell(%s,%s,%q): %v", sheetName, addr, input, err)
	}
	wait()
}

func get(t *testing.T, ds *DataSpread, sheetName, addr string) sheet.Value {
	t.Helper()
	v, err := ds.Get(sheetName, addr)
	if err != nil {
		t.Fatalf("Get(%s,%s): %v", sheetName, addr, err)
	}
	return v
}

func TestSpreadsheetBasics(t *testing.T) {
	ds := newDS(t)
	set(t, ds, "Sheet1", "A1", "10")
	set(t, ds, "Sheet1", "A2", "32")
	set(t, ds, "Sheet1", "A3", "=A1+A2")
	set(t, ds, "Sheet1", "B1", "hello")
	set(t, ds, "Sheet1", "B2", "TRUE")
	if got := get(t, ds, "Sheet1", "A3"); got.Num != 42 {
		t.Errorf("A3 = %v", got)
	}
	if got := get(t, ds, "Sheet1", "B1"); got.Str != "hello" {
		t.Errorf("B1 = %v", got)
	}
	if got := get(t, ds, "Sheet1", "B2"); got.Kind != sheet.KindBool || !got.Bool {
		t.Errorf("B2 = %v", got)
	}
	// Changing a precedent ripples.
	set(t, ds, "Sheet1", "A1", "100")
	ds.Wait()
	if got := get(t, ds, "Sheet1", "A3"); got.Num != 132 {
		t.Errorf("A3 after edit = %v", got)
	}
	// Clearing a cell.
	set(t, ds, "Sheet1", "B1", "")
	if got := get(t, ds, "Sheet1", "B1"); !got.IsEmpty() {
		t.Errorf("B1 after clear = %v", got)
	}
	// Errors.
	if _, err := ds.SetCell("NoSheet", "A1", "1"); err == nil {
		t.Error("unknown sheet should fail")
	}
	if _, err := ds.SetCell("Sheet1", "notanaddr", "1"); err == nil {
		t.Error("bad address should fail")
	}
	if _, err := ds.Get("Sheet1", "bad!"); err == nil {
		t.Error("bad get address should fail")
	}
	if _, err := ds.GetRange("Sheet1", "A1:"); err == nil {
		t.Error("bad range should fail")
	}
}

func TestDirectSQL(t *testing.T) {
	ds := newDS(t)
	if _, err := ds.QueryScript(`
		CREATE TABLE actors (actorid INT PRIMARY KEY, name TEXT);
		INSERT INTO actors VALUES (1, 'Bogart'), (2, 'Bacall'), (3, 'Hepburn');
	`); err != nil {
		t.Fatal(err)
	}
	res, err := ds.Query("SELECT COUNT(*) FROM actors")
	if err != nil || res.Rows[0][0].Num != 3 {
		t.Fatalf("count = %v, %v", res, err)
	}
	// SQL referencing sheet data: RANGEVALUE.
	set(t, ds, "Sheet1", "B1", "2")
	res, err = ds.Query("SELECT name FROM actors WHERE actorid = RANGEVALUE(B1)")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "Bacall" {
		t.Fatalf("RANGEVALUE query = %v, %v", res, err)
	}
	// RANGETABLE over ad-hoc sheet data.
	set(t, ds, "Sheet1", "D1", "actorid")
	set(t, ds, "Sheet1", "E1", "salary")
	set(t, ds, "Sheet1", "D2", "1")
	set(t, ds, "Sheet1", "E2", "100")
	set(t, ds, "Sheet1", "D3", "3")
	set(t, ds, "Sheet1", "E3", "250")
	res, err = ds.Query("SELECT name, salary FROM actors NATURAL JOIN RANGETABLE(D1:E3) ORDER BY salary DESC")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("RANGETABLE query = %v, %v", res, err)
	}
	if res.Rows[0][0].Str != "Hepburn" || res.Rows[0][1].Num != 250 {
		t.Errorf("RANGETABLE join rows = %v", res.Rows)
	}
	// Sheet-qualified range on another sheet.
	ds.AddSheet("Data")
	set(t, ds, "Data", "A1", "7")
	res, err = ds.Query("SELECT RANGEVALUE(Data!A1) * 2")
	if err != nil || res.Rows[0][0].Num != 14 {
		t.Fatalf("sheet-qualified RANGEVALUE = %v, %v", res, err)
	}
}

// TestFeature2ImportExport reproduces the paper's Figure 2b demonstration:
// select a range, create a table from it (schema inferred from headers), and
// have the region replaced by a DBTABLE binding; DBTABLE also imports
// existing tables.
func TestFeature2ImportExport(t *testing.T) {
	ds := newDS(t)
	// Lay out a small gradebook on the sheet.
	rows := [][]string{
		{"id", "name", "score"},
		{"1", "alice", "95"},
		{"2", "bob", "72"},
		{"3", "carol", "88"},
	}
	for r, row := range rows {
		for c, val := range row {
			set(t, ds, "Sheet1", sheet.Addr(r, c).String(), val)
		}
	}
	binding, err := ds.CreateTableFromRange("Sheet1", "A1:C4", "grades", ExportOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	if binding == nil || binding.Table != "grades" {
		t.Fatalf("binding = %+v", binding)
	}
	// The table exists in the database with inferred schema.
	tbl, err := ds.DB().Table("grades")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 3 || !tbl.Columns[0].PrimaryKey {
		t.Errorf("schema = %+v", tbl.Columns)
	}
	res, err := ds.Query("SELECT COUNT(*), AVG(score) FROM grades")
	if err != nil || res.Rows[0][0].Num != 3 {
		t.Fatalf("table content = %v, %v", res, err)
	}
	// The sheet region is now a DBTABLE binding showing the same data.
	if got := get(t, ds, "Sheet1", "A1"); got.Str != "id" {
		t.Errorf("header cell = %v", got)
	}
	if got := get(t, ds, "Sheet1", "B2"); got.Str != "alice" {
		t.Errorf("bound cell = %v", got)
	}
	// Import the same table elsewhere via a DBTABLE formula.
	set(t, ds, "Sheet1", "F1", `=DBTABLE("grades")`)
	if got := get(t, ds, "Sheet1", "F1"); got.Str != "id" {
		t.Errorf("imported header = %v", got)
	}
	if got := get(t, ds, "Sheet1", "G3"); got.Str != "bob" {
		t.Errorf("imported cell = %v", got)
	}
	// Sheets are not auto-created: writing to an unknown sheet fails.
	if _, err := ds.SetCell("Sheet2-unused", "A1", "x"); err == nil {
		t.Error("writing to an unknown sheet should fail")
	}
}

// TestFeature1DBSQLQuerying reproduces the paper's Figure 2a demonstration:
// a DBSQL cell formula whose SQL references cells via RANGEVALUE and whose
// result spills into a range of cells, computed in a single pass.
func TestFeature1DBSQLQuerying(t *testing.T) {
	ds := newDS(t)
	if _, err := ds.QueryScript(`
		CREATE TABLE movies (movieid INT PRIMARY KEY, title TEXT, year INT);
		CREATE TABLE movies2actors (movieid INT, actorid INT);
		CREATE TABLE actors (actorid INT PRIMARY KEY, name TEXT);
		INSERT INTO movies VALUES (1, 'Casablanca', 1942), (2, 'Key Largo', 1948), (3, 'Sabrina', 1954);
		INSERT INTO movies2actors VALUES (1, 10), (2, 10), (2, 11), (3, 12);
		INSERT INTO actors VALUES (10, 'Bogart'), (11, 'Bacall'), (12, 'Hepburn');
	`); err != nil {
		t.Fatal(err)
	}
	// B1 holds the actor id the user is interested in; B2 a year filter.
	set(t, ds, "Sheet1", "B1", "10")
	set(t, ds, "Sheet1", "B2", "1940")
	set(t, ds, "Sheet1", "B3", `=DBSQL("SELECT title, year FROM movies NATURAL JOIN movies2actors NATURAL JOIN actors WHERE actorid = RANGEVALUE(B1) AND year > RANGEVALUE(B2) ORDER BY year")`)
	// The result spans B3:C5 (header + two rows).
	if got := get(t, ds, "Sheet1", "B3"); got.Str != "title" {
		t.Errorf("result header = %v", got)
	}
	if got := get(t, ds, "Sheet1", "B4"); got.Str != "Casablanca" {
		t.Errorf("result row 1 = %v", got)
	}
	if got := get(t, ds, "Sheet1", "B5"); got.Str != "Key Largo" {
		t.Errorf("result row 2 = %v", got)
	}
	if got := get(t, ds, "Sheet1", "C5"); got.Num != 1948 {
		t.Errorf("result year = %v", got)
	}
	// Changing the referenced cell re-runs the query and refreshes the
	// spilled range.
	set(t, ds, "Sheet1", "B1", "12")
	ds.Wait()
	if got := get(t, ds, "Sheet1", "B4"); got.Str != "Sabrina" {
		t.Errorf("result after RANGEVALUE change = %v", got)
	}
	// The old second row is cleared (only one movie matches now).
	if got := get(t, ds, "Sheet1", "B5"); !got.IsEmpty() {
		t.Errorf("stale result row should be cleared: %v", got)
	}
	// DBSQL results are read-only.
	if _, err := ds.SetCell("Sheet1", "B4", "Vertigo"); err == nil {
		t.Error("editing a DBSQL result cell should fail")
	}
}

// TestFeature3TwoWaySync reproduces the paper's Figure 2c demonstration:
// edits on a DBTABLE region update the database, and database updates refresh
// both the bound region and dependent DBSQL results.
func TestFeature3TwoWaySync(t *testing.T) {
	ds := newDS(t)
	if _, err := ds.QueryScript(`
		CREATE TABLE inventory (sku INT PRIMARY KEY, item TEXT, qty INT);
		INSERT INTO inventory VALUES (1, 'bolt', 100), (2, 'nut', 200), (3, 'washer', 50);
	`); err != nil {
		t.Fatal(err)
	}
	// Bind the table at A3 (Figure 2c shows the table in A3:B5).
	if _, err := ds.ImportTable("Sheet1", "A3", "inventory"); err != nil {
		t.Fatal(err)
	}
	// A dependent DBSQL summary below it (A10 in the figure).
	set(t, ds, "Sheet1", "A10", `=DBSQL("SELECT SUM(qty) AS total FROM inventory")`)
	if got := get(t, ds, "Sheet1", "A11"); got.Num != 350 {
		t.Fatalf("initial summary = %v", got)
	}
	// An ordinary spreadsheet formula over the bound cells also works.
	set(t, ds, "Sheet1", "E1", "=SUM(C4:C6)")
	if got := get(t, ds, "Sheet1", "E1"); got.Num != 350 {
		t.Fatalf("sheet formula over bound cells = %v", got)
	}

	// 1. Front-end edit: change qty of 'bolt' from 100 to 150 on the sheet.
	//    Layout: header at row 3 (A3:C3), first data row at row 4; qty is
	//    column C.
	set(t, ds, "Sheet1", "C4", "150")
	ds.Wait()
	res, err := ds.Query("SELECT qty FROM inventory WHERE sku = 1")
	if err != nil || res.Rows[0][0].Num != 150 {
		t.Fatalf("database not updated by sheet edit: %v %v", res, err)
	}
	if got := get(t, ds, "Sheet1", "A11"); got.Num != 400 {
		t.Errorf("DBSQL summary not refreshed after sheet edit: %v", got)
	}
	if got := get(t, ds, "Sheet1", "E1"); got.Num != 400 {
		t.Errorf("sheet formula not refreshed after sheet edit: %v", got)
	}

	// 2. Back-end change: a SQL UPDATE refreshes the bound cells.
	if _, err := ds.Query("UPDATE inventory SET qty = 500 WHERE sku = 3"); err != nil {
		t.Fatal(err)
	}
	ds.Wait()
	if got := get(t, ds, "Sheet1", "C6"); got.Num != 500 {
		t.Errorf("bound cell not refreshed by SQL update: %v", got)
	}
	if got := get(t, ds, "Sheet1", "A11"); got.Num != 850 {
		t.Errorf("summary not refreshed by SQL update: %v", got)
	}

	// 3. Back-end insert appends a row to the bound region.
	if _, err := ds.Query("INSERT INTO inventory VALUES (4, 'screw', 10)"); err != nil {
		t.Fatal(err)
	}
	ds.Wait()
	if got := get(t, ds, "Sheet1", "B7"); got.Str != "screw" {
		t.Errorf("inserted row not materialised: %v", got)
	}
	if got := get(t, ds, "Sheet1", "A11"); got.Num != 860 {
		t.Errorf("summary after insert = %v", got)
	}

	// 4. Editing the header row is rejected; editing a key column keeps the
	//    key index consistent.
	if _, err := ds.SetCell("Sheet1", "A3", "newheader"); err == nil {
		t.Error("editing a DBTABLE header should fail")
	}
	set(t, ds, "Sheet1", "A4", "99")
	res, err = ds.Query("SELECT item FROM inventory WHERE sku = 99")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "bolt" {
		t.Errorf("key edit not applied: %v %v", res, err)
	}
	// 5. Schema change refreshes the binding with the new column.
	if _, err := ds.Query("ALTER TABLE inventory ADD COLUMN price NUMERIC DEFAULT 1"); err != nil {
		t.Fatal(err)
	}
	ds.Wait()
	if got := get(t, ds, "Sheet1", "D3"); got.Str != "price" {
		t.Errorf("new column header not materialised: %v", got)
	}
	if got := get(t, ds, "Sheet1", "D5"); got.Num != 1 {
		t.Errorf("new column default not materialised: %v", got)
	}
}

func TestWindowedBindingAndPanning(t *testing.T) {
	ds := New(Options{WindowRows: 20, WindowCols: 5, MaterializeAllLimit: 100})
	if _, err := ds.Query("CREATE TABLE big (id INT PRIMARY KEY, val NUMERIC)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := ds.DB().Insert("big", []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := ds.ImportTable("Sheet1", "A1", "big")
	if err != nil {
		t.Fatal(err)
	}
	if !b.WindowOnly {
		t.Fatal("a 1000-row table should be window-materialised")
	}
	// Only around one window of rows should be materialised, not 1000.
	sh, _ := ds.Book().Sheet("Sheet1")
	if n := sh.CellCount(); n > 2*20*2+10 {
		t.Errorf("materialised %d cells for a 20-row window", n)
	}
	// The visible window shows the first rows.
	if got := get(t, ds, "Sheet1", "A2"); got.Num != 0 {
		t.Errorf("first data cell = %v", got)
	}
	// Pan to the middle of the table; the window region fills from the
	// database on demand.
	if err := ds.ScrollTo("Sheet1", "A500"); err != nil {
		t.Fatal(err)
	}
	if got := get(t, ds, "Sheet1", "A501"); got.Num != 499 {
		t.Errorf("cell after panning = %v (want id 499)", got)
	}
	vals, err := ds.VisibleValues("Sheet1")
	if err != nil || len(vals) != 20 {
		t.Fatalf("VisibleValues = %d rows, %v", len(vals), err)
	}
	// The window's top row (sheet row 500) shows display position 498,
	// whose id is 498 and value 4980.
	if vals[0][1].Num != 4980 {
		t.Errorf("visible window content = %v", vals[0])
	}
	if ds.Windows().PanCount() == 0 {
		t.Error("pan count should be recorded")
	}
	if err := ds.ScrollTo("NoSheet", "A1"); err == nil {
		t.Error("scrolling an unknown sheet should fail")
	}
}

func TestCreateTableFromRangeErrorsAndKeepRegion(t *testing.T) {
	ds := newDS(t)
	if _, err := ds.CreateTableFromRange("Sheet1", "A1:B2", "empty", ExportOptions{}); err == nil {
		t.Error("exporting an empty range should fail")
	}
	set(t, ds, "Sheet1", "A1", "x")
	set(t, ds, "Sheet1", "A2", "1")
	if _, err := ds.CreateTableFromRange("Sheet1", "bad", "t", ExportOptions{}); err == nil {
		t.Error("bad range should fail")
	}
	if _, err := ds.CreateTableFromRange("NoSheet", "A1:A2", "t", ExportOptions{}); err == nil {
		t.Error("unknown sheet should fail")
	}
	b, err := ds.CreateTableFromRange("Sheet1", "A1:A2", "kept", ExportOptions{KeepRegion: true})
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Error("KeepRegion should not create a binding")
	}
	// Original cell is still plain user content.
	if got := get(t, ds, "Sheet1", "A1"); got.Str != "x" {
		t.Errorf("KeepRegion original cell = %v", got)
	}
	// Duplicate table name fails.
	if _, err := ds.CreateTableFromRange("Sheet1", "A1:A2", "kept", ExportOptions{KeepRegion: true}); err == nil {
		t.Error("duplicate table export should fail")
	}
	// DBTABLE formula for a missing table fails.
	if _, err := ds.SetCell("Sheet1", "H1", `=DBTABLE("missing")`); err == nil {
		t.Error("DBTABLE of missing table should fail")
	}
	if _, err := ds.SetCell("Sheet1", "H1", `=DBSQL("SELECT * FROM missing")`); err == nil {
		t.Error("DBSQL of missing table should fail")
	}
	if _, err := ds.SetCell("Sheet1", "H1", `=DBSQL()`); err == nil {
		t.Error("DBSQL without arguments should fail")
	}
}

func TestMotivatingExamples(t *testing.T) {
	// The three §1 motivating operations, expressed the DataSpread way.
	ds := newDS(t)
	// Gradebook sheet: 100 students × 5 assignment scores with header.
	set(t, ds, "Sheet1", "A1", "student")
	for c := 0; c < 5; c++ {
		set(t, ds, "Sheet1", sheet.Addr(0, c+1).String(), fmt.Sprintf("a%d", c+1))
	}
	for r := 0; r < 100; r++ {
		set(t, ds, "Sheet1", sheet.Addr(r+1, 0).String(), fmt.Sprintf("s%03d", r))
		for c := 0; c < 5; c++ {
			score := (r*7+c*13)%61 + 40 // 40..100
			set(t, ds, "Sheet1", sheet.Addr(r+1, c+1).String(), fmt.Sprintf("%d", score))
		}
	}
	// Demographics on another sheet.
	ds.AddSheet("Demo")
	set(t, ds, "Demo", "A1", "student")
	set(t, ds, "Demo", "B1", "grp")
	groups := []string{"ug", "ms", "phd"}
	for r := 0; r < 100; r++ {
		set(t, ds, "Demo", sheet.Addr(r+1, 0).String(), fmt.Sprintf("s%03d", r))
		set(t, ds, "Demo", sheet.Addr(r+1, 1).String(), groups[r%3])
	}
	// Op 1: students with > 90 in at least one assignment (no copy-paste).
	res, err := ds.Query(`SELECT student FROM RANGETABLE(A1:F101) WHERE a1 > 90 OR a2 > 90 OR a3 > 90 OR a4 > 90 OR a5 > 90`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) == 100 {
		t.Errorf("selection returned %d rows", len(res.Rows))
	}
	// Op 2: average first-assignment score by demographic group (join of
	// the two sheets).
	res, err = ds.Query(`SELECT grp, AVG(a1) FROM RANGETABLE(A1:F101) NATURAL JOIN RANGETABLE(Demo!A1:B101) GROUP BY grp ORDER BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("join+group rows = %d", len(res.Rows))
	}
	// Op 3: continuously appended external data via a bound table.
	if _, err := ds.Query("CREATE TABLE actions (id INT PRIMARY KEY, student TEXT, action TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ImportTable("Sheet1", "H1", "actions"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ds.Query(fmt.Sprintf("INSERT INTO actions VALUES (%d, 's%03d', 'submit')", i+1, i)); err != nil {
			t.Fatal(err)
		}
	}
	ds.Wait()
	if got := get(t, ds, "Sheet1", "I6"); got.Str != "s004" {
		t.Errorf("appended external data not visible: %v", got)
	}
}

func TestFormulaOnTopOfDBSQL(t *testing.T) {
	// A regular spreadsheet formula can consume DBSQL results, mixing the
	// two computation models (paper §2.2(a)).
	ds := newDS(t)
	if _, err := ds.QueryScript(`
		CREATE TABLE sales (id INT PRIMARY KEY, amount NUMERIC);
		INSERT INTO sales VALUES (1, 10), (2, 20), (3, 30);
	`); err != nil {
		t.Fatal(err)
	}
	set(t, ds, "Sheet1", "A1", `=DBSQL("SELECT amount FROM sales ORDER BY id")`)
	set(t, ds, "Sheet1", "C1", "=SUM(A2:A4)*2")
	if got := get(t, ds, "Sheet1", "C1"); got.Num != 120 {
		t.Fatalf("formula over DBSQL result = %v", got)
	}
	// A database change flows: DBSQL refresh -> sheet cells -> formula.
	if _, err := ds.Query("UPDATE sales SET amount = 100 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	ds.Wait()
	if got := get(t, ds, "Sheet1", "C1"); got.Num != 300 {
		t.Errorf("formula after DB change = %v", got)
	}
}
