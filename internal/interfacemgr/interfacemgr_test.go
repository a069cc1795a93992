package interfacemgr

import (
	"errors"
	"testing"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/window"
)

// newFixture builds a manager over a small database and workbook whose
// query bindings resolve RANGEVALUE against the workbook (bookAccessor; the
// core package tests cover RANGETABLE-dependent queries).
func newFixture(t *testing.T) (*Manager, *sqlexec.Database, *sheet.Book) {
	t.Helper()
	db := sqlexec.NewDatabase(sqlexec.Config{})
	book := sheet.NewBook()
	book.AddSheet("Sheet1")
	engine := compute.New(book)
	windows := window.NewManager(20, 6)
	engine.SetVisibleProvider(windows.Visible)
	m := New(db, book, engine, windows, &bookAccessor{book: book})

	if err := db.CreateTable("people", []catalog.Column{
		{Name: "id", Type: catalog.TypeNumber, PrimaryKey: true},
		{Name: "name", Type: catalog.TypeText},
		{Name: "age", Type: catalog.TypeNumber},
	}); err != nil {
		t.Fatal(err)
	}
	rows := [][]any{{1, "ann", 30}, {2, "bo", 41}, {3, "cy", 25}}
	for _, r := range rows {
		vals := make([]sheet.Value, len(r))
		for i, x := range r {
			vals[i] = sheet.FromAny(x)
		}
		if _, err := db.Insert("people", vals); err != nil {
			t.Fatal(err)
		}
	}
	return m, db, book
}

func val(t *testing.T, b *sheet.Book, ref string) sheet.Value {
	t.Helper()
	sh, _ := b.Sheet("Sheet1")
	return sh.Value(sheet.MustParseAddress(ref))
}

func TestBindTableMaterialisesAndTracksPositions(t *testing.T) {
	m, db, book := newFixture(t)
	b, err := m.BindTable("Sheet1", sheet.Addr(0, 0), "people")
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != KindTable || b.RowCount() != 3 || b.WindowOnly {
		t.Fatalf("binding = %+v", b)
	}
	if val(t, book, "A1").Str != "id" || val(t, book, "B2").Str != "ann" || val(t, book, "C4").Num != 25 {
		t.Error("materialised content wrong")
	}
	ext, ok := b.Extent()
	if !ok || ext != sheet.RangeOf(0, 0, 3, 2) {
		t.Errorf("extent = %v %v", ext, ok)
	}
	// BindingAt finds it; LocationOfKey maps keys to sheet rows.
	if got, ok := m.BindingAt("sheet1", sheet.Addr(2, 1)); !ok || got.ID != b.ID {
		t.Error("BindingAt failed")
	}
	loc, found, err := m.LocationOfKey(b.ID, []sheet.Value{sheet.Number(2)})
	if err != nil || !found || loc != sheet.Addr(2, 0) {
		t.Errorf("LocationOfKey = %v %v %v", loc, found, err)
	}
	if _, found, _ := m.LocationOfKey(b.ID, []sheet.Value{sheet.Number(99)}); found {
		t.Error("missing key should not be located")
	}
	// Binding to a missing table fails; stats accumulate.
	if _, err := m.BindTable("Sheet1", sheet.Addr(0, 10), "missing"); err == nil {
		t.Error("binding a missing table should fail")
	}
	if m.Stats().CellsWritten == 0 || m.Stats().Refreshes == 0 {
		t.Error("stats should be recorded")
	}
	_ = db
}

func TestSheetEditRoutesToDatabase(t *testing.T) {
	m, db, book := newFixture(t)
	b, err := m.BindTable("Sheet1", sheet.Addr(0, 0), "people")
	if err != nil {
		t.Fatal(err)
	}
	// Edit bo's age (row 3 on the sheet, column C).
	handled, err := m.HandleSheetEdit("Sheet1", sheet.MustParseAddress("C3"), sheet.Number(50))
	if !handled || err != nil {
		t.Fatalf("edit = %v %v", handled, err)
	}
	row, err := db.Get("people", 2)
	if err != nil || row[2].Num != 50 {
		t.Fatalf("database row = %v %v", row, err)
	}
	if val(t, book, "C3").Num != 50 {
		t.Error("sheet cell should reflect the stored value")
	}
	// Header edits and out-of-binding edits.
	if handled, err := m.HandleSheetEdit("Sheet1", sheet.MustParseAddress("A1"), sheet.Number(1)); !handled || err == nil {
		t.Error("header edit should be handled with an error")
	}
	if handled, _ := m.HandleSheetEdit("Sheet1", sheet.MustParseAddress("Z99"), sheet.Number(1)); handled {
		t.Error("edit outside any binding should not be handled")
	}
	if m.Stats().EditsPushed != 1 {
		t.Errorf("EditsPushed = %d", m.Stats().EditsPushed)
	}
	_ = b
}

func TestDBChangesRefreshBinding(t *testing.T) {
	m, db, book := newFixture(t)
	first, err := m.BindTable("Sheet1", sheet.Addr(0, 0), "people")
	if err != nil {
		t.Fatal(err)
	}
	// A ROLLBACK restores a deleted row at its own RowID. The binding,
	// re-materialised without it meanwhile, must put it back in RowID order.
	sess := db.NewSession(nil)
	for _, sql := range []string{"BEGIN", "DELETE FROM people WHERE id = 1"} {
		if _, err := sess.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RefreshBinding(first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	for ref, want := range map[string]string{"B2": "ann", "B3": "bo", "B4": "cy"} {
		if got := val(t, book, ref).Str; got != want {
			t.Errorf("after ROLLBACK %s = %q, want %q", ref, got, want)
		}
	}
	// A sheet edit through one binding reaches a second binding of the
	// table as the published update, applied in place: no re-materialising.
	if _, err := m.BindTable("Sheet1", sheet.MustParseAddress("F1"), "people"); err != nil {
		t.Fatal(err)
	}
	refreshes := m.Stats().Refreshes
	if _, err := m.HandleSheetEdit("Sheet1", sheet.MustParseAddress("C3"), sheet.Number(42)); err != nil {
		t.Fatal(err)
	}
	if val(t, book, "H3").Num != 42 || m.Stats().Refreshes != refreshes {
		t.Errorf("second binding after an edit through the first: H3 = %v, refreshes %d -> %d", val(t, book, "H3"), refreshes, m.Stats().Refreshes)
	}
	// Back-end update.
	if err := db.UpdateColumn("people", 1, 2, sheet.Number(31)); err != nil {
		t.Fatal(err)
	}
	if val(t, book, "C2").Num != 31 {
		t.Error("update not reflected")
	}
	// Back-end insert appends.
	if _, err := db.Insert("people", []sheet.Value{sheet.Number(4), sheet.String_("di"), sheet.Number(22)}); err != nil {
		t.Fatal(err)
	}
	if val(t, book, "B5").Str != "di" {
		t.Error("insert not appended")
	}
	// Back-end delete triggers a full refresh that compacts rows.
	if err := db.Delete("people", 1); err != nil {
		t.Fatal(err)
	}
	if val(t, book, "B2").Str != "bo" || !val(t, book, "B5").IsEmpty() {
		t.Errorf("delete refresh wrong: B2=%v B5=%v", val(t, book, "B2"), val(t, book, "B5"))
	}
	// Schema change adds the new column to the header.
	if _, err := db.NewSession(nil).Query("ALTER TABLE people ADD COLUMN city TEXT DEFAULT 'urbana'"); err != nil {
		t.Fatal(err)
	}
	if val(t, book, "D1").Str != "city" || val(t, book, "D2").Str != "urbana" {
		t.Error("schema change not reflected")
	}
	// Dropping the table removes the binding and its cells.
	if _, err := db.NewSession(nil).Query("DROP TABLE people"); err != nil {
		t.Fatal(err)
	}
	if len(m.Bindings()) != 0 {
		t.Error("binding should be removed when its table is dropped")
	}
	if !val(t, book, "A1").IsEmpty() {
		t.Error("cells should be cleared when the table is dropped")
	}
}

func TestQueryBindingRefreshOnDataChange(t *testing.T) {
	m, db, book := newFixture(t)
	b, err := m.BindQuery("Sheet1", sheet.MustParseAddress("F1"), "SELECT COUNT(*) AS n, SUM(age) AS total FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if val(t, book, "F1").Str != "n" || val(t, book, "F2").Num != 3 || val(t, book, "G2").Num != 96 {
		t.Errorf("query binding content wrong: %v %v %v", val(t, book, "F1"), val(t, book, "F2"), val(t, book, "G2"))
	}
	// A data change re-runs the query.
	if _, err := db.Insert("people", []sheet.Value{sheet.Number(9), sheet.String_("zz"), sheet.Number(4)}); err != nil {
		t.Fatal(err)
	}
	if val(t, book, "F2").Num != 4 || val(t, book, "G2").Num != 100 {
		t.Errorf("query binding not refreshed: %v %v", val(t, book, "F2"), val(t, book, "G2"))
	}
	// Query bindings are read-only.
	if handled, err := m.HandleSheetEdit("Sheet1", sheet.MustParseAddress("F2"), sheet.Number(0)); !handled || err == nil {
		t.Error("editing a query binding should be rejected")
	}
	// Unbind clears cells and stops refreshes.
	m.Unbind(b.ID)
	if !val(t, book, "F1").IsEmpty() {
		t.Error("unbind should clear cells")
	}
	// Errors: bad SQL.
	if _, err := m.BindQuery("Sheet1", sheet.Addr(20, 0), "SELECT * FROM missing"); err == nil {
		t.Error("query binding with bad SQL should fail")
	}
}

func TestWindowOnlyBindingScrolling(t *testing.T) {
	m, db, book := newFixture(t)
	m.SetMaterializeAllLimit(10)
	if err := db.CreateTable("big", []catalog.Column{
		{Name: "id", Type: catalog.TypeNumber, PrimaryKey: true},
		{Name: "v", Type: catalog.TypeNumber},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Insert("big", []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := m.BindTable("Sheet1", sheet.Addr(0, 4), "big")
	if err != nil {
		t.Fatal(err)
	}
	if !b.WindowOnly {
		t.Fatal("expected a window-only binding")
	}
	sh, _ := book.Sheet("Sheet1")
	if sh.CellCount() > 100 {
		t.Errorf("window-only binding materialised %d cells", sh.CellCount())
	}
	// Scroll down; the new window region gets filled from the database.
	m.windows.ScrollTo("Sheet1", sheet.Addr(300, 4))
	if err := m.OnScroll("Sheet1"); err != nil {
		t.Fatal(err)
	}
	if v := sh.Value(sheet.Addr(305, 4)); v.Num != 304 {
		t.Errorf("scrolled window content = %v", v)
	}
	if sh.CellCount() > 120 {
		t.Errorf("after scroll still only a window should be materialised, got %d cells", sh.CellCount())
	}
}

// TestBindQueryRefusesAllButSelect: a DBSQL binding shows data and never
// writes it. DML, DDL, transaction control and EXPLAIN fail with
// ErrUnsupported before any binding exists: nothing runs, and the binding
// already at the anchor stays.
func TestBindQueryRefusesAllButSelect(t *testing.T) {
	m, db, book := newFixture(t)
	at := sheet.Addr(0, 5)
	b, err := m.BindQuery("Sheet1", at, "SELECT COUNT(*) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"INSERT INTO people VALUES (9, 'zed', 1)",
		"UPDATE people SET age = 0",
		"DELETE FROM people",
		"CREATE TABLE x (a INT)",
		"DROP TABLE people",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		"EXPLAIN SELECT * FROM people",
	} {
		if _, err := m.BindQuery("Sheet1", at, sql); !errors.Is(err, dberr.ErrUnsupported) {
			t.Errorf("BindQuery(%q) = %v, want ErrUnsupported", sql, err)
		}
		if _, err := m.BindQuery("Sheet1", sheet.Addr(30, 0), sql); !errors.Is(err, dberr.ErrUnsupported) {
			t.Errorf("BindQuery(%q) on a free anchor = %v, want ErrUnsupported", sql, err)
		}
	}
	if n, err := db.RowCount("people"); err != nil || n != 3 || len(db.Tables()) != 1 {
		t.Fatalf("refused statements changed the database: %d rows, %d tables, %v", n, len(db.Tables()), err)
	}
	if bs := m.Bindings(); len(bs) != 1 || bs[0] != b {
		t.Fatalf("bindings after refusals = %v, want only the SELECT's", bs)
	}
	if got := val(t, book, "F2"); got.Num != 3 {
		t.Fatalf("the SELECT's spill = %v, want 3", got)
	}
}

// TestQueryRefreshSkipsPlanCache: a binding prepares its SELECT once, at
// bind time; its refreshes, executed or memoized, look nothing up in the
// plan cache.
func TestQueryRefreshSkipsPlanCache(t *testing.T) {
	m, db, book := newFixture(t)
	b, err := m.BindQuery("Sheet1", sheet.Addr(0, 5), "SELECT COUNT(*) FROM people WHERE age > 26")
	if err != nil {
		t.Fatal(err)
	}
	plans, stats := db.PlanCacheStats(), m.Stats()
	for i := 0; i < 5; i++ {
		if _, err := db.Insert("people", []sheet.Value{sheet.Number(float64(10 + i)), sheet.String_("x"), sheet.Number(40)}); err != nil {
			t.Fatal(err)
		}
		if err := m.RefreshBinding(b.ID); err != nil {
			t.Fatal(err)
		}
	}
	after, s := db.PlanCacheStats(), m.Stats()
	if after.Hits+after.Misses != plans.Hits+plans.Misses {
		t.Fatalf("refreshes looked up the plan cache: %+v -> %+v", plans, after)
	}
	if s.Refreshes-stats.Refreshes != 5 || s.MemoHits-stats.MemoHits != 5 {
		t.Fatalf("want 5 executed and 5 memoized refreshes: %+v -> %+v", stats, s)
	}
	if got := val(t, book, "F2"); got.Num != 7 {
		t.Fatalf("COUNT(*) = %v, want 7", got)
	}
}
