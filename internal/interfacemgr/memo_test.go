package interfacemgr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
)

// bookAccessor resolves RANGEVALUE against the test workbook (the core
// package provides the real implementation).
type bookAccessor struct{ book *sheet.Book }

func (a *bookAccessor) RangeValue(ref string) (sheet.Value, error) {
	name := a.book.SheetNames()[0]
	if i := strings.Index(ref, "!"); i >= 0 {
		name, ref = ref[:i], ref[i+1:]
	}
	sh, ok := a.book.Sheet(name)
	if !ok {
		return sheet.Empty(), fmt.Errorf("no sheet %q", name)
	}
	addr, err := sheet.ParseAddress(ref)
	if err != nil {
		return sheet.Empty(), err
	}
	return sh.Value(addr), nil
}

func (a *bookAccessor) RangeTable(string, bool) ([]string, [][]sheet.Value, error) {
	return nil, nil, fmt.Errorf("not supported in this test")
}

// TestQueryBindingMemoization: a change to unrelated table B must not touch
// a DBSQL binding over table A at all (no re-execution, no memo check), a
// change to A must re-execute it, and re-binding the same query with nothing
// changed at all must be a pure memo hit.
func TestQueryBindingMemoization(t *testing.T) {
	m, db, book := newFixture(t)
	if err := db.CreateTable("other", []catalog.Column{
		{Name: "id", Type: catalog.TypeNumber, PrimaryKey: true},
	}); err != nil {
		t.Fatal(err)
	}

	b, err := m.BindQuery("Sheet1", sheet.Addr(0, 5), "SELECT name FROM people ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	baseRefreshes := m.Stats().Refreshes
	baseHits := m.Stats().MemoHits

	// Unchanged inputs: an explicit refresh must be a memo hit.
	if err := m.RefreshBinding(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.MemoHits != baseHits+1 || s.Refreshes != baseRefreshes {
		t.Fatalf("refresh with unchanged inputs: hits %d->%d refreshes %d->%d",
			baseHits, s.MemoHits, baseRefreshes, s.Refreshes)
	}

	// A change to a table the query does not read never reaches it.
	if _, err := db.Insert("other", []sheet.Value{sheet.Number(1)}); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.MemoHits != baseHits+1 || s.Refreshes != baseRefreshes {
		t.Fatalf("unrelated change touched the binding: %+v", s)
	}

	// A change to the referenced table must re-execute and re-spill.
	if _, err := db.Insert("people", []sheet.Value{sheet.Number(4), sheet.String_("dee"), sheet.Number(19)}); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Refreshes != baseRefreshes+1 {
		t.Fatalf("referenced-table change did not re-execute: %+v", s)
	}
	if got := val(t, book, "F5"); got.String() != "dee" {
		t.Fatalf("spill not updated after change: F5 = %q", got.String())
	}

	// And the refresh that followed is itself memoized again.
	if err := m.RefreshBinding(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Refreshes != baseRefreshes+1 {
		t.Fatalf("post-change refresh not memoized: %+v", s)
	}

	// Schema DDL (e.g. a new index) invalidates the memo once.
	if _, err := db.NewSession(nil).Query("CREATE INDEX pa ON people (age)"); err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshBinding(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Refreshes != baseRefreshes+2 {
		t.Fatalf("schema change did not re-execute: %+v", s)
	}
}

// TestQueryBindingMemoSheetInputs: a binding whose query reads sheet cells
// re-executes when those cells change, and memoizes otherwise — even though
// its own spill bumps the version of the sheet it reads from.
func TestQueryBindingMemoSheetInputs(t *testing.T) {
	m, _, book := newFixture(t)
	sh, _ := book.Sheet("Sheet1")
	sh.SetCell(sheet.MustParseAddress("A10"), sheet.Cell{Value: sheet.Number(30)})

	b, err := m.BindQuery("Sheet1", sheet.Addr(0, 7),
		"SELECT name FROM people WHERE age > RANGEVALUE(A10) ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Stats().Refreshes
	if err := m.RefreshBinding(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Refreshes != base {
		t.Fatalf("self-sheet binding never memoizes: %+v", s)
	}
	// Changing the referenced cell must re-execute with the new parameter.
	sh.SetCell(sheet.MustParseAddress("A10"), sheet.Cell{Value: sheet.Number(20)})
	if err := m.RefreshBinding(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Refreshes != base+1 {
		t.Fatalf("cell change did not re-execute: %+v", s)
	}
	if got := val(t, book, "H4"); got.String() != "cy" {
		t.Fatalf("re-executed result wrong: H4 = %q", got.String())
	}
}

// TestQueryBindingSelfOverwritingSpillNeverMemoizes: a binding whose spill
// extent overlaps a sheet range its query reads rewrites its own inputs;
// memoizing it would pin the result computed from the pre-overwrite cells,
// so such bindings must re-execute on every refresh.
func TestQueryBindingSelfOverwritingSpillNeverMemoizes(t *testing.T) {
	m, _, book := newFixture(t)
	sh, _ := book.Sheet("Sheet1")
	sh.SetCell(sheet.MustParseAddress("A2"), sheet.Cell{Value: sheet.Number(20)})

	// Anchored at A1, the spill covers A1:A4 — including A2, which the
	// query reads.
	b, err := m.BindQuery("Sheet1", sheet.Addr(0, 0),
		"SELECT name FROM people WHERE age > RANGEVALUE(A2) ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	// The overwritten A2 re-runs the binding from the engine's background
	// pass, which converges on an empty result. Let it finish and detach the
	// engine, so the refreshes below are the only ones.
	m.engine.Wait()
	m.engine = nil
	sh.SetCell(sheet.MustParseAddress("A2"), sheet.Cell{Value: sheet.Number(20)})
	if err := m.RefreshBinding(b.ID); err != nil { // spills over A2 again
		t.Fatal(err)
	}
	base := m.Stats()
	if err := m.RefreshBinding(b.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.MemoHits != base.MemoHits || s.Refreshes != base.Refreshes+1 {
		t.Fatalf("self-overwriting binding was memoized: %+v -> %+v", base, s)
	}
}

// TestQueryBindingParameterEditDuringRefresh: a RANGEVALUE cell edited while
// the binding's query runs — here from inside the runner, after the query
// read the old value — must not be memoized beside that result. The refresh
// the edit requests waits for the running one, re-executes, and leaves the
// spill equal to a direct execution. The parameter sits in the SELECT list,
// so only the sheet versions can tell the two results apart; the binding
// spills both to the parameter's own sheet and to another one.
func TestQueryBindingParameterEditDuringRefresh(t *testing.T) {
	for _, target := range []string{"Sheet1", "Sheet2"} {
		t.Run(target, func(t *testing.T) {
			m, db, book := newFixture(t)
			book.AddSheet("Sheet2")
			session := db.NewSession(&bookAccessor{book: book})
			a10 := sheet.MustParseAddress("A10")
			edit := false
			run := m.run
			m.run = func(p *sqlexec.Prepared) (*sqlexec.Result, error) {
				res, err := run(p)
				if edit {
					edit = false
					m.engine.SetValue("Sheet1", a10, sheet.Number(20)) // its refresh waits for this one
				}
				return res, err
			}
			sh, _ := book.Sheet("Sheet1")
			sh.SetCell(a10, sheet.Cell{Value: sheet.Number(10)})
			b, err := m.BindQuery(target, sheet.Addr(0, 5), "SELECT id + RANGEVALUE(Sheet1!A10) FROM people ORDER BY id")
			if err != nil {
				t.Fatal(err)
			}
			edit = true
			if _, err := db.Insert("people", []sheet.Value{sheet.Number(4), sheet.String_("dee"), sheet.Number(19)}); err != nil {
				t.Fatal(err)
			}
			m.engine.Wait()
			want, err := session.Query(b.SQL)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := book.Sheet(target)
			for r, row := range want.Rows {
				if got := out.Value(sheet.Addr(1+r, 5)); !reflect.DeepEqual(got, row[0]) {
					t.Fatalf("row %d = %v, direct execution %v", r, got, row[0])
				}
			}
		})
	}
}
