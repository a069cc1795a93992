package interfacemgr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/window"
)

// TestRefreshPathConcurrency races the refresh path (run it with -race): a
// SQL writer session whose change notifications refresh two DBSQL bindings
// on its goroutine, a reader scrolling a window through the table with
// lock-free scans, and a recalculation loop refreshing both bindings from a
// third goroutine. Afterwards one more refresh of each binding — a memo hit
// or not — must leave its spill equal to a direct execution, and no snapshot
// epoch may stay pinned.
func TestRefreshPathConcurrency(t *testing.T) {
	const rows = 5000 // above the parallel floor: scans run on the worker pool
	db := sqlexec.NewDatabase(sqlexec.Config{Workers: 2})
	setup := db.NewSession(nil)
	if _, err := setup.Query("CREATE TABLE items (id NUMBER PRIMARY KEY, b NUMBER)"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= rows; id++ {
		if _, err := db.Insert("items", []sheet.Value{num(id), num(id % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	book := sheet.NewBook()
	book.AddSheet("Sheet1")
	engine := compute.New(book)
	m := New(db, book, engine, window.NewManager(20, 6))
	defer m.Close()
	var runMu sync.Mutex // a Session is not for concurrent use; the runner is shared
	runner := db.NewSession(nil)
	m.SetQueryRunner(func(sql string) (*sqlexec.Result, error) {
		runMu.Lock()
		defer runMu.Unlock()
		return runner.Query(sql)
	}, nil)
	sqls := []string{
		"SELECT COUNT(*), SUM(b) FROM items WHERE id >= 100 AND id <= 600",
		"SELECT COUNT(*), SUM(b) FROM items",
	}
	var binds []*Binding
	for i, q := range sqls {
		b, err := m.BindQuery("Sheet1", sheet.Addr(0, 3*i), q)
		if err != nil {
			t.Fatal(err)
		}
		binds = append(binds, b)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	done := make(chan struct{})
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		w := db.NewSession(nil)
		rng := rand.New(rand.NewSource(1))
		next := rows + 1
		for i := 0; i < 300; i++ {
			var sql string
			switch i % 10 {
			case 0:
				sql = fmt.Sprintf("INSERT INTO items VALUES (%d, %d)", next, rng.Intn(97))
				next++
			case 1:
				sql = fmt.Sprintf("DELETE FROM items WHERE id = %d", 1+rng.Intn(rows))
			default:
				sql = fmt.Sprintf("UPDATE items SET b = %d WHERE id = %d", rng.Intn(97), 1+rng.Intn(rows))
			}
			if _, err := w.Query(sql); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // scrolling reader
		defer wg.Done()
		r := db.NewSession(nil)
		for top := 1; ; top = (top + 37) % rows {
			select {
			case <-done:
				return
			default:
			}
			for _, q := range []string{
				fmt.Sprintf("SELECT id, b FROM items WHERE id >= %d AND id < %d", top, top+50),
				"SELECT COUNT(*) FROM items WHERE b > 50",
			} {
				if _, err := r.Query(q); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	go func() { // recalculation
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, b := range binds {
				if err := m.RefreshBinding(b.ID); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	engine.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sh, _ := book.Sheet("Sheet1")
	for _, b := range binds {
		if err := m.RefreshBinding(b.ID); err != nil {
			t.Fatal(err)
		}
		want, err := db.NewSession(nil).Query(b.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want.Columns {
			if got := sh.Value(sheet.Addr(b.Anchor.Row+1, b.Anchor.Col+c)); !reflect.DeepEqual(got, want.Rows[0][c]) {
				t.Fatalf("%s column %d = %v, direct execution %v", b.SQL, c, got, want.Rows[0][c])
			}
		}
	}
	if pinned, retained := db.EpochStats(); pinned != 0 || retained != 0 {
		t.Fatalf("EpochStats = (%d, %d) after the race, want (0, 0)", pinned, retained)
	}
}
