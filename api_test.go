package dataspread_test

// Tests of the public embeddable API: prepared statements with '?'
// bindings, streaming rows, context cancellation, the error taxonomy, and
// the acceptance criteria of the prepared-statement redesign (plan-cache
// hits with a preserved pk point access path).

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dataspread/dataspread"
)

func newTestDB(t *testing.T) *dataspread.DB {
	t.Helper()
	db := dataspread.New(dataspread.Options{})
	t.Cleanup(func() { db.Close() })
	return db
}

func loadN(t *testing.T, db *dataspread.DB, n int) {
	t.Helper()
	ctx := context.Background()
	if _, err := db.Exec(ctx, "CREATE TABLE items (id INT PRIMARY KEY, grp INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare("INSERT INTO items VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ins.Exec(ctx, i, i%10, fmt.Sprintf("item-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPreparedStatementBindings(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 100)

	q, err := db.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d, want 1", got)
	}
	for _, id := range []int{0, 7, 42, 99} {
		rows, err := q.Query(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		var name string
		if !rows.Next() {
			t.Fatalf("no row for id %d", id)
		}
		if err := rows.Scan(&name); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if want := fmt.Sprintf("item-%d", id); name != want {
			t.Fatalf("id %d: got %q, want %q", id, name, want)
		}
	}

	// Placeholders work in DML and in every clause.
	if res, err := db.Exec(ctx, "UPDATE items SET name = ? WHERE id BETWEEN ? AND ?", "renamed", 10, 12); err != nil {
		t.Fatal(err)
	} else if res.RowsAffected != 3 {
		t.Fatalf("update affected %d, want 3", res.RowsAffected)
	}
	if res, err := db.Exec(ctx, "DELETE FROM items WHERE grp IN (?, ?)", 8, 9); err != nil {
		t.Fatal(err)
	} else if res.RowsAffected != 20 {
		t.Fatalf("delete affected %d, want 20", res.RowsAffected)
	}

	// Binding the wrong number of arguments is a typed error.
	if _, err := q.Query(ctx); !errors.Is(err, dataspread.ErrParamCount) {
		t.Fatalf("want ErrParamCount, got %v", err)
	}
	if _, err := q.Query(ctx, 1, 2); !errors.Is(err, dataspread.ErrParamCount) {
		t.Fatalf("want ErrParamCount, got %v", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 5)

	if _, err := db.Query(ctx, "SELECT * FROM nosuch"); !errors.Is(err, dataspread.ErrTableNotFound) {
		t.Fatalf("want ErrTableNotFound, got %v", err)
	}
	if _, err := db.Exec(ctx, "CREATE TABLE items (id INT)"); !errors.Is(err, dataspread.ErrTableExists) {
		t.Fatalf("want ErrTableExists, got %v", err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO items VALUES (1, 0, 'dup')"); !errors.Is(err, dataspread.ErrUniqueViolation) {
		t.Fatalf("want ErrUniqueViolation, got %v", err)
	}
	if _, err := db.Exec(ctx, "COMMIT"); !errors.Is(err, dataspread.ErrNoTx) {
		t.Fatalf("want ErrNoTx, got %v", err)
	}
	c := db.Conn()
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(ctx); !errors.Is(err, dataspread.ErrTxOpen) {
		t.Fatalf("want ErrTxOpen, got %v", err)
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionRollback(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 10)

	c := db.Conn()
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "DELETE FROM items WHERE id >= 5"); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RowCount("items"); n != 5 {
		t.Fatalf("mid-tx row count = %d, want 5", n)
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RowCount("items"); n != 10 {
		t.Fatalf("post-rollback row count = %d, want 10", n)
	}
}

func TestStreamingRowsDoNotMaterialize(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 2000)

	rows, err := db.Query(ctx, "SELECT id, name FROM items WHERE grp = ?", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "id" || cols[1] != "name" {
		t.Fatalf("columns = %v", cols)
	}
	n := 0
	for rows.Next() {
		var id int
		var name string
		if err := rows.Scan(&id, &name); err != nil {
			t.Fatal(err)
		}
		if id%10 != 3 {
			t.Fatalf("row id %d does not match grp predicate", id)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("streamed %d rows, want 200", n)
	}

	// Abandoning a stream mid-way via Close releases the producer.
	rows, err = db.Query(ctx, "SELECT id FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
	}
}

// TestConcurrentPreparedStatement runs the same prepared statement from many
// sessions with different bindings (the -race build of `make race` checks
// the sharing).
func TestConcurrentPreparedStatement(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 5000)

	q, err := db.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			conn := db.Conn()
			stmt := q.OnConn(conn)
			for i := 0; i < perWorker; i++ {
				id := (seed*2711 + i*37) % 5000
				rows, err := stmt.Query(ctx, id)
				if err != nil {
					errCh <- err
					return
				}
				if !rows.Next() {
					rows.Close()
					errCh <- fmt.Errorf("no row for id %d", id)
					return
				}
				var name string
				if err := rows.Scan(&name); err != nil {
					rows.Close()
					errCh <- err
					return
				}
				rows.Close()
				if want := fmt.Sprintf("item-%d", id); name != want {
					errCh <- fmt.Errorf("id %d: got %q want %q", id, name, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestCancellationMidScan cancels a context while a 50k-row scan streams and
// checks the query returns promptly with context.Canceled, leaking no
// goroutines.
func TestCancellationMidScan(t *testing.T) {
	db := newTestDB(t)
	loadN(t, db, 50_000)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	// LIKE keeps the predicate un-sargable, so this is a genuine full scan.
	rows, err := db.Query(ctx, "SELECT id, name FROM items WHERE name LIKE '%item%'")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row before cancelling")
	}
	start := time.Now()
	cancel()
	for rows.Next() {
		// drain whatever was already buffered
	}
	elapsed := time.Since(start)
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	rows.Close()
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}

	// The producer goroutine must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPreparedPointQueryPlanCache is the redesign's acceptance check: a
// `WHERE id = ?` point query re-executed with different bindings hits the
// text-keyed plan cache AND still takes the pk point access path.
func TestPreparedPointQueryPlanCache(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 50_000)

	const q = "SELECT name FROM items WHERE id = ?"
	// EXPLAIN with a bound argument must show the pk point path.
	expl, err := db.Exec(ctx, "EXPLAIN "+q, 41_000)
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, row := range expl.Rows {
		plan.WriteString(row[0].AsString())
		plan.WriteString("\n")
	}
	if !strings.Contains(plan.String(), "pk point") {
		t.Fatalf("EXPLAIN of prepared point query does not use pk point path:\n%s", plan.String())
	}

	before := db.PlanCache()
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	const execs = 500
	for i := 0; i < execs; i++ {
		id := (i * 97) % 50_000
		res, err := stmt.Exec(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsString() != fmt.Sprintf("item-%d", id) {
			t.Fatalf("exec %d: unexpected result %v", i, res.Rows)
		}
	}
	// Re-preparing the same text must be pure cache hits.
	for i := 0; i < execs; i++ {
		if _, err := db.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	after := db.PlanCache()
	if after.Misses != before.Misses+1 {
		t.Fatalf("prepared statement missed the plan cache %d times, want exactly 1 (before=%+v after=%+v)",
			after.Misses-before.Misses, before, after)
	}
	if after.Hits < before.Hits+execs {
		t.Fatalf("plan cache hits %d -> %d, want >= +%d", before.Hits, after.Hits, execs)
	}
}

func TestSpreadsheetSurface(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()

	set := func(addr, input string) {
		t.Helper()
		wait, err := db.SetCell("Sheet1", addr, input)
		if err != nil {
			t.Fatal(err)
		}
		wait()
	}
	set("A1", "2")
	set("A2", "40")
	set("A3", "=A1+A2")
	v, err := db.Get("Sheet1", "A3")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsNumber(); f != 42 {
		t.Fatalf("A3 = %v, want 42", v)
	}

	// Sheet data is queryable through RANGEVALUE, mixed with placeholders.
	rows, err := db.Query(ctx, "SELECT RANGEVALUE(A3) + ?", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var got float64
	if err := rows.Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("RANGEVALUE(A3) + 8 = %v, want 50", got)
	}
}

func TestListenCancel(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	var mu sync.Mutex
	events := 0
	cancel := db.Listen(func(string) {
		mu.Lock()
		events++
		mu.Unlock()
	})
	if _, err := db.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := events
	mu.Unlock()
	if after == 0 {
		t.Fatal("listener saw no events")
	}
	cancel()
	cancel() // idempotent
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	final := events
	mu.Unlock()
	if final != after {
		t.Fatalf("listener fired after cancel: %d -> %d", after, final)
	}
}

// TestConcurrentReadersAndWriters races streaming readers against writers on
// the same table (the scenario the engine's reader/writer lock exists for;
// `make race` proves the absence of data races).
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 2000)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// Writers: inserts, updates and deletes on dedicated connections.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			conn := db.Conn()
			next := 10_000 + seed
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch i % 3 {
				case 0:
					_, err = conn.Exec(ctx, "INSERT INTO items VALUES (?, ?, ?)", next, next%10, "fresh")
					next += 2
				case 1:
					_, err = conn.Exec(ctx, "UPDATE items SET name = ? WHERE id = ?", "touched", (seed*331+i)%2000)
				default:
					_, err = conn.Exec(ctx, "DELETE FROM items WHERE id = ?", 10_000+seed+(i%50)*2)
				}
				if err != nil && !errors.Is(err, dataspread.ErrUniqueViolation) {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Readers: streaming scans on their own connections.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := db.Conn()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := conn.Query(ctx, "SELECT id, name FROM items WHERE grp = ?", 3)
				if err != nil {
					errCh <- err
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					rows.Close()
					errCh <- err
					return
				}
				rows.Close()
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestFastQueryAlwaysHasColumns guards the header handoff: a query that
// completes before the caller reads the first row must still expose its
// column names.
func TestFastQueryAlwaysHasColumns(t *testing.T) {
	db := newTestDB(t)
	ctx := context.Background()
	loadN(t, db, 3)
	for i := 0; i < 300; i++ {
		rows, err := db.Query(ctx, "SELECT id, name FROM items LIMIT 1")
		if err != nil {
			t.Fatal(err)
		}
		if cols := rows.Columns(); len(cols) != 2 {
			t.Fatalf("iteration %d: columns = %v", i, cols)
		}
		for rows.Next() {
		}
		rows.Close()
	}
}

// TestTransactionWALScoping proves replay honours transaction boundaries
// across connections: rolled-back and uncommitted work never reaches the
// WAL, another connection's autocommit insert between BEGIN and ROLLBACK
// fails with ErrConflict (the transaction owns the tables) and leaves no
// trace live or in the log, and committed transactions recover whole.
func TestTransactionWALScoping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wb.ds")
	ctx := context.Background()
	db, err := dataspread.OpenFile(path, dataspread.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY, tag TEXT)"); err != nil {
		t.Fatal(err)
	}
	a, b := db.Conn(), db.Conn()
	// A opens a transaction; B commits independently in the middle of it.
	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(ctx, "INSERT INTO t VALUES (?, ?)", 1, "rolled-back"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(ctx, "INSERT INTO t VALUES (?, ?)", 2, "autocommit"); !errors.Is(err, dataspread.ErrConflict) {
		t.Fatalf("B's insert while A owns the tables = %v, want ErrConflict", err)
	}
	if err := a.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := db.RowCount("t"); err != nil || n != 0 {
		t.Fatalf("rows after ROLLBACK = %d, %v; want 0", n, err)
	}
	// A second transaction that commits.
	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(ctx, "INSERT INTO t VALUES (?, ?)", 3, "committed"); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := dataspread.OpenFile(path, dataspread.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Fatalf("recovery errors: %v", errs)
	}
	res, err := re.Exec(ctx, "SELECT id, tag FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, fmt.Sprintf("%s=%s", row[0], row[1]))
	}
	want := []string{"3=committed"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
}
