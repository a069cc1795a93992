package interfacemgr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
	"github.com/dataspread/dataspread/internal/window"
)

// The generated equivalence oracle for memoized DBSQL refreshes: a seeded
// stream of writes — SQL UPDATEs of key and non-key columns, multi-row
// UPDATEs, INSERTs, DELETEs, explicit transactions that COMMIT or ROLLBACK,
// edits of a two-way bound table region, edits of RANGEVALUE parameter cells,
// index DDL, writes and parameter edits that land while a binding's query
// runs, and one checkpoint + reopen — runs against one DBSQL binding per
// query shape, and after every operation every spilled cell must equal a
// direct execution of its binding's SQL.
//
// Table t holds oracleRows rows with even ids 2..2*oracleRows; a = id plus a
// little noise, so zone maps prune ranges over both id and a. Regions of the
// key space are kept for one purpose each, so that zone summaries there stay
// tight whatever the stream does: ids below 2000 take key moves and
// out-of-place a values, [2200, 2600] the transient moves, and
// [oracleQuietLo, oracleQuietHi] only in-place writes — no binding's bounds
// admit those pages, so a write there must execute no sketched binding.
const (
	oracleRows    = 2560 // fills whole pages and column chunks on every layout
	oracleOps     = 240
	oracleQuietLo = 3000
	oracleQuietHi = 3600
)

// oracleQueries are the DBSQL shapes under test. quiet marks the ones whose
// sketch no write in the quiet region can touch.
var oracleQueries = []struct {
	sql   string
	quiet bool
}{
	{`SELECT COUNT(*), SUM(b) FROM t WHERE id >= 200 AND id <= 900`, true},                                     // pk range: index path
	{`SELECT COUNT(*), SUM(b), MIN(id) FROM t WHERE a >= 600 AND a < 1300`, true},                              // non-key range: pruned scan
	{`SELECT COUNT(*), SUM(a) FROM t`, false},                                                                  // no WHERE
	{`SELECT COUNT(*) FROM t`, false},                                                                          // bare COUNT(*): the snapshot's row count
	{`SELECT g, COUNT(*), SUM(b) FROM t WHERE id <= 1000 GROUP BY g ORDER BY g`, true},                         // GROUP BY
	{`SELECT t.id, u.w FROM t JOIN u ON t.g = u.k WHERE t.id >= 300 AND t.id <= 340 ORDER BY t.id`, true},      // two-table join
	{`SELECT COUNT(*), SUM(b) FROM t WHERE s = 's7'`, false},                                                   // text: not sargable
	{`SELECT id, b FROM t WHERE id >= 400 AND id <= 800 LIMIT 4`, true},                                        // LIMIT without ORDER BY
	{`SELECT COUNT(*), SUM(q.b) FROM (SELECT id, b FROM t WHERE id < 600) q`, false},                           // sub-select: fallback
	{`SELECT COUNT(*), SUM(b) FROM t WHERE id >= RANGEVALUE(Sheet3!A1) AND id <= RANGEVALUE(Sheet3!B1)`, true}, // sheet parameter
	{`SELECT id, a, b FROM t WHERE b >= 995 ORDER BY id`, false},                                               // unclustered bound
}

// oracle is one workbook under the generated stream.
type oracle struct {
	t      *testing.T
	rng    *rand.Rand
	cfg    sqlexec.Config
	db     *sqlexec.Database
	book   *sheet.Book
	engine *compute.Engine
	m      *Manager
	sess   *sqlexec.Session // runs the bindings and the reference executions
	writer *sqlexec.Session // issues the stream's SQL writes
	table  *Binding
	binds  []*Binding
	// runMu serialises the runner: the refreshes a concurrent write requests
	// run on that writer's goroutine.
	runMu sync.Mutex
	runs  map[string]int // executions per binding SQL
	// inject, when set, runs around the next execution of its binding's SQL
	// (one shot): a write that lands while that refresh is in flight.
	inject  *injection
	pending sync.WaitGroup // concurrent writers still refreshing
	fresh   int            // next unused id in the high region
}

type injection struct {
	sql       string
	pre, post func()
}

func TestSketchOracle(t *testing.T) {
	for i, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			o := newOracle(t, sqlexec.Config{GroupSize: shape.GroupSize, Backend: pager.NewStore()}, int64(23+i))
			ops := oracleOps
			if raceEnabled {
				ops /= 4
			}
			for op := 0; op < ops; op++ {
				what := o.step(op, ops)
				o.check(fmt.Sprintf("op %d (%s)", op, what))
			}
		})
	}
}

func newOracle(t *testing.T, cfg sqlexec.Config, seed int64) *oracle {
	o := &oracle{t: t, rng: rand.New(rand.NewSource(seed)), cfg: cfg, runs: map[string]int{}, fresh: 2*oracleRows + 1000}
	o.db = sqlexec.NewDatabase(cfg)
	for _, ddl := range []string{
		"CREATE TABLE t (id NUMBER PRIMARY KEY, a NUMBER, b NUMBER, g NUMBER, s TEXT)",
		"CREATE TABLE u (k NUMBER PRIMARY KEY, w NUMBER)",
	} {
		if _, err := o.db.NewSession(nil).Query(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for id := 2; id <= 2*oracleRows; id += 2 {
		o.must(o.db.Insert("t", o.tuple(id, id+o.rng.Intn(10))))
	}
	for k := 0; k < 5; k++ {
		o.must(o.db.Insert("u", []sheet.Value{sheet.Number(float64(k)), sheet.Number(float64(10 * k))}))
	}
	o.attach(nil)
	return o
}

// attach builds the workbook and manager over o.db and binds the table and
// every oracle query; params carries the parameter cells across a reopen.
func (o *oracle) attach(params []sheet.Value) {
	o.book = sheet.NewBook()
	for _, name := range []string{"Sheet1", "Sheet2", "Sheet3"} {
		o.book.AddSheet(name)
	}
	sh3, _ := o.book.Sheet("Sheet3")
	if params == nil {
		params = []sheet.Value{sheet.Number(100), sheet.Number(500)}
	}
	sh3.SetCell(sheet.MustParseAddress("A1"), sheet.Cell{Value: params[0]})
	sh3.SetCell(sheet.MustParseAddress("B1"), sheet.Cell{Value: params[1]})
	o.engine = compute.New(o.book)
	windows := window.NewManager(20, 6)
	o.engine.SetVisibleProvider(windows.Visible)
	o.m = New(o.db, o.book, o.engine, windows)
	o.m.SetMaterializeAllLimit(100)
	acc := &bookAccessor{book: o.book}
	o.sess = o.db.NewSession(acc)
	o.writer = o.db.NewSession(nil)
	o.m.SetQueryRunner(func(sql string) (*sqlexec.Result, error) {
		o.runMu.Lock()
		defer o.runMu.Unlock()
		o.runs[sql]++
		inj := o.inject
		if inj == nil || inj.sql != sql {
			return o.sess.Query(sql)
		}
		o.inject = nil
		if inj.pre != nil {
			inj.pre()
		}
		res, err := o.sess.Query(sql)
		if inj.post != nil {
			inj.post()
		}
		return res, err
	}, acc)
	var err error
	if o.table, err = o.m.BindTable("Sheet1", sheet.Addr(0, 0), "t"); err != nil {
		o.t.Fatal(err)
	}
	o.binds = o.binds[:0]
	for i, q := range oracleQueries {
		b, err := o.m.BindQuery("Sheet2", sheet.Addr(0, 4*i), q.sql)
		if err != nil {
			o.t.Fatalf("bind %s: %v", q.sql, err)
		}
		o.binds = append(o.binds, b)
	}
}

func (o *oracle) must(_ any, err error) {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
}

func (o *oracle) exec(sql string, args ...sheet.Value) *sqlexec.Result {
	o.t.Helper()
	p, err := o.db.Prepare(sql)
	if err != nil {
		o.t.Fatal(err)
	}
	res, err := o.writer.ExecutePreparedContext(context.Background(), p, args...)
	if err != nil {
		o.t.Fatalf("%s %v: %v", sql, args, err)
	}
	return res
}

func num(v int) sheet.Value { return sheet.Number(float64(v)) }

func (o *oracle) tuple(id, a int) []sheet.Value {
	return []sheet.Value{num(id), num(a), num(o.rng.Intn(1000)), num(o.rng.Intn(5)), sheet.String_(fmt.Sprintf("s%d", o.rng.Intn(20)))}
}

// existing returns a live id in [lo, hi], or 0 when there is none.
func (o *oracle) existing(lo, hi int) int {
	start := lo + o.rng.Intn(hi-lo+1)
	for _, r := range [][2]int{{start, hi}, {lo, hi}} {
		res := o.exec("SELECT id FROM t WHERE id >= ? AND id <= ? ORDER BY id LIMIT 1", num(r[0]), num(r[1]))
		if len(res.Rows) == 1 {
			return int(res.Rows[0][0].Num)
		}
	}
	return 0
}

// unused returns an odd id in [lo, hi] no row holds.
func (o *oracle) unused(lo, hi int) int {
	for {
		id := (lo + o.rng.Intn(hi-lo+1)) | 1
		if len(o.exec("SELECT id FROM t WHERE id = ?", num(id)).Rows) == 0 {
			return id
		}
	}
}

// step applies operation op of the stream and names it.
func (o *oracle) step(op, ops int) string {
	if op == ops/2 {
		o.reopen()
		return "checkpoint + reopen"
	}
	switch r := o.rng.Intn(100); {
	case r < 14: // non-key UPDATE in place: a keeps tracking id
		if id := o.existing(2, 2*oracleRows); id > 0 {
			o.exec("UPDATE t SET a = ?, b = ? WHERE id = ?", num(id+o.rng.Intn(10)), num(o.rng.Intn(1000)), num(id))
		}
		return "update"
	case r < 20: // key UPDATE: the row may move into or out of every id range
		if id := o.existing(2, 1998); id > 0 {
			o.exec("UPDATE t SET id = ? WHERE id = ?", num(o.unused(1, 1999)), num(id))
		}
		return "update key"
	case r < 24: // a matching a-value moves onto a page the a-range skipped
		if id := o.existing(1400, 1998); id > 0 {
			o.exec("UPDATE t SET a = ? WHERE id = ?", num(600+o.rng.Intn(700)), num(id))
		}
		return "update a into range"
	case r < 32:
		return o.multiRowUpdate()
	case r < 42:
		id, a := o.fresh, o.fresh
		if o.rng.Intn(2) == 0 {
			id = o.unused(1, 1999)
			a = id + o.rng.Intn(10)
			if o.rng.Intn(3) == 0 {
				a = 600 + o.rng.Intn(700)
			}
		} else {
			o.fresh += 2
		}
		o.exec("INSERT INTO t VALUES (?, ?, ?, ?, ?)", o.tuple(id, a)...)
		return "insert"
	case r < 50:
		if id := o.existing(2, 2*oracleRows); id > 0 {
			o.exec("DELETE FROM t WHERE id = ?", num(id))
		}
		return "delete"
	case r < 58: // a two-way bound cell, edited on the sheet
		pos := o.rng.Intn(min(15, o.table.RowCount()))
		col := 1 + o.rng.Intn(4)
		v := num(o.rng.Intn(1000))
		if col == 4 {
			v = sheet.String_(fmt.Sprintf("s%d", o.rng.Intn(20)))
		}
		if _, err := o.m.HandleSheetEdit("Sheet1", sheet.Addr(o.table.Anchor.Row+1+pos, col), v); err != nil {
			o.t.Fatal(err)
		}
		return "sheet edit"
	case r < 62:
		o.exec("UPDATE u SET w = ? WHERE k = ?", num(o.rng.Intn(100)), num(o.rng.Intn(5)))
		return "update u"
	case r < 67: // a RANGEVALUE parameter cell: its binding refreshes through the engine
		addr := []string{"A1", "B1"}[o.rng.Intn(2)]
		o.engine.SetValue("Sheet3", sheet.MustParseAddress(addr), num(o.rng.Intn(2000)))()
		return "parameter edit"
	case r < 70:
		col := []string{"a", "b", "g"}[o.rng.Intn(3)]
		if _, err := o.writer.Query(fmt.Sprintf("CREATE INDEX i%d ON t (%s)", op, col)); err != nil {
			o.t.Fatal(err)
		}
		return "create index"
	case r < 78:
		return o.writeAfterRun()
	case r < 82:
		return o.paramDuringRun()
	case r < 90:
		return o.transaction()
	default:
		return o.transientMove()
	}
}

// multiRowUpdate changes b of a run of rows with one statement, which
// publishes one change set: inside a sketch it executes a binding that reads
// the rows exactly once; in the quiet region no sketched binding executes at
// all.
func (o *oracle) multiRowUpdate() string {
	k := 2 + o.rng.Intn(7)
	quiet := o.rng.Intn(2) == 0
	lo := 200 + o.rng.Intn(600)
	if quiet {
		lo = oracleQuietLo + o.rng.Intn(oracleQuietHi-oracleQuietLo-2*k)
	}
	// Index DDL leaves memos of an older schema epoch; settle those first.
	for _, b := range o.binds {
		if err := o.m.RefreshBinding(b.ID); err != nil {
			o.t.Fatal(err)
		}
	}
	before := o.snapshotRuns()
	res := o.exec("UPDATE t SET b = b + 1 WHERE id >= ? AND id <= ?", num(lo), num(lo+2*k))
	for i, q := range oracleQueries {
		got := o.runs[q.sql] - before[i]
		switch {
		case quiet && q.quiet && got != 0:
			o.t.Fatalf("%d-row UPDATE outside every sketch executed %q %d times", res.Affected, q.sql, got)
		case !quiet && (i == 0 || i == 2) && got != 1: // the pk-range and no-WHERE cells read every such row
			o.t.Fatalf("%d-row UPDATE inside the sketch executed %q %d times, want once", res.Affected, q.sql, got)
		}
	}
	return fmt.Sprintf("%d-row update, quiet=%v", res.Affected, quiet)
}

// transaction makes two to five writes inside the pk range of the first
// binding in one explicit transaction, sometimes refreshes every binding
// half-way, and ends with COMMIT or ROLLBACK. Only the end publishes: no
// binding executes before it except through the explicit refreshes, and
// each executes at most once at the end. A refresh half-way spills
// uncommitted rows, which a ROLLBACK must take back off the sheet.
func (o *oracle) transaction() string {
	var writes []string
	k, refreshAt := 2+o.rng.Intn(4), -1
	if o.rng.Intn(2) == 0 {
		refreshAt = o.rng.Intn(k)
	}
	executed := 0
	before := o.snapshotRuns()
	o.exec("BEGIN")
	for i := 0; i < k; i++ {
		switch id := o.existing(200, 900); {
		case o.rng.Intn(3) == 0 || id == 0:
			o.exec("INSERT INTO t VALUES (?, ?, ?, ?, ?)", o.tuple(o.unused(201, 899), 200+o.rng.Intn(700))...)
			writes = append(writes, "insert")
		case o.rng.Intn(2) == 0:
			o.exec("DELETE FROM t WHERE id = ?", num(id))
			writes = append(writes, "delete")
		default:
			o.exec("UPDATE t SET b = ? WHERE id = ?", num(o.rng.Intn(1000)), num(id))
			writes = append(writes, "update")
		}
		if i == refreshAt {
			for _, n := range o.runsSince(before) {
				executed += n
			}
			for _, b := range o.binds {
				if err := o.m.RefreshBinding(b.ID); err != nil {
					o.t.Fatal(err)
				}
			}
			before = o.snapshotRuns()
			writes = append(writes, "refresh")
		}
	}
	for _, n := range o.runsSince(before) {
		executed += n
	}
	if executed != 0 {
		o.t.Fatalf("transaction %v executed bindings %d times before its end", writes, executed)
	}
	end := []string{"COMMIT", "ROLLBACK"}[o.rng.Intn(2)]
	o.exec(end)
	o.engine.Wait()
	for i, n := range o.runsSince(before) {
		if n > 1 {
			o.t.Fatalf("%s of %v executed %q %d times, want at most once", end, writes, oracleQueries[i].sql, n)
		}
	}
	return fmt.Sprintf("transaction %v %s", writes, end)
}

// runsSince returns each binding's executions since snapshotRuns returned
// before.
func (o *oracle) runsSince(before []int) []int {
	now := o.snapshotRuns()
	for i := range now {
		now[i] -= before[i]
	}
	return now
}

func (o *oracle) snapshotRuns() []int {
	out := make([]int, len(oracleQueries))
	for i, q := range oracleQueries {
		out[i] = o.runs[q.sql]
	}
	return out
}

// target picks a bounded binding whose range covers ids [200, 600], and the
// write that makes it refresh.
func (o *oracle) target() (sql string, trigger func()) {
	sql = oracleQueries[[]int{0, 3}[o.rng.Intn(2)]].sql
	return sql, func() {
		if id := o.existing(300, 600); id > 0 {
			o.exec("UPDATE t SET b = ? WHERE id = ?", num(o.rng.Intn(1000)), num(id))
		}
	}
}

// injected runs trigger with inj armed and waits for the concurrent writers
// it started.
func (o *oracle) injected(inj *injection, trigger func()) {
	o.runMu.Lock()
	o.inject = inj
	o.runMu.Unlock()
	trigger()
	o.pending.Wait()
	o.runMu.Lock()
	o.inject = nil
	o.runMu.Unlock()
}

// land applies a write to t from another goroutine, as a concurrent writer
// would, and returns once it is applied. The refreshes its change
// notification requests run on that goroutine; the one of a binding whose
// refresh is in flight waits for it.
func (o *oracle) land(sql string, args ...sheet.Value) {
	before := o.db.TableDataVersion("t")
	done := make(chan error, 1)
	o.pending.Add(1)
	go func() {
		defer o.pending.Done()
		p, err := o.db.Prepare(sql)
		if err == nil {
			_, err = o.db.NewSession(nil).ExecutePreparedContext(context.Background(), p, args...)
		}
		done <- err
	}()
	for o.db.TableDataVersion("t") == before {
		select {
		case err := <-done:
			o.t.Fatalf("%s %v changed nothing: %v", sql, args, err)
		default:
			runtime.Gosched()
		}
	}
}

// writeAfterRun lands a write to the binding's rows between its execution
// and the end of its refresh: the fingerprint taken before the run must not
// vouch for it.
func (o *oracle) writeAfterRun() string {
	sql, trigger := o.target()
	o.injected(&injection{sql: sql, post: func() {
		if id := o.existing(200, 600); id > 0 {
			o.land("UPDATE t SET b = ? WHERE id = ?", num(o.rng.Intn(1000)), num(id))
		}
	}}, trigger)
	return "write after run"
}

// paramDuringRun edits a RANGEVALUE parameter cell while the parameterised
// binding's query runs. The refresh the edit requests waits for the running
// one and must re-execute rather than take the memo it leaves.
func (o *oracle) paramDuringRun() string {
	id := o.existing(2, 2*oracleRows)
	if id == 0 {
		return "parameter edit during run (no row)"
	}
	o.injected(&injection{sql: oracleQueries[8].sql, post: func() {
		addr := []string{"A1", "B1"}[o.rng.Intn(2)]
		o.engine.SetValue("Sheet3", sheet.MustParseAddress(addr), num(o.rng.Intn(2000)))
	}}, func() { o.exec("DELETE FROM t WHERE id = ?", num(id)) }) // a delete re-executes every sketched binding
	o.engine.Wait()
	return "parameter edit during run"
}

// transientMove moves a row from a page the binding's bounds skip into its
// range just before its query runs and back right after: the page is
// admitted only while the query runs, and the sketches before and after are
// equal.
func (o *oracle) transientMove() string {
	id := o.existing(2200, 2600)
	if id == 0 {
		return "transient move (no row)"
	}
	sql, trigger := o.target()
	into := o.unused(301, 599)
	o.injected(&injection{sql: sql,
		pre:  func() { o.land("UPDATE t SET id = ? WHERE id = ?", num(into), num(id)) },
		post: func() { o.land("UPDATE t SET id = ? WHERE id = ?", num(id), num(into)) },
	}, trigger)
	return "transient move"
}

// reopen checkpoints the pages and zone catalog, attaches a fresh database to
// them and rebuilds the workbook and every binding over it.
func (o *oracle) reopen() {
	blob, err := o.db.MarshalPages()
	if err != nil {
		o.t.Fatal(err)
	}
	zones := o.db.MarshalZones()
	sh3, _ := o.book.Sheet("Sheet3")
	params := []sheet.Value{sh3.Value(sheet.MustParseAddress("A1")), sh3.Value(sheet.MustParseAddress("B1"))}
	o.m.Close()
	o.engine.Wait()
	o.db = sqlexec.NewDatabase(o.cfg)
	if err := o.db.AttachPages(blob); err != nil {
		o.t.Fatal(err)
	}
	if err := o.db.AttachZones(zones); err != nil {
		o.t.Fatal(err)
	}
	o.attach(params)
}

// check compares every binding's spill with a direct execution of its SQL.
func (o *oracle) check(when string) {
	o.t.Helper()
	o.engine.Wait()
	sh, _ := o.book.Sheet("Sheet2")
	for i, b := range o.binds {
		want, err := o.sess.Query(b.SQL)
		if err != nil {
			o.t.Fatalf("%s: %s: %v", when, b.SQL, err)
		}
		for r := 0; r <= len(want.Rows)+1; r++ {
			for c := range want.Columns {
				got := sh.Value(sheet.Addr(b.Anchor.Row+r, b.Anchor.Col+c))
				var exp sheet.Value
				switch {
				case r == 0:
					exp = sheet.String_(want.Columns[c])
				case r <= len(want.Rows):
					exp = want.Rows[r-1][c]
				}
				if !reflect.DeepEqual(got, exp) {
					o.t.Fatalf("%s: binding %d (%s) cell (%d,%d) = %v, direct execution %v",
						when, i, strings.Fields(b.SQL)[1], r, c, got, exp)
				}
			}
		}
	}
}

// TestSketchSkipsWritesOutsideBounds pins the sketch's selling point on one
// table: an UPDATE of a row the binding's bounds exclude leaves it a memo
// hit; one inside re-executes it; a DELETE anywhere — a tombstone, no page
// rewritten — re-executes it.
func TestSketchSkipsWritesOutsideBounds(t *testing.T) {
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			db := sqlexec.NewDatabase(sqlexec.Config{GroupSize: shape.GroupSize})
			book := sheet.NewBook()
			book.AddSheet("Sheet1")
			m := New(db, book, compute.New(book), window.NewManager(20, 6))
			sess := db.NewSession(nil)
			m.SetQueryRunner(func(sql string) (*sqlexec.Result, error) { return sess.Query(sql) }, nil)
			if err := db.CreateTable("t", []catalog.Column{
				{Name: "id", Type: catalog.TypeNumber, PrimaryKey: true},
				{Name: "b", Type: catalog.TypeNumber},
			}); err != nil {
				t.Fatal(err)
			}
			for id := 1; id <= 3000; id++ {
				if _, err := db.Insert("t", []sheet.Value{num(id), num(1)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.BindQuery("Sheet1", sheet.Addr(0, 0), "SELECT SUM(b) FROM t WHERE id >= 100 AND id <= 200"); err != nil {
				t.Fatal(err)
			}
			step := func(sql string, wantRefreshes uint64, wantSum int) {
				t.Helper()
				before := m.Stats()
				if _, err := sess.Query(sql); err != nil {
					t.Fatal(err)
				}
				s := m.Stats()
				if s.Refreshes-before.Refreshes != wantRefreshes || s.MemoHits-before.MemoHits != 1-wantRefreshes {
					t.Fatalf("%s: refreshes +%d, memo hits +%d", sql, s.Refreshes-before.Refreshes, s.MemoHits-before.MemoHits)
				}
				if got := val(t, book, "A2"); got.Num != float64(wantSum) {
					t.Fatalf("%s: SUM = %v, want %d", sql, got, wantSum)
				}
			}
			step("UPDATE t SET b = 5 WHERE id = 2900", 0, 101)
			step("UPDATE t SET b = 5 WHERE id = 150", 1, 105)
			step("DELETE FROM t WHERE id = 2950", 1, 105)
			step("INSERT INTO t VALUES (3001, 7)", 0, 105)
			step("UPDATE t SET id = 160.5 WHERE id = 3001", 1, 112)
		})
	}
}
