package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/dataspread/dataspread"
)

// sheet_interactive: the paper's own claim — interaction latency independent
// of data size. sheet, formula, compute, window, index/positional and
// interfacemgr do all the work; wire, WAL and FileStore none.

const (
	sheetRows       = 100_000 // bound table, windowed through the positional index
	sheetFanout     = 3_000   // dependants of the edited input
	sheetChains     = 1_700   // depth-10 formula chains: 17k more formula cells
	sheetChainDepth = 10
	sheetWindowRows = 50
	sheetWindowCols = 10
	sheetSumSpan    = 2_000 // rows each DBSQL cell aggregates
	sheetDBEvery    = 20    // every 20th operation is a SQL UPDATE (DB → sheet)
)

var sheetClasses = []string{"edit", "scroll", "sync", "db_to_sheet"}

type sheetState struct {
	wb   *workbook
	conn *coreConn
	sess *execSession
	upd  *preparedStmt
	getB *preparedStmt
	pos  *posIndex // stand-alone twin of the binding's positional index
	mix  *rand.Rand

	n, fanout int
	a, b, c   []int // the model of items, by id
	winTop    int   // 0-based sheet row at the top of Sheet1's window
	sumLo     [2]int
	sum       [2]int // what the two DBSQL cells must show

	cnt sheetCounters
	seq [numClasses]int64 // operations so far per class: the traced pass samples each class 1 in 50
}

// sheetCounters accumulates engine counters around the operations that own
// them (reset where the measured window starts).
type sheetCounters struct {
	edits, evals, visFirst, bgRuns int64
	scrolls, cellsWritten          int64
}

func cell(col string, row int) string { return col + strconv.Itoa(row) }

func sheetSetup(cfg config) (*sheetState, error) {
	st := &sheetState{mix: newRand(cfg.seed, 0)}
	st.n = cfg.scaled(sheetRows)
	if st.n < 2*sheetSumSpan+200 {
		st.n = 2*sheetSumSpan + 200
	}
	st.fanout = cfg.scaled(sheetFanout)
	if st.fanout < 2*sheetWindowRows {
		st.fanout = 2 * sheetWindowRows
	}
	st.wb = newWorkbook(coreOptions{
		Workers: cfg.workers, WindowRows: sheetWindowRows, WindowCols: sheetWindowCols, MaterializeAllLimit: 1000,
	})
	ctx := context.Background()
	wb := st.wb
	st.conn = wb.NewConn()
	st.sess = wb.DB().NewSession(nil)
	if _, err := st.conn.QueryContext(ctx, "CREATE TABLE items (id INT PRIMARY KEY, a INT, b INT, c INT)"); err != nil {
		return nil, err
	}
	ins, err := st.conn.Prepare("INSERT INTO items VALUES (?, ?, ?, ?)")
	if err != nil {
		return nil, err
	}
	gen := newRand(cfg.seed, 1)
	st.a, st.b, st.c = make([]int, st.n+1), make([]int, st.n+1), make([]int, st.n+1)
	num := func(v int) dataspread.Value { return dataspread.Number(float64(v)) }
	for id := 1; id <= st.n; id++ {
		st.a[id], st.b[id], st.c[id] = gen.Intn(1000), gen.Intn(1000), gen.Intn(1000)
		if _, err := st.conn.ExecutePrepared(ctx, ins, num(id), num(st.a[id]), num(st.b[id]), num(st.c[id])); err != nil {
			return nil, err
		}
	}
	if _, err := wb.ImportTable("Sheet1", "A1", "items"); err != nil {
		return nil, err
	}
	if _, err := wb.AddSheet("Sheet2"); err != nil {
		return nil, err
	}
	set := func(addr, input string) error {
		_, err := wb.SetCell("Sheet2", addr, input)
		return err
	}
	if err := set("A1", "1"); err != nil {
		return nil, err
	}
	for r := 1; r <= st.fanout; r++ {
		if err := set(cell("B", r), fmt.Sprintf("=$A$1*%d", r)); err != nil {
			return nil, err
		}
	}
	for r := 1; r <= cfg.scaled(sheetChains); r++ {
		if err := set(cell("C", r), strconv.Itoa(r)); err != nil {
			return nil, err
		}
		for d := 0; d < sheetChainDepth; d++ {
			if _, err := wb.SetCellAt("Sheet2", addr(r-1, 3+d), "="+addr(r-1, 2+d).String()+"+1"); err != nil {
				return nil, err
			}
		}
	}
	st.sumLo = [2]int{1, st.n / 2}
	for k, col := range []string{"P", "R"} {
		lo := st.sumLo[k]
		for id := lo; id < lo+sheetSumSpan; id++ {
			st.sum[k] += st.b[id]
		}
		q := fmt.Sprintf(`=DBSQL("SELECT SUM(b) FROM items WHERE id >= %d AND id <= %d")`, lo, lo+sheetSumSpan-1)
		if err := set(cell(col, 1), q); err != nil {
			return nil, err
		}
	}
	// The user is looking at the top of Sheet2: rows 1–50 of the fan-out are
	// the visible dependants.
	if err := wb.ScrollTo("Sheet2", "A1"); err != nil {
		return nil, err
	}
	wb.Wait()
	if st.upd, err = st.conn.Prepare("UPDATE items SET b = ? WHERE id = ?"); err != nil {
		return nil, err
	}
	if st.getB, err = st.conn.Prepare("SELECT b FROM items WHERE id = ?"); err != nil {
		return nil, err
	}
	if cfg.trace {
		if st.pos, err = newPositional(st.n); err != nil {
			return nil, err
		}
	}
	return st, st.checkSums()
}

func (st *sheetState) teardown() {
	st.wb.Wait()
	_ = st.wb.Close() // in-memory: nothing to flush
}

func (st *sheetState) expect(sheetName, addr string, want int) error {
	v, err := st.wb.Get(sheetName, addr)
	if err != nil {
		return err
	}
	if f, ok := v.AsNumber(); !ok || f != float64(want) {
		return fmt.Errorf("%s!%s = %v, want %d", sheetName, addr, v, want)
	}
	return nil
}

// checkSums checks the two DBSQL cells (the value spills under the header).
func (st *sheetState) checkSums() error {
	for k, col := range []string{"P", "R"} {
		if err := st.expect("Sheet2", cell(col, 2), st.sum[k]); err != nil {
			return fmt.Errorf("DBSQL cell: %w", err)
		}
	}
	return nil
}

// setB moves the model's b of one row.
func (st *sheetState) setB(id, v int) {
	for k, lo := range st.sumLo {
		if id >= lo && id < lo+sheetSumSpan {
			st.sum[k] += v - st.b[id]
		}
	}
	st.b[id] = v
}

// visibleRow picks a data row inside Sheet1's window (sheet row R, 0-based,
// shows the table row with id R; row 0 is the header).
func (st *sheetState) visibleRow() int {
	r := st.winTop + st.mix.Intn(sheetWindowRows)
	if r < 1 {
		r = 1
	}
	if r > st.n {
		r = st.n
	}
	return r
}

func (st *sheetState) op(tr *tracer, i int64) opResult {
	class := int(i % 3)
	if i%sheetDBEvery == sheetDBEvery-1 {
		class = 3
	}
	var lat time.Duration
	var err error
	var replay func(tracedOp)
	start := time.Now()
	switch class {
	case 0:
		lat, replay, err = st.edit()
	case 1:
		lat, replay, err = st.scroll()
	case 2:
		lat, replay, err = st.sync()
	case 3:
		lat, replay, err = st.dbToSheet()
	}
	if err != nil {
		return opResult{class: class, err: fmt.Errorf("%s: %w", sheetClasses[class], err)}
	}
	if st.seq[class]++; tr.sampled(st.seq[class] - 1) {
		replay(tr.root("core", sheetClasses[class], start, lat))
	}
	return opResult{class: class, lat: lat, units: 1}
}

// edit changes the fan-out input. The timer stops when SetCell returns, which
// is when the visible dependants are current; the background pass is drained
// outside the timer (but inside ops_per_s).
func (st *sheetState) edit() (time.Duration, func(tracedOp), error) {
	x := 2 + st.mix.Intn(1000)
	before := st.wb.Engine().Stats()
	start := time.Now()
	wait, err := st.wb.SetCell("Sheet2", "A1", strconv.Itoa(x))
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	for r := 1; r <= sheetWindowRows; r++ {
		if err := st.expect("Sheet2", cell("B", r), x*r); err != nil {
			return 0, nil, fmt.Errorf("visible dependant stale when the edit returned: %w", err)
		}
	}
	wait()
	for _, r := range []int{sheetWindowRows + 1, sheetWindowRows + 1 + st.mix.Intn(st.fanout-sheetWindowRows), st.fanout} {
		if err := st.expect("Sheet2", cell("B", r), x*r); err != nil {
			return 0, nil, fmt.Errorf("background dependant stale after wait: %w", err)
		}
	}
	after := st.wb.Engine().Stats()
	st.cnt.edits++
	st.cnt.evals += int64(after.Evaluations - before.Evaluations)
	st.cnt.visFirst += int64(after.VisibleFirst - before.VisibleFirst)
	st.cnt.bgRuns += int64(after.BackgroundRuns - before.BackgroundRuns)
	return lat, func(op tracedOp) {
		var w func()
		op.layer("compute.set_value", func() { w = st.wb.Engine().SetValue("Sheet2", addr(0, 0), dataspread.Number(float64(x))) })
		w()
	}, nil
}

// scroll pans Sheet1 to a seeded row and reads the window back.
func (st *sheetState) scroll() (time.Duration, func(tracedOp), error) {
	top := st.mix.Intn(st.n - sheetWindowRows)
	before := st.wb.Interface().Stats()
	start := time.Now()
	err := st.wb.ScrollTo("Sheet1", cell("A", top+1))
	var vis [][]dataspread.Value
	if err == nil {
		vis, err = st.wb.VisibleValues("Sheet1")
	}
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	st.winTop = top
	st.cnt.scrolls++
	st.cnt.cellsWritten += int64(st.wb.Interface().Stats().CellsWritten - before.CellsWritten)
	if len(vis) != sheetWindowRows {
		return 0, nil, fmt.Errorf("window has %d rows, want %d", len(vis), sheetWindowRows)
	}
	for off, row := range vis {
		id := top + off
		if id == 0 {
			continue // header
		}
		for c, want := range []int{id, st.a[id], st.b[id], st.c[id]} {
			if f, ok := row[c].AsNumber(); !ok || f != float64(want) {
				return 0, nil, fmt.Errorf("window row %d col %d = %v, want %d", id, c, row[c], want)
			}
		}
	}
	return lat, func(op tracedOp) {
		op.layer("interfacemgr.on_scroll", func() { _ = st.wb.Interface().OnScroll("Sheet1") })
		op.layer("positional.scan50", func() { st.pos.Scan(top, sheetWindowRows+1, func(int, uint64) bool { return true }) })
		op.layer("positional.get", func() { st.pos.Get(top) })
		at := st.mix.Intn(st.n)
		op.layer("positional.insert", func() { _ = st.pos.InsertAt(at, uint64(st.n+1)) })
		st.pos.DeleteAt(at)
	}, nil
}

// sync types a value into a bound cell of the window: the row is updated in
// the database and the DBSQL cells that depend on the table refresh.
func (st *sheetState) sync() (time.Duration, func(tracedOp), error) {
	id, v := st.visibleRow(), st.mix.Intn(1000)
	start := time.Now()
	wait, err := st.wb.SetCell("Sheet1", cell("C", id+1), strconv.Itoa(v))
	if err == nil {
		wait()
	}
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	st.setB(id, v)
	if err := st.checkRow(id); err != nil {
		return 0, nil, err
	}
	return lat, func(op tracedOp) {
		op.layer("interfacemgr.sheet_edit", func() {
			_, _ = st.wb.Interface().HandleSheetEdit("Sheet1", addr(id, 2), dataspread.Number(float64(v)))
		})
	}, nil
}

// dbToSheet updates a visible row through SQL; the bound cell and the DBSQL
// cells must follow.
func (st *sheetState) dbToSheet() (time.Duration, func(tracedOp), error) {
	id, v := st.visibleRow(), st.mix.Intn(1000)
	args := []dataspread.Value{dataspread.Number(float64(v)), dataspread.Number(float64(id))}
	start := time.Now()
	res, err := st.conn.ExecutePrepared(context.Background(), st.upd, args...)
	st.wb.Wait()
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if res.Affected != 1 {
		return 0, nil, fmt.Errorf("UPDATE of row %d affected %d rows", id, res.Affected)
	}
	st.setB(id, v)
	if err := st.checkRow(id); err != nil {
		return 0, nil, err
	}
	return lat, func(op tracedOp) {
		op.layer("sqlexec.exec", func() { _, _ = st.sess.ExecutePreparedContext(context.Background(), st.upd, args...) })
	}, nil
}

// checkRow checks one table row in the database, on the sheet and in the
// DBSQL aggregates.
func (st *sheetState) checkRow(id int) error {
	res, err := st.conn.ExecutePrepared(context.Background(), st.getB, dataspread.Number(float64(id)))
	if err != nil {
		return err
	}
	if err := expectRow(res.Rows, float64(st.b[id])); err != nil {
		return fmt.Errorf("items row %d: %w", id, err)
	}
	if err := st.expect("Sheet1", cell("C", id+1), st.b[id]); err != nil {
		return err
	}
	return st.checkSums()
}

func runSheetInteractive(cfg config, rec *record) error {
	rec.Classes = sheetClasses
	st, setup, err := repeatSetup(cfg,
		func(int) (*sheetState, error) { return sheetSetup(cfg) },
		func(s *sheetState) { s.teardown() })
	if err != nil {
		return err
	}
	defer st.teardown()

	var base engineBase
	var ifBase interfaceStats
	w, tr, err := measure(cfg, rec, 1,
		func() {
			st.cnt, st.seq = sheetCounters{}, [numClasses]int64{}
			base = snapEngine(st.wb, nil)
			ifBase = st.wb.Interface().Stats()
		},
		func(tr *tracer, _ int, i int64) opResult { return st.op(tr, i) })
	if err != nil {
		return err
	}
	rec.endToEnd(setup, w)

	m := rec.PerLayer
	engineCounters(m, st.wb, nil, base)
	m.set("compute.evaluations_per_edit", ratio(float64(st.cnt.evals), float64(st.cnt.edits)), "count")
	m.set("compute.visible_first_per_edit", ratio(float64(st.cnt.visFirst), float64(st.cnt.edits)), "count")
	m.set("compute.background_runs", float64(st.cnt.bgRuns), "count")
	ifs := st.wb.Interface().Stats()
	m.set("interfacemgr.cells_written_per_scroll", ratio(float64(st.cnt.cellsWritten), float64(st.cnt.scrolls)), "count")
	m.set("interfacemgr.refreshes", float64(ifs.Refreshes-ifBase.Refreshes), "count")
	m.set("interfacemgr.incremental_ops", float64(ifs.IncrementalOps-ifBase.IncrementalOps), "count")
	m.set("interfacemgr.memo_hit_ratio", ratio(float64(ifs.MemoHits-ifBase.MemoHits), float64(len(w.lat[2])+len(w.lat[3]))*2), "ratio")
	if tr == nil {
		return nil
	}
	tr.report(m, "compute.set_value_p50_us", "us", "compute.set_value", "")
	m.set("core.self_p50_us", us(tr.gaps("core", "compute.set_value").median()), "us")
	tr.report(m, "interfacemgr.on_scroll_p50_us", "us", "interfacemgr.on_scroll", "")
	tr.report(m, "interfacemgr.sheet_edit_p50_us", "us", "interfacemgr.sheet_edit", "")
	tr.report(m, "sqlexec.exec_class4_p50_us", "us", "sqlexec.exec", "")
	tr.report(m, "positional.get_ns", "ns", "positional.get", "")
	tr.report(m, "positional.scan50_ns", "ns", "positional.scan50", "")
	tr.report(m, "positional.insert_ns", "ns", "positional.insert", "")
	return nil
}
