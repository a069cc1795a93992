package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/dataspread/dataspread"
)

// analytic_scan: executor operators, tablestore decode + zone pruning, pool
// misses and FileStore reads do the work; wire, session and WAL do none. The
// table is ≈19× the pool, so every scan runs cold.

const (
	analyticRows      = 40_000 // ≈610 pages
	analyticPoolPages = 32
	analyticGroups    = 256
	analyticDimNames  = 16
	analyticTsStep    = 10 // ts = position*step + jitter: clustered, strictly increasing

	analyticSelective = "SELECT COUNT(*), SUM(qty) FROM facts WHERE ts BETWEEN ? AND ?"
	analyticFull      = "SELECT COUNT(*) FROM facts WHERE qty > ?"
	analyticGroupBy   = "SELECT grp, COUNT(*), SUM(qty), AVG(price) FROM facts GROUP BY grp"
	analyticJoin      = "SELECT d.name, COUNT(*), SUM(f.qty) FROM facts f JOIN dims d ON f.grp = d.grp WHERE f.ts < ? GROUP BY d.name"
)

var (
	analyticClasses = []string{"selective", "full", "groupby", "join"}
	analyticSQL     = []string{analyticSelective, analyticFull, analyticGroupBy, analyticJoin}
	analyticNotes   = []string{"alpha", "beta", "gamma", "delta"}
)

type analyticState struct {
	dir   string
	n     int
	wb    *workbook
	fs    *countFS
	probe fsFile
	conn  *coreConn
	sess  *execSession
	stmts [numClasses]*preparedStmt
	mix   *rand.Rand

	// The model: the generated columns, and what the fixed queries return.
	ts, grp, qty, price []int
	qtyPrefix           []int // qtyPrefix[i] = sum of qty[0:i]
	qtyAbove            [101]int
	groupWant           map[int][3]float64 // grp → count, sum(qty), avg(price)

	skipped [numClasses]int64 // pages skipped by traced executor replays
	replays [numClasses]int64
}

func dimName(grp int) string { return fmt.Sprintf("dim%02d", grp%analyticDimNames) }

func analyticSetup(cfg config, rep int) (*analyticState, error) {
	st := &analyticState{dir: filepath.Join(cfg.dataDir, fmt.Sprintf("analytic-%d", rep)), mix: newRand(cfg.seed, 0)}
	st.n = cfg.scaled(analyticRows)
	if st.n < 4000 {
		st.n = 4000 // even the rot guard's table must outgrow its pool
	}
	pool := cfg.scaled(analyticPoolPages)
	if pool < 8 {
		pool = 8
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	st.generate(newRand(cfg.seed, 1))

	ctx := context.Background()
	path := filepath.Join(st.dir, "facts.ds")
	st.fs = newCountFS(false)
	opts := coreOptions{Workers: cfg.workers, BufferPoolPages: &pool, FS: st.fs}
	wb, err := openWorkbook(path, opts)
	if err != nil {
		return nil, err
	}
	load := func() error {
		conn := wb.NewConn()
		for _, ddl := range []string{
			"CREATE TABLE facts (id INT PRIMARY KEY, ts INT, grp INT, qty INT, price INT, note TEXT)",
			"CREATE TABLE dims (grp INT PRIMARY KEY, name TEXT)",
			"BEGIN",
		} {
			if _, err := conn.QueryContext(ctx, ddl); err != nil {
				return err
			}
		}
		ins, err := conn.Prepare("INSERT INTO facts VALUES (?, ?, ?, ?, ?, ?)")
		if err != nil {
			return err
		}
		num := func(v int) dataspread.Value { return dataspread.Number(float64(v)) }
		for i := 0; i < st.n; i++ {
			if _, err := conn.ExecutePrepared(ctx, ins, num(i+1), num(st.ts[i]), num(st.grp[i]), num(st.qty[i]), num(st.price[i]),
				dataspread.Text(analyticNotes[i%len(analyticNotes)])); err != nil {
				return err
			}
		}
		insDim, err := conn.Prepare("INSERT INTO dims VALUES (?, ?)")
		if err != nil {
			return err
		}
		for g := 0; g < analyticGroups; g++ {
			if _, err := conn.ExecutePrepared(ctx, insDim, num(g), dataspread.Text(dimName(g))); err != nil {
				return err
			}
		}
		if _, err := conn.QueryContext(ctx, "COMMIT"); err != nil {
			return err
		}
		return wb.Checkpoint()
	}
	if err := load(); err != nil {
		_ = wb.Close() // the load error is the one to report
		return nil, err
	}
	// Reopen, so the measured workbook starts with a cold pool and no
	// decoded pages, like one opened on an existing file.
	if err := wb.Close(); err != nil {
		return nil, err
	}
	if st.wb, err = openWorkbook(path, opts); err != nil {
		return nil, err
	}
	st.conn = st.wb.NewConn()
	st.sess = st.wb.DB().NewSession(nil)
	for k, sql := range analyticSQL {
		if st.stmts[k], err = st.conn.Prepare(sql); err != nil {
			return nil, err
		}
	}
	st.probe, err = newCountFS(false).OpenFile(path, os.O_RDONLY, 0)
	return st, err
}

// generate draws the table from the seed and works out, in plain Go, what
// the queries must return.
func (st *analyticState) generate(r *rand.Rand) {
	n := st.n
	st.ts, st.grp, st.qty, st.price = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	st.qtyPrefix = make([]int, n+1)
	type agg struct{ count, qty, price int }
	groups := make(map[int]*agg)
	for i := 0; i < n; i++ {
		st.ts[i] = i*analyticTsStep + r.Intn(analyticTsStep)
		st.grp[i] = r.Intn(analyticGroups)
		st.qty[i] = r.Intn(100)
		st.price[i] = r.Intn(1000)
		st.qtyPrefix[i+1] = st.qtyPrefix[i] + st.qty[i]
		for t := 0; t < st.qty[i]; t++ {
			st.qtyAbove[t]++ // rows with qty > t
		}
		g := groups[st.grp[i]]
		if g == nil {
			g = &agg{}
			groups[st.grp[i]] = g
		}
		g.count++
		g.qty += st.qty[i]
		g.price += st.price[i]
	}
	st.groupWant = make(map[int][3]float64, len(groups))
	for grp, g := range groups {
		st.groupWant[grp] = [3]float64{float64(g.count), float64(g.qty), float64(g.price) / float64(g.count)}
	}
}

func (st *analyticState) teardown() {
	if st.probe != nil {
		if err := st.probe.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: closing probe handle: %v\n", err)
		}
	}
	if st.wb != nil {
		if err := st.wb.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: closing analytic workbook: %v\n", err)
		}
	}
	if err := os.RemoveAll(st.dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}

// op runs the i-th query: the four classes in turn, binds drawn from the seed.
func (st *analyticState) op(tr *tracer, i int64) opResult {
	class := int(i % numClasses)
	ctx := context.Background()
	maxTs := st.n * analyticTsStep
	var args []dataspread.Value
	var check func(rows [][]dataspread.Value) error
	switch class {
	case 0: // 1% of the table, by the clustered column
		lo := st.mix.Intn(maxTs - maxTs/100)
		hi := lo + maxTs/100
		args = []dataspread.Value{dataspread.Number(float64(lo)), dataspread.Number(float64(hi))}
		a, b := sort.SearchInts(st.ts, lo), sort.SearchInts(st.ts, hi+1)
		check = func(rows [][]dataspread.Value) error {
			return expectRow(rows, float64(b-a), float64(st.qtyPrefix[b]-st.qtyPrefix[a]))
		}
	case 1: // ≈50% of the table, by an unclustered column
		t := 45 + st.mix.Intn(10)
		args = []dataspread.Value{dataspread.Number(float64(t))}
		check = func(rows [][]dataspread.Value) error { return expectRow(rows, float64(st.qtyAbove[t])) }
	case 2:
		check = func(rows [][]dataspread.Value) error {
			if len(rows) != len(st.groupWant) {
				return fmt.Errorf("groupby: %d groups, want %d", len(rows), len(st.groupWant))
			}
			for _, row := range rows {
				got, err := nums(row)
				if err != nil {
					return err
				}
				if want := st.groupWant[int(got[0])]; len(got) != 4 || [3]float64{got[1], got[2], got[3]} != want {
					return fmt.Errorf("groupby: group %v = %v, want %v", got[0], got[1:], want)
				}
			}
			return nil
		}
	case 3: // ≈10% of facts joined to dims
		bound := maxTs/10 - maxTs/100 + st.mix.Intn(maxTs/50)
		args = []dataspread.Value{dataspread.Number(float64(bound))}
		check = func(rows [][]dataspread.Value) error {
			want := make(map[string][2]float64)
			for p, end := 0, sort.SearchInts(st.ts, bound); p < end; p++ {
				w := want[dimName(st.grp[p])]
				want[dimName(st.grp[p])] = [2]float64{w[0] + 1, w[1] + float64(st.qty[p])}
			}
			if len(rows) != len(want) {
				return fmt.Errorf("join: %d groups, want %d", len(rows), len(want))
			}
			for _, row := range rows {
				got, err := nums(row[1:])
				if err != nil {
					return err
				}
				if w := want[row[0].String()]; len(got) != 2 || [2]float64{got[0], got[1]} != w {
					return fmt.Errorf("join: %s = %v, want %v", row[0], got, w)
				}
			}
			return nil
		}
	}
	start := time.Now()
	res, err := st.conn.ExecutePrepared(ctx, st.stmts[class], args...)
	lat := time.Since(start)
	if err == nil {
		err = check(res.Rows)
	}
	if err != nil {
		return opResult{class: class, err: fmt.Errorf("%s: %w", analyticClasses[class], err)}
	}
	if tr.sampled(i / numClasses) { // one in 50 of each class
		st.replay(tr.root("core.exec", analyticClasses[class], start, lat), class, args)
	}
	return opResult{class: class, lat: lat, units: 1}
}

func (st *analyticState) replay(op tracedOp, class int, args []dataspread.Value) {
	ctx := context.Background()
	db := st.wb.DB()
	op.layer("sqlparser.parse", func() { _ = parseSQL(analyticSQL[class]) })
	op.layer("sqlexec.prepare", func() { _, _ = db.Prepare(analyticSQL[class]) })
	_, skip0 := db.ScanStats()
	op.layer("sqlexec.exec", func() { _, _ = st.sess.ExecutePreparedContext(ctx, st.stmts[class], args...) })
	_, skip1 := db.ScanStats()
	st.skipped[class] += skip1 - skip0
	st.replays[class]++

	if class == 1 { // the storage scan under the executor's full scan
		op.layer("tablestore.scan", func() {
			_ = db.Scan("facts", func(rowID, []dataspread.Value) bool { return true })
		})
	}
	key := []dataspread.Value{dataspread.Number(float64(1 + int(op.id*7919)%st.n))}
	var rid rowID
	op.layer("index.find", func() { rid, _, _ = db.FindByKey("facts", key) })
	op.layer("tablestore.get", func() { _, _ = db.Get("facts", rid) })
	if ids := db.DurablePageIDs(); len(ids) > 0 {
		pid := ids[int(op.id*104729)%len(ids)]
		page := make([]byte, 4096)
		op.layer("file.read", func() { _, _ = st.probe.ReadAt(page, int64(pid)*4096) })
	}
}

func runAnalyticScan(cfg config, rec *record) error {
	rec.Classes = analyticClasses
	st, setup, err := repeatSetup(cfg,
		func(rep int) (*analyticState, error) { return analyticSetup(cfg, rep) },
		func(s *analyticState) { s.teardown() })
	if err != nil {
		return err
	}
	defer st.teardown()

	var base engineBase
	w, tr, err := measure(cfg, rec, 1,
		func() { base = snapEngine(st.wb, st.fs) },
		func(tr *tracer, _ int, i int64) opResult { return st.op(tr, i) })
	if err != nil {
		return err
	}
	rec.endToEnd(setup, w)
	engineCounters(rec.PerLayer, st.wb, st.fs, base)
	if tr == nil {
		return nil
	}

	m := rec.PerLayer
	tr.report(m, "sqlparser.parse_ns_per_stmt", "ns", "sqlparser.parse", "")
	tr.report(m, "sqlexec.prepare_hit_ns", "ns", "sqlexec.prepare", "")
	for k, name := range analyticClasses {
		tr.report(m, fmt.Sprintf("sqlexec.exec_class%d_p50_us", k+1), "us", "sqlexec.exec", name)
		m.set(fmt.Sprintf("sqlexec.pages_skipped_class%d", k+1), ratio(float64(st.skipped[k]), float64(st.replays[k])), "count")
	}
	m.set("core.self_p50_us", us(tr.gaps("core.exec", "sqlexec.exec").median()), "us")
	m.set("tablestore.scan_ns_per_row", ratio(float64(tr.durations("tablestore.scan", "").median().Nanoseconds()), float64(st.n)), "ns")
	tr.report(m, "tablestore.get_ns_per_row", "ns", "tablestore.get", "")
	tr.report(m, "index.find_ns", "ns", "index.find", "")
	tr.report(m, "file.read_4k_ns", "ns", "file.read", "")
	probePool(m, st.wb, 400)
	if info, err := os.Stat(filepath.Join(st.dir, "facts.ds")); err == nil {
		// id, ts, grp, qty, price at 8 bytes each plus a 5-byte note.
		m.set("file.bytes_on_disk_per_user_byte", ratio(float64(info.Size()), float64(st.n)*45), "ratio")
	}
	return nil
}
