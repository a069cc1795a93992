package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/dataspread/dataspread"
	"github.com/dataspread/dataspread/client"
)

// served_oltp: the whole request path — client → wire → session/admission →
// plan cache → engine lock/epoch → index access → WAL fsync — does the work;
// scan kernels and page decode do almost none.

const (
	oltpRows        = 25_000 // ≈700 pages: fits the default 4096-page pool
	oltpRowsPerOwn  = 10     // rows sharing one value of the indexed column
	oltpRangeOwners = 2      // a range read spans this many owners: 20 rows
	oltpTenant      = "bench"
	oltpToken       = "bench-token"

	oltpPoint  = "SELECT id, owner, v, chk FROM accounts WHERE id = ?"
	oltpRange  = "SELECT id, owner, v, chk FROM accounts WHERE owner >= ? AND owner <= ?"
	oltpUpdate = "UPDATE accounts SET v = ?, chk = ? WHERE id = ?"
	oltpInsert = "INSERT INTO accounts VALUES (?, ?, ?, ?, ?)"
	// oltpBadRows counts the rows whose stored checksum is wrong: always 0.
	oltpBadRows = "SELECT COUNT(*) FROM accounts WHERE chk <> id * 31 + v * 17"
)

var (
	oltpClasses = []string{"point_select", "index_range", "update", "insert"}
	oltpSQL     = []string{oltpPoint, oltpRange, oltpUpdate, oltpInsert} // by class
)

// chk is stored with every row and recomputed on every read: a torn or
// misrouted row cannot pass.
func oltpChk(id, v int) int { return id*31 + v*17 }

func oltpV0(seed int64, id int) int { return int((uint64(id)*2654435761 + uint64(seed)) % 1000) }

func oltpOwner(id int) int { return (id - 1) / oltpRowsPerOwn }

func oltpPad(id int) string { return fmt.Sprintf("account-%016d", id) }

type oltpState struct {
	dir      string
	n        int
	srv      *netServer
	serveErr chan error
	addr     string
	clients  []*oltpClient
	twin     *workbook // traced runs only
	twinFS   *countFS
	probe    fsFile
}

type oltpClient struct {
	c        *client.Client
	stmts    [numClasses]*client.Stmt // by class
	mix      *rand.Rand
	zipf     *rand.Zipf
	model    map[int]int // id → v, for ids this client alone writes
	inserted int

	// Traced runs only: the twin's side of this client, and what its traced
	// operations moved through the codec.
	twinConn              *coreConn
	twinSess              *execSession
	twinStmts             [numClasses]*preparedStmt
	wireFrames, wireBytes int64
}

func oltpSetup(cfg config, rep int) (*oltpState, error) {
	st := &oltpState{dir: filepath.Join(cfg.dataDir, fmt.Sprintf("oltp-%d", rep))}
	st.n = cfg.scaled(oltpRows) / oltpRowsPerOwn * oltpRowsPerOwn
	if st.n < 10*oltpRowsPerOwn {
		st.n = 10 * oltpRowsPerOwn
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	path := filepath.Join(st.dir, oltpTenant+".ds")
	opts := dataspread.Options{Workers: cfg.workers}
	db, err := dataspread.OpenFile(path, opts)
	if err != nil {
		return nil, err
	}
	load := func() error {
		if _, err := db.Exec(ctx, "CREATE TABLE accounts (id INT PRIMARY KEY, owner INT, v INT, chk INT, pad TEXT)"); err != nil {
			return err
		}
		if _, err := db.Exec(ctx, "CREATE INDEX accounts_owner ON accounts (owner)"); err != nil {
			return err
		}
		conn := db.Conn()
		ins, err := conn.Prepare(oltpInsert)
		if err != nil {
			return err
		}
		if err := conn.Begin(ctx); err != nil {
			return err
		}
		for id := 1; id <= st.n; id++ {
			v := oltpV0(cfg.seed, id)
			if _, err := ins.Exec(ctx, id, oltpOwner(id), v, oltpChk(id, v), oltpPad(id)); err != nil {
				return err
			}
		}
		if err := conn.Commit(ctx); err != nil {
			return err
		}
		return db.Checkpoint()
	}
	if err := load(); err != nil {
		_ = db.Close() // the load error is the one to report
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := st.openTwin(cfg, path); err != nil {
			return nil, err
		}
	}

	st.srv, err = newServer(serverConfig{
		DataRoot: st.dir,
		Tenants:  map[string]string{oltpTenant: oltpToken},
		Options:  opts,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.addr = ln.Addr().String()
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.srv.Serve(ln) }()

	for c := 0; c < cfg.clients; c++ {
		oc, err := st.dial(cfg, c)
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, oc)
	}
	return st, nil
}

func (st *oltpState) dial(cfg config, c int) (*oltpClient, error) {
	cl, err := client.Dial(st.addr, client.Config{Tenant: oltpTenant, Token: oltpToken})
	if err != nil {
		return nil, err
	}
	oc := &oltpClient{c: cl, mix: newRand(cfg.seed, c), model: make(map[int]int)}
	oc.zipf = rand.NewZipf(oc.mix, 1.1, 1, uint64(st.n-1))
	if st.twin != nil {
		oc.twinConn = st.twin.NewConn()
		oc.twinSess = st.twin.DB().NewSession(nil)
	}
	for class, sql := range oltpSQL {
		if oc.stmts[class], err = cl.Prepare(sql); err != nil {
			return nil, err
		}
		if st.twin != nil {
			if oc.twinStmts[class], err = st.twin.Prepare(sql); err != nil {
				return nil, err
			}
		}
	}
	return oc, nil
}

// openTwin opens a copy of the seeded file as an embedded workbook: traced
// operations are replayed against it layer by layer, below the wire.
func (st *oltpState) openTwin(cfg config, seeded string) error {
	twinPath := filepath.Join(st.dir, "twin.ds")
	data, err := os.ReadFile(seeded)
	if err != nil {
		return err
	}
	if err := os.WriteFile(twinPath, data, 0o644); err != nil {
		return err
	}
	st.twinFS = newCountFS(false)
	st.twin, err = openWorkbook(twinPath, coreOptions{Workers: cfg.workers, FS: st.twinFS})
	if err != nil {
		return err
	}
	// One full scan, so the twin's pool is as warm as the server's is after
	// the warm-up.
	if _, err := st.twin.NewConn().QueryContext(context.Background(), oltpBadRows); err != nil {
		return err
	}
	st.probe, err = newCountFS(false).OpenFile(twinPath, os.O_RDONLY, 0)
	return err
}

func (st *oltpState) teardown() {
	for _, oc := range st.clients {
		_ = oc.c.Close() // best effort: the server drains the session either way
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := st.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "bench: server shutdown: %v\n", err)
		}
		cancel()
		<-st.serveErr
	}
	if st.probe != nil {
		if err := st.probe.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: closing probe handle: %v\n", err)
		}
	}
	if st.twin != nil {
		if err := st.twin.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: closing twin: %v\n", err)
		}
	}
	if err := os.RemoveAll(st.dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}

// key draws a Zipf-distributed id; a seeded affine map spreads the hot ranks
// over the table instead of packing them into the first pages.
func (st *oltpState) key(oc *oltpClient, seed int64) int {
	rank := oc.zipf.Uint64()
	return int((rank*7919+uint64(seed)*104729)%uint64(st.n)) + 1
}

// ownKey moves id to the nearest id that only this client writes, so the
// client's model of v is exact.
func (st *oltpState) ownKey(id, c, clients int) int {
	id = id - (id-1)%clients + c
	if id > st.n {
		id -= clients
	}
	return id
}

type oltpRow struct{ id, owner, v, chk int }

func scanOltpRow(vals []dataspread.Value) (oltpRow, error) {
	var r oltpRow
	if len(vals) != 4 {
		return r, fmt.Errorf("row has %d columns, want 4", len(vals))
	}
	for i, dst := range []*int{&r.id, &r.owner, &r.v, &r.chk} {
		f, ok := vals[i].AsNumber()
		if !ok {
			return r, fmt.Errorf("column %d is not numeric: %v", i, vals[i])
		}
		*dst = int(f)
	}
	if r.chk != oltpChk(r.id, r.v) || r.owner != oltpOwner(r.id) {
		return r, fmt.Errorf("row %d fails its checksum: v=%d chk=%d owner=%d", r.id, r.v, r.chk, r.owner)
	}
	return r, nil
}

// op runs one operation of the mix for client c.
func (st *oltpState) op(cfg config, tr *tracer, c int, i int64) opResult {
	oc := st.clients[c]
	ctx := context.Background()
	traced := tr.sampled(i)
	p := oc.mix.Float64()
	id := st.key(oc, cfg.seed)
	var (
		class int
		args  []any
		rows  [][]dataspread.Value // kept on traced operations only
		nrows int
		check func(oltpRow) error
	)
	switch {
	case p < 0.70:
		class, args, nrows = 0, []any{id}, 1
		check = func(r oltpRow) error {
			if r.id != id {
				return fmt.Errorf("point read of %d returned %d", id, r.id)
			}
			if want, mine := oc.model[id]; mine && want != r.v {
				return fmt.Errorf("row %d: v=%d, acked update wrote %d", id, r.v, want)
			}
			return nil
		}
	case p < 0.80:
		lo := oltpOwner(id)
		if max := st.n/oltpRowsPerOwn - oltpRangeOwners; lo > max {
			lo = max
		}
		hi := lo + oltpRangeOwners - 1
		class, args, nrows = 1, []any{lo, hi}, oltpRangeOwners*oltpRowsPerOwn
		check = func(r oltpRow) error {
			if r.owner < lo || r.owner > hi {
				return fmt.Errorf("range [%d,%d] returned owner %d", lo, hi, r.owner)
			}
			return nil
		}
	case p < 0.95:
		id = st.ownKey(id, c, len(st.clients))
		v := oc.mix.Intn(1_000_000)
		class, args = 2, []any{v, oltpChk(id, v), id}
	default:
		id = st.n + 1 + c + len(st.clients)*oc.inserted
		v := oc.mix.Intn(1000)
		class, args = 3, []any{id, oltpOwner(id), v, oltpChk(id, v), oltpPad(id)}
	}

	stmt := oc.stmts[class]
	start := time.Now()
	var err error
	if class <= 1 {
		var rs *client.Rows
		if rs, err = stmt.Query(ctx, args...); err == nil {
			got := 0
			for rs.Next() {
				got++
				r, rerr := scanOltpRow(rs.Values())
				if rerr == nil {
					rerr = check(r)
				}
				if rerr != nil && err == nil {
					err = rerr
				}
				if traced {
					rows = append(rows, append([]dataspread.Value(nil), rs.Values()...))
				}
			}
			if cerr := rs.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err == nil && got != nrows {
				err = fmt.Errorf("%s: %d rows, want %d", oltpClasses[class], got, nrows)
			}
		}
	} else {
		var res client.Result
		if res, err = stmt.Exec(ctx, args...); err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("%s of %d affected %d rows", oltpClasses[class], id, res.RowsAffected)
		}
	}
	lat := time.Since(start)
	if err != nil {
		return opResult{class: class, err: err}
	}
	switch class {
	case 2:
		oc.model[id] = args[0].(int)
	case 3:
		oc.inserted++
	}
	if traced {
		st.replay(tr.root("client", oltpClasses[class], start, lat), oc, class, id, args, rows)
	}
	return opResult{class: class, lat: lat, units: 1}
}

// replay pushes a traced operation's inputs through each inner layer in turn.
func (st *oltpState) replay(op tracedOp, oc *oltpClient, class, id int, args []any, rows [][]dataspread.Value) {
	ctx := context.Background()
	vals, err := dataspread.BindValues(args)
	if err != nil {
		return
	}
	// wire: the exchange's own frames through the codec on a memory buffer.
	wop := buildWireOp(uint64(class+1), class <= 1, vals, []string{"id", "owner", "v", "chk"}, rows, 1)
	var buf bytes.Buffer
	op.layer("wire.encode", func() {
		n, _ := wop.encode(&buf)
		oc.wireFrames += int64(n)
	})
	oc.wireBytes += int64(buf.Len())
	op.layer("wire.decode", func() { _, _ = decodeFrames(&buf, 4) })

	// core: the same statement embedded, on the twin — everything below the
	// wire and the session.
	text, prep := oltpSQL[class], oc.twinStmts[class]
	op.layer("core.exec", func() {
		if class <= 1 {
			if rs, err := oc.twinConn.StreamPrepared(ctx, prep, vals...); err == nil {
				for rs.Next() {
				}
				_ = rs.Close()
			}
			return
		}
		_, _ = oc.twinConn.ExecutePrepared(ctx, prep, vals...)
	})
	op.layer("sqlparser.parse", func() { _ = parseSQL(text) })
	op.layer("sqlexec.prepare", func() { _, _ = st.twin.DB().Prepare(text) })
	if class == 3 {
		// The row now exists on the twin; the executor-level replay inserts
		// a shadow id far outside the workload's key space instead.
		vals[0] = dataspread.Number(float64(id + 1_000_000_000))
	}
	op.layer("sqlexec.exec", func() { _, _ = oc.twinSess.ExecutePreparedContext(ctx, prep, vals...) })

	db := st.twin.DB()
	key := []dataspread.Value{dataspread.Number(float64(id))}
	var rid rowID
	op.layer("index.find", func() { rid, _, _ = db.FindByKey("accounts", key) })
	op.layer("tablestore.get", func() { _, _ = db.Get("accounts", rid) })
	if ids := db.DurablePageIDs(); len(ids) > 0 {
		pid := ids[int(op.id)%len(ids)]
		op.layer("pager.get", func() { _, _ = db.Pool().Get(pid) })
		page := make([]byte, 4096)
		op.layer("file.read", func() { _, _ = st.probe.ReadAt(page, int64(pid)*4096) })
	}
}

func runServedOLTP(cfg config, rec *record) error {
	rec.Classes = oltpClasses
	st, setup, err := repeatSetup(cfg,
		func(rep int) (*oltpState, error) { return oltpSetup(cfg, rep) },
		func(s *oltpState) { s.teardown() })
	if err != nil {
		return err
	}
	defer st.teardown()

	var before serverTenantStats
	var twinBase engineBase
	w, tr, err := measure(cfg, rec, cfg.clients,
		func() {
			before = st.srv.Stats().Tenants[oltpTenant]
			if st.twin != nil {
				twinBase = snapEngine(st.twin, st.twinFS)
			}
		},
		func(tr *tracer, c int, i int64) opResult { return st.op(cfg, tr, c, i) })
	if err != nil {
		return err
	}
	rec.endToEnd(setup, w)
	after := st.srv.Stats().Tenants[oltpTenant]

	if err := st.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: served_oltp verification: %v\n", err)
		rec.Correct = false
	}

	m := rec.PerLayer
	reads := append(append(samples(nil), w.lat[0]...), w.lat[1]...)
	writes := append(append(samples(nil), w.lat[2]...), w.lat[3]...)
	m.set("server.read_p50_us", after.ReadP50Micros, "us")
	m.set("server.write_p50_us", after.WriteP50Micros, "us")
	m.set("server.gap_p50_us", us(reads.median())-after.ReadP50Micros, "us")
	m.set("server.write_gap_p50_us", us(writes.median())-after.WriteP50Micros, "us")
	m.set("server.admission_rejected", float64(after.AdmissionRejected-before.AdmissionRejected), "count")
	m.set("server.evictions", float64(after.Evictions-before.Evictions), "count")
	m.set("server.errors", float64(after.Errors-before.Errors), "count")
	if tr != nil {
		st.layerMetrics(rec, tr, twinBase)
	}
	return nil
}

// verify checks the table against the clients' models once the load stops.
func (st *oltpState) verify() error {
	ctx := context.Background()
	oc := st.clients[0]
	count := func(sql string) (int, error) {
		rs, err := oc.c.Query(ctx, sql)
		if err != nil {
			return 0, err
		}
		defer rs.Close()
		if !rs.Next() {
			return 0, fmt.Errorf("%s: no row: %v", sql, rs.Err())
		}
		f, _ := rs.Values()[0].AsNumber()
		return int(f), nil
	}
	want := st.n
	for _, c := range st.clients {
		want += c.inserted
	}
	if got, err := count("SELECT COUNT(*) FROM accounts"); err != nil || got != want {
		return fmt.Errorf("COUNT(*) = %d (%v), want %d", got, err, want)
	}
	if bad, err := count(oltpBadRows); err != nil || bad != 0 {
		return fmt.Errorf("%d rows fail their checksum (%v)", bad, err)
	}
	for _, c := range st.clients {
		checked := 0
		for id, v := range c.model {
			if checked++; checked > 200 {
				break
			}
			rs, err := c.stmts[0].Query(ctx, id)
			if err != nil {
				return err
			}
			ok := rs.Next()
			var got oltpRow
			if ok {
				got, err = scanOltpRow(rs.Values())
			}
			if cerr := rs.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if !ok || err != nil || got.v != v {
				return fmt.Errorf("row %d: v=%d ok=%v err=%v, acked update wrote %d", id, got.v, ok, err, v)
			}
		}
	}
	return nil
}

// layerMetrics aggregates the traced pass into the per-layer metrics that
// lie on served_oltp's path.
func (st *oltpState) layerMetrics(rec *record, tr *tracer, twinBase engineBase) {
	m := rec.PerLayer

	// client: PING is the wire + session floor; the overhead is what a read
	// pays above the same statement embedded.
	var pings samples
	for i := 0; i < 200; i++ {
		t := time.Now()
		if err := st.clients[0].c.Ping(); err != nil {
			break
		}
		pings = append(pings, time.Since(t))
	}
	m.set("client.ping_rtt_p50_us", us(pings.median()), "us")
	m.set("client.overhead_p50_us", us(tr.gaps("client", "core.exec").median()), "us")

	var frames, moved int64
	for _, oc := range st.clients {
		frames += oc.wireFrames
		moved += oc.wireBytes
	}
	enc, dec := tr.durations("wire.encode", ""), tr.durations("wire.decode", "")
	m.set("wire.encode_ns_per_frame", ratio(float64(enc.sum().Nanoseconds()), float64(frames)), "ns")
	m.set("wire.decode_ns_per_frame", ratio(float64(dec.sum().Nanoseconds()), float64(frames)), "ns")
	m.set("wire.bytes_per_op", ratio(float64(moved), float64(len(enc))), "B")

	tr.report(m, "sqlparser.parse_ns_per_stmt", "ns", "sqlparser.parse", "")
	tr.report(m, "sqlexec.prepare_hit_ns", "ns", "sqlexec.prepare", "")
	for k, name := range oltpClasses {
		tr.report(m, fmt.Sprintf("sqlexec.exec_class%d_p50_us", k+1), "us", "sqlexec.exec", name)
	}
	m.set("core.self_p50_us", us(tr.gaps("core.exec", "sqlexec.exec").median()), "us")
	tr.report(m, "index.find_ns", "ns", "index.find", "")
	tr.report(m, "tablestore.get_ns_per_row", "ns", "tablestore.get", "")
	tr.report(m, "pager.get_hit_ns", "ns", "pager.get", "")
	tr.report(m, "file.read_4k_ns", "ns", "file.read", "")

	// Engine-side counters are the twin's: the server opens its tenant
	// through the public API, which hands out neither its pool nor its FS.
	engineCounters(m, st.twin, st.twinFS, twinBase)
}
