package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/dataspread/dataspread"
)

// durable_ingest: the same tablestore / pool / index / zone-map layers as
// analytic_scan, but for writes, with WAL fsync, FileStore write-back, COW
// relocation and the checkpointer dominant. A read-side gain bought with
// heavier page sealing, compression or zone recompute shows up here as a loss.

const (
	ingestPreload  = 5_000 // rows present before the window, so set-up is not trivial
	ingestTxnRows  = 100
	ingestReopens  = 10
	ingestNoteLen  = 48
	ingestBuckets  = 512
	ingestCrashMin = 20 // the crash phase acks a seeded 20–59 operations before arming the fuse
	ingestCrashVar = 40
	ingestFuseMax  = 120 // the power cut lands on one of the next 1–120 mutating file calls
	ingestAfterArm = 40  // operations attempted after arming; a checkpoint a quarter of the way in

	ingestInsert = "INSERT INTO events VALUES (?, ?, ?, ?)"
	ingestUpdate = "UPDATE events SET v = ? WHERE id = ?"
	ingestDelete = "DELETE FROM events WHERE id = ?"
)

var ingestClasses = []string{"autocommit_update", "autocommit_delete", "cold_reopen", "txn_100_rows"}

type ingestRow struct {
	v    int
	slot int // index in live
}

// ingestModel is what the table must hold: every acked change, nothing else.
type ingestModel struct {
	rows      map[int]ingestRow
	live      []int // ids, for O(1) random picks
	nextID    int
	userBytes int64 // logical bytes of acked inserted and updated rows
}

func (m *ingestModel) insert(id, v int) {
	m.rows[id] = ingestRow{v: v, slot: len(m.live)}
	m.live = append(m.live, id)
	m.userBytes += 3*8 + ingestNoteLen
}

func (m *ingestModel) update(id, v int) {
	r := m.rows[id]
	r.v = v
	m.rows[id] = r
	m.userBytes += 3*8 + ingestNoteLen
}

func (m *ingestModel) remove(id int) {
	r := m.rows[id]
	last := m.live[len(m.live)-1]
	m.live[r.slot] = last
	moved := m.rows[last]
	moved.slot = r.slot
	m.rows[last] = moved
	m.live = m.live[:len(m.live)-1]
	delete(m.rows, id)
}

type ingestState struct {
	dir, path string
	workers   int
	fs        *countFS
	wb        *workbook
	conn      *coreConn
	sess      *execSession
	ins       *preparedStmt
	upd       *preparedStmt
	del       *preparedStmt
	mix       *rand.Rand
	model     ingestModel

	logBytes, commits int64
}

func ingestNote(r *rand.Rand) string {
	b := make([]byte, ingestNoteLen)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func (st *ingestState) open(fs *countFS) error {
	var err error
	st.fs = fs
	if st.wb, err = openWorkbook(st.path, coreOptions{Workers: st.workers, FS: fs}); err != nil {
		return err
	}
	st.conn = st.wb.NewConn()
	st.sess = st.wb.DB().NewSession(nil)
	return nil
}

func (st *ingestState) prepare() error {
	var err error
	for _, p := range []struct {
		dst **preparedStmt
		sql string
	}{{&st.ins, ingestInsert}, {&st.upd, ingestUpdate}, {&st.del, ingestDelete}} {
		if *p.dst, err = st.conn.Prepare(p.sql); err != nil {
			return err
		}
	}
	return nil
}

func ingestSetup(cfg config, rep int) (*ingestState, error) {
	st := &ingestState{dir: filepath.Join(cfg.dataDir, fmt.Sprintf("ingest-%d", rep)), workers: cfg.workers, mix: newRand(cfg.seed, 0)}
	st.path = filepath.Join(st.dir, "events.ds")
	st.model = ingestModel{rows: make(map[int]ingestRow), nextID: 1}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	if err := st.open(newCountFS(false)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, ddl := range []string{
		"CREATE TABLE events (id INT PRIMARY KEY, bucket INT, v INT, note TEXT)",
		"CREATE INDEX events_bucket ON events (bucket)",
	} {
		if _, err := st.conn.QueryContext(ctx, ddl); err != nil {
			return nil, err
		}
	}
	if err := st.prepare(); err != nil {
		return nil, err
	}
	for done, n := 0, cfg.scaled(ingestPreload); done < n; done += ingestTxnRows {
		if r := st.txn(ingestTxnRows); r.err != nil {
			return nil, r.err
		}
	}
	st.model.userBytes = 0 // only the window's rows count into write_amp
	return st, st.wb.Checkpoint()
}

func (st *ingestState) teardown() {
	if st.wb != nil {
		if err := st.wb.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: closing ingest workbook: %v\n", err)
		}
		st.wb = nil
	}
	if err := os.RemoveAll(st.dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}

// logged brackets a commit with WAL().LogSize for txn.log_bytes_per_commit (a
// checkpoint truncating in between makes the pair unusable; it is skipped).
func (st *ingestState) logged(fn func() error) error {
	before := st.wb.WAL().LogSize()
	if err := fn(); err != nil {
		return err
	}
	if after := st.wb.WAL().LogSize(); after >= before {
		st.logBytes += after - before
		st.commits++
	}
	return nil
}

// txn inserts rows in one transaction.
func (st *ingestState) txn(rows int) opResult {
	ctx := context.Background()
	num := func(v int) dataspread.Value { return dataspread.Number(float64(v)) }
	type pending struct{ id, v int }
	batch := make([]pending, 0, rows)
	start := time.Now()
	err := st.logged(func() error {
		if _, err := st.conn.QueryContext(ctx, "BEGIN"); err != nil {
			return err
		}
		for k := 0; k < rows; k++ {
			p := pending{id: st.model.nextID + k, v: st.mix.Intn(1000)}
			res, err := st.conn.ExecutePrepared(ctx, st.ins, num(p.id), num(st.mix.Intn(ingestBuckets)), num(p.v), dataspread.Text(ingestNote(st.mix)))
			if err != nil {
				return err
			}
			if res.Affected != 1 {
				return fmt.Errorf("INSERT of %d affected %d rows", p.id, res.Affected)
			}
			batch = append(batch, p)
		}
		_, err := st.conn.QueryContext(ctx, "COMMIT")
		return err
	})
	lat := time.Since(start)
	if err != nil {
		return opResult{class: 3, err: err}
	}
	st.model.nextID += rows
	for _, p := range batch {
		st.model.insert(p.id, p.v)
	}
	return opResult{class: 3, lat: lat, units: rows}
}

// autocommit runs one single-row UPDATE or DELETE by primary key.
func (st *ingestState) autocommit(tr *tracer, i int64, del bool) opResult {
	ctx := context.Background()
	id := st.model.live[st.mix.Intn(len(st.model.live))]
	class, stmt, text := 0, st.upd, ingestUpdate
	v := st.mix.Intn(1000)
	args := []dataspread.Value{dataspread.Number(float64(v)), dataspread.Number(float64(id))}
	if del {
		class, stmt, text, args = 1, st.del, ingestDelete, args[1:]
	}
	var affected int
	start := time.Now()
	err := st.logged(func() error {
		res, err := st.conn.ExecutePrepared(ctx, stmt, args...)
		if err == nil {
			affected = res.Affected
		}
		return err
	})
	lat := time.Since(start)
	if err == nil && affected != 1 {
		err = fmt.Errorf("%s of row %d affected %d rows", ingestClasses[class], id, affected)
	}
	if err != nil {
		return opResult{class: class, err: err}
	}
	if del {
		st.model.remove(id)
	} else {
		st.model.update(id, v)
	}
	if tr.sampled(i) {
		op := tr.root("core.exec", ingestClasses[class], start, lat)
		db := st.wb.DB()
		op.layer("sqlparser.parse", func() { _ = parseSQL(text) })
		op.layer("sqlexec.prepare", func() { _, _ = db.Prepare(text) })
		// Replaying the same statement below core is idempotent: the UPDATE
		// rewrites the value just written, the DELETE finds nothing.
		op.layer("sqlexec.exec", func() { _, _ = st.sess.ExecutePreparedContext(ctx, stmt, args...) })
		probe := st.model.live[st.mix.Intn(len(st.model.live))]
		var rid rowID
		op.layer("index.find", func() {
			rid, _, _ = db.FindByKey("events", []dataspread.Value{dataspread.Number(float64(probe))})
		})
		op.layer("tablestore.get", func() { _, _ = db.Get("events", rid) })
	}
	return opResult{class: class, lat: lat, units: 1}
}

// op is the write mix: 100-row transactions alternating with autocommit
// single-row statements.
func (st *ingestState) op(tr *tracer, i int64) opResult {
	switch i % 4 {
	case 1:
		return st.autocommit(tr, i/4, false)
	case 3:
		return st.autocommit(tr, i/4, true)
	}
	return st.txn(ingestTxnRows)
}

// count runs a single-number query.
func (st *ingestState) count(sql string, args ...dataspread.Value) (int, error) {
	res, err := st.conn.QueryContext(context.Background(), sql, args...)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: unexpected result shape", sql)
	}
	f, _ := res.Rows[0][0].AsNumber()
	return int(f), nil
}

// diffModel reads the whole table back and counts the rows that differ from
// the model: missing, unexpected, or holding another v.
func (st *ingestState) diffModel() (int, error) {
	if errs := st.wb.RecoveryErrors(); len(errs) > 0 {
		return 0, fmt.Errorf("recovery reported %d errors, first: %v", len(errs), errs[0])
	}
	res, err := st.conn.QueryContext(context.Background(), "SELECT id, v FROM events")
	if err != nil {
		return 0, err
	}
	bad, matched := 0, 0
	for _, row := range res.Rows {
		got, err := nums(row)
		if err != nil {
			return 0, err
		}
		if want, ok := st.model.rows[int(got[0])]; ok && want.v == int(got[1]) {
			matched++
		} else {
			bad++
		}
	}
	return bad + len(st.model.rows) - matched, nil
}

func runDurableIngest(cfg config, rec *record) error {
	rec.Classes = ingestClasses
	st, setup, err := repeatSetup(cfg,
		func(rep int) (*ingestState, error) { return ingestSetup(cfg, rep) },
		func(s *ingestState) { s.teardown() })
	if err != nil {
		return err
	}
	defer st.teardown()

	var base engineBase
	w, tr, err := measure(cfg, rec, 1,
		func() {
			st.model.userBytes, st.logBytes, st.commits = 0, 0, 0
			base = snapEngine(st.wb, st.fs)
		},
		func(tr *tracer, _ int, i int64) opResult { return st.op(tr, i) })
	if err != nil {
		return err
	}

	m := rec.PerLayer
	// One explicit checkpoint closes the window: it is timed on its own, it
	// brings the heap up to date so write_amp covers every acked row, and
	// it empties the WAL so the cold reopens below replay nothing.
	took, err := timed(st.wb.Checkpoint)
	if err != nil {
		return err
	}
	m.set("core.checkpoint_explicit_ms", ms(took), "ms")
	engineCounters(m, st.wb, st.fs, base)
	heap, wal := st.fs.snapshot()
	written := heap.sub(base.heap).WriteBytes + wal.sub(base.wal).WriteBytes
	m.set("file.write_amp", ratio(float64(written), float64(st.model.userBytes)), "ratio")
	m.set("core.checkpoints", float64(wal.sub(base.wal).Truncates), "count")
	m.set("txn.log_bytes_per_commit", ratio(float64(st.logBytes), float64(st.commits)), "B")
	if tr != nil {
		probePool(m, st.wb, 400)
	}
	if err := st.wb.Close(); err != nil {
		return err
	}
	st.wb = nil
	if info, err := os.Stat(st.path); err == nil {
		live := int64(len(st.model.live)) * (3*8 + ingestNoteLen)
		m.set("file.bytes_on_disk_per_user_byte", ratio(float64(info.Size()), float64(live)), "ratio")
	}

	// Cold reopens: OpenFile + COUNT(*) + Close on the checkpointed file.
	for k := 0; k < ingestReopens; k++ {
		took, err := timed(func() error {
			if err := st.open(st.fs); err != nil {
				return err
			}
			n, err := st.count("SELECT COUNT(*) FROM events")
			if err == nil && n != len(st.model.live) {
				err = fmt.Errorf("reopen sees %d rows, want %d", n, len(st.model.live))
			}
			if cerr := st.wb.Close(); err == nil {
				err = cerr
			}
			st.wb = nil
			return err
		})
		w.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: cold reopen: %v\n", err)
			w.failed++
			continue
		}
		w.lat[2] = append(w.lat[2], took)
	}
	rec.endToEnd(setup, w)

	if err := st.open(st.fs); err != nil {
		return err
	}
	if bad, err := st.diffModel(); err != nil || bad != 0 {
		fmt.Fprintf(os.Stderr, "bench: durable_ingest: %d rows differ from the acked writes (%v)\n", bad, err)
		rec.Correct = false
	}
	if err := st.wb.Close(); err != nil {
		return err
	}
	st.wb = nil

	acked, lost, dropped, err := st.crashPhase()
	if err != nil {
		return fmt.Errorf("crash phase: %w", err)
	}
	rec.Attempted += acked
	rec.Failed += lost
	m.set("durable.crash_acked", float64(acked), "count")
	m.set("durable.crash_lost_acks", float64(lost), "count")
	m.set("durable.crash_dropped_bytes", float64(dropped), "B")
	m.set("e2e.failed_frac", ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio")

	if tr == nil {
		return nil
	}
	tr.report(m, "sqlparser.parse_ns_per_stmt", "ns", "sqlparser.parse", "")
	tr.report(m, "sqlexec.prepare_hit_ns", "ns", "sqlexec.prepare", "")
	for k, name := range ingestClasses[:2] {
		tr.report(m, fmt.Sprintf("sqlexec.exec_class%d_p50_us", k+1), "us", "sqlexec.exec", name)
	}
	m.set("core.self_p50_us", us(tr.gaps("core.exec", "sqlexec.exec").median()), "us")
	tr.report(m, "index.find_ns", "ns", "index.find", "")
	tr.report(m, "tablestore.get_ns_per_row", "ns", "tablestore.get", "")
	return nil
}

// crashPhase reopens the workbook on the crash-discarding filesystem, runs a
// seeded number of acked operations, then arms the filesystem to cut the
// power at a seeded mutating call and keeps working — operations and one
// explicit checkpoint — until the cut lands: inside a commit's WAL append, or
// among the checkpoint's page writes, its root flip or its WAL truncation.
// The handle is abandoned without Close and every byte no Sync covered is
// gone. After reopening, the table must hold every acked write and nothing
// else: no part of an operation that was in flight. It returns the operations
// acked in the phase, how many rows came back wrong (capped at the
// operations, so failed never exceeds attempted) and the bytes discarded.
func (st *ingestState) crashPhase() (acked, lost, dropped int64, err error) {
	crashFS := newCountFS(true)
	if err := st.open(crashFS); err != nil {
		return 0, 0, 0, err
	}
	if err := st.prepare(); err != nil {
		return 0, 0, 0, err
	}
	ops := ingestCrashMin + st.mix.Intn(ingestCrashVar)
	for i := 0; i < ops; i++ {
		if r := st.op(nil, int64(i)); r.err != nil {
			return 0, 0, 0, r.err
		}
	}
	crashFS.arm(1 + st.mix.Intn(ingestFuseMax))
	for i := ops; i < ops+ingestAfterArm; i++ {
		if i == ops+ingestAfterArm/4 {
			if err := st.wb.Checkpoint(); err != nil {
				break // the cut landed in the checkpoint
			}
		}
		if r := st.op(nil, int64(i)); r.err != nil {
			break // the cut landed in this operation: it was never acked
		}
		acked++
	}
	dropped = crashFS.crashNow()
	// The abandoned handle still owns a checkpointer goroutine; Close stops
	// it. Every I/O it attempts fails, so nothing more reaches the disk.
	_ = st.wb.Close()
	st.wb = nil

	if err := st.open(newCountFS(false)); err != nil {
		return 0, 0, 0, fmt.Errorf("reopen after crash: %w", err)
	}
	bad, err := st.diffModel()
	if err != nil {
		return 0, 0, 0, err
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: after the crash %d rows differ from the acked writes\n", bad)
	}
	acked += int64(ops)
	if int64(bad) > acked {
		bad = int(acked)
	}
	return acked, int64(bad), dropped, nil
}
