package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dataspread/dataspread"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/wire"
)

// A session is one client connection. Two goroutines cooperate per session:
// the reader pulls frames off the socket — delivering MsgCancel out of band
// to the query in flight and everything else to cmdCh — and the worker owns
// all command execution and every write to the socket. Splitting the roles
// is what makes cancellation work: while the worker is blocked streaming row
// batches, the reader is still parked in ReadFrame and sees the cancel (or
// the client's disconnect, which cancels implicitly) immediately.
type session struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer
	// cmdCh carries non-cancel frames from reader to worker; the reader
	// closes it when the socket dies.
	cmdCh    chan frame
	closedCh chan struct{}
	closeOne sync.Once

	// tenant is fixed at handshake.
	tenant string

	// Worker-owned tenant binding. gen is the pool generation dsconn was
	// built against; a mismatch after re-acquire means the handle was
	// LRU-evicted and the session transparently rebinds (new Conn,
	// lazily re-prepared statements).
	dsconn *dataspread.Conn
	gen    uint64
	stmts  map[uint64]*sessStmt
	// txEntry pins the tenant handle while an explicit transaction is open
	// so eviction can never yank a workbook out from under a transaction.
	txEntry *tenantEntry

	// inflight is the cancel func of the command being executed, called by
	// the reader on MsgCancel or disconnect.
	inflightMu sync.Mutex
	inflight   context.CancelFunc
}

type frame struct {
	typ     wire.MsgType
	payload []byte
}

type sessStmt struct {
	sql string
	st  *dataspread.Stmt
	gen uint64
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:      srv,
		conn:     conn,
		bw:       bufio.NewWriter(conn),
		cmdCh:    make(chan frame, 8),
		closedCh: make(chan struct{}),
		stmts:    make(map[uint64]*sessStmt),
	}
}

// forceClose tears the session down immediately: the in-flight query is
// canceled and the socket closed, which unblocks both goroutines.
func (s *session) forceClose() {
	s.cancelInflight()
	s.closeOne.Do(func() {
		close(s.closedCh)
		if err := s.conn.Close(); err != nil {
			_ = err // socket teardown; nothing upstream can act on it
		}
	})
}

func (s *session) cancelInflight() {
	s.inflightMu.Lock()
	cancel := s.inflight
	s.inflightMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (s *session) setInflight(cancel context.CancelFunc) {
	s.inflightMu.Lock()
	s.inflight = cancel
	s.inflightMu.Unlock()
}

// run drives the whole session lifecycle and returns when it is torn down.
func (s *session) run() {
	defer s.forceClose()
	if err := s.handshake(); err != nil {
		// The handshake writes its own error frame; nothing more to say.
		return
	}
	s.srv.metrics.activeSessions.Add(1)
	defer s.srv.metrics.activeSessions.Add(-1)
	defer s.teardown()
	go s.readLoop()
	s.workLoop()
}

// handshake authenticates the connection under a deadline and reports the
// tenant's read-only status in the reply flags.
func (s *session) handshake() error {
	if err := s.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return fmt.Errorf("server: handshake deadline: %w", classifyNetErr(err))
	}
	typ, payload, err := wire.ReadFrame(s.conn)
	if err != nil {
		return fmt.Errorf("server: handshake read: %w", err)
	}
	if err := s.conn.SetReadDeadline(time.Time{}); err != nil {
		return fmt.Errorf("server: clear handshake deadline: %w", classifyNetErr(err))
	}
	if typ != wire.MsgHello {
		return s.fatal(fmt.Errorf("server: expected HELLO, got frame type %#x: %w", typ, dberr.ErrProtocol))
	}
	r := wire.NewReader(payload)
	version := r.Uvarint()
	tenant := r.String()
	token := r.String()
	if err := r.Err(); err != nil {
		return s.fatal(fmt.Errorf("server: malformed HELLO: %w", err))
	}
	if version != wire.ProtocolVersion {
		return s.fatal(fmt.Errorf("server: protocol version %d not supported (server speaks %d): %w",
			version, wire.ProtocolVersion, dberr.ErrUnsupported))
	}
	if err := s.srv.authenticate(tenant, token); err != nil {
		return s.fatal(err)
	}
	s.tenant = tenant
	// Opening the workbook now both validates it and primes the LRU; its
	// health decides the read-only flag the client sees.
	e, err := s.srv.pool.Acquire(tenant)
	if err != nil {
		return s.fatal(err)
	}
	var flags byte
	if e.db.Health() != nil {
		flags |= wire.FlagReadOnly
	}
	s.srv.pool.Release(e)
	var b wire.Buf
	b.Uvarint(wire.ProtocolVersion)
	b.Byte(flags)
	return s.reply(wire.MsgHelloOK, b.Bytes())
}

// fatal sends err as an error frame and returns it (handshake path: the
// session dies right after).
func (s *session) fatal(err error) error {
	if werr := s.writeError(err); werr != nil {
		return fmt.Errorf("server: reporting handshake failure: %w", werr)
	}
	return err
}

// readLoop pulls frames off the socket until it dies. MsgCancel is applied
// to the in-flight command immediately; everything else is handed to the
// worker. A read error — including the client simply disconnecting — cancels
// the in-flight command so a query whose consumer vanished stops promptly.
func (s *session) readLoop() {
	defer close(s.cmdCh)
	br := bufio.NewReader(s.conn)
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			s.cancelInflight()
			return
		}
		if typ == wire.MsgCancel {
			s.cancelInflight()
			continue
		}
		select {
		case s.cmdCh <- frame{typ, payload}:
		case <-s.closedCh:
			return
		}
	}
}

// workLoop executes commands until the client leaves, the session idles
// out, or the server drains. It is the only goroutine that writes to the
// socket after the handshake.
func (s *session) workLoop() {
	var idleC <-chan time.Time
	var idleTimer *time.Timer
	if d := s.srv.cfg.IdleTimeout; d > 0 {
		idleTimer = time.NewTimer(d)
		defer idleTimer.Stop()
		idleC = idleTimer.C
	}
	for {
		select {
		case cmd, ok := <-s.cmdCh:
			if !ok {
				return // client disconnected
			}
			if idleTimer != nil {
				if !idleTimer.Stop() {
					select {
					case <-idleTimer.C:
					default:
					}
				}
				idleTimer.Reset(s.srv.cfg.IdleTimeout)
			}
			done, err := s.dispatch(cmd)
			if done || err != nil {
				return
			}
		case <-s.srv.drainCh:
			return
		case <-idleC:
			s.srv.metrics.recordIdleReap(s.tenant)
			return
		}
	}
}

// teardown rolls back an abandoned transaction and unpins the tenant.
func (s *session) teardown() {
	if s.txEntry != nil {
		if s.dsconn != nil && s.dsconn.InTransaction() {
			if err := s.dsconn.Rollback(context.Background()); err != nil {
				_ = err // the engine already discarded the tx on its side
			}
		}
		s.srv.pool.Release(s.txEntry)
		s.txEntry = nil
	}
}

// dispatch runs one command frame. done=true ends the session cleanly; a
// non-nil error means the socket is unusable.
func (s *session) dispatch(cmd frame) (done bool, err error) {
	switch cmd.typ {
	case wire.MsgPrepare:
		return false, s.handlePrepare(cmd.payload)
	case wire.MsgExecute:
		return false, s.handleExecute(cmd.payload)
	case wire.MsgCloseStmt:
		return false, s.handleCloseStmt(cmd.payload)
	case wire.MsgBegin, wire.MsgCommit, wire.MsgRollback:
		return false, s.handleTx(cmd.typ)
	case wire.MsgPing:
		return false, s.reply(wire.MsgPong, nil)
	case wire.MsgStats:
		return false, s.handleStats()
	case wire.MsgGoodbye:
		return true, nil
	default:
		return false, s.respondErr(fmt.Errorf("server: unknown frame type %#x: %w", cmd.typ, dberr.ErrUnsupported))
	}
}

// bind acquires the tenant handle for the duration of one command and
// returns the session's Conn, rebinding after an eviction. The returned
// release must always be called.
func (s *session) bind() (*dataspread.Conn, func(), error) {
	e, err := s.srv.pool.Acquire(s.tenant)
	if err != nil {
		return nil, nil, err
	}
	if s.dsconn == nil || s.gen != e.gen {
		// The handle was evicted (or never bound): build a fresh Conn and
		// invalidate prepared handles so they re-prepare lazily. An open
		// transaction pins its entry, so gen can only move between
		// transactions — tx state is never silently dropped here.
		s.dsconn = e.db.Conn()
		s.gen = e.gen
		for _, st := range s.stmts {
			st.st = nil
		}
	}
	return s.dsconn, func() { s.srv.pool.Release(e) }, nil
}

func (s *session) handlePrepare(payload []byte) error {
	r := wire.NewReader(payload)
	id := r.Uvarint()
	sql := r.String()
	if err := r.Err(); err != nil {
		return s.respondErr(fmt.Errorf("server: malformed PREPARE: %w", err))
	}
	conn, release, err := s.bind()
	if err != nil {
		return s.respondErr(err)
	}
	defer release()
	st, err := conn.Prepare(sql)
	if err != nil {
		return s.respondErr(fmt.Errorf("server: prepare: %w", err))
	}
	s.stmts[id] = &sessStmt{sql: sql, st: st, gen: s.gen}
	names := st.ParamNames()
	var b wire.Buf
	b.Uvarint(id)
	b.Uvarint(uint64(st.NumParams()))
	for _, n := range names {
		b.String(n)
	}
	return s.reply(wire.MsgPrepareOK, b.Bytes())
}

func (s *session) handleCloseStmt(payload []byte) error {
	r := wire.NewReader(payload)
	id := r.Uvarint()
	if err := r.Err(); err != nil {
		return s.respondErr(fmt.Errorf("server: malformed CLOSE: %w", err))
	}
	delete(s.stmts, id)
	return s.replyDone(0)
}

// stmtFor resolves a statement id against the current binding, re-preparing
// transparently after an eviction rebind.
func (s *session) stmtFor(conn *dataspread.Conn, id uint64) (*dataspread.Stmt, error) {
	ss, ok := s.stmts[id]
	if !ok {
		return nil, fmt.Errorf("server: unknown statement id %d: %w", id, dberr.ErrUnsupported)
	}
	if ss.st == nil || ss.gen != s.gen {
		st, err := conn.Prepare(ss.sql)
		if err != nil {
			return nil, fmt.Errorf("server: re-prepare after eviction: %w", err)
		}
		ss.st, ss.gen = st, s.gen
	}
	return ss.st.OnConn(conn), nil
}

// decodeArgs parses an EXECUTE frame's positional and named argument
// sections into the public bind surface's arg list.
func decodeArgs(r *wire.Reader) ([]any, error) {
	// Every argument takes at least one byte, so a count beyond the bytes
	// left is malformed; refusing it bounds the allocation by the frame.
	npos := r.Uvarint()
	if npos > uint64(r.Remaining()) {
		return nil, fmt.Errorf("server: absurd positional arg count %d: %w", npos, dberr.ErrProtocol)
	}
	args := make([]any, 0, npos)
	for i := uint64(0); i < npos && r.Err() == nil; i++ {
		args = append(args, r.Value())
	}
	nnamed := r.Uvarint()
	if nnamed > uint64(r.Remaining()) {
		return nil, fmt.Errorf("server: absurd named arg count %d: %w", nnamed, dberr.ErrProtocol)
	}
	for i := uint64(0); i < nnamed && r.Err() == nil; i++ {
		name := r.String()
		args = append(args, dataspread.Named(name, r.Value()))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("server: malformed EXECUTE args: %w", err)
	}
	return args, nil
}

func (s *session) handleExecute(payload []byte) error {
	start := time.Now()
	r := wire.NewReader(payload)
	id := r.Uvarint()
	mode := r.Byte()
	args, err := decodeArgs(r)
	if err != nil {
		return s.respondErr(err)
	}
	class := opWrite
	if mode == wire.ExecModeQuery {
		class = opRead
	}

	// Admission first: a rejected query consumed nothing.
	admit, err := s.srv.adm.Acquire(context.Background(), s.tenant)
	if err != nil {
		s.srv.metrics.recordRejection(s.tenant)
		return s.respondErr(err)
	}
	defer admit()

	conn, release, err := s.bind()
	if err != nil {
		return s.respondErr(err)
	}
	defer release()
	st, err := s.stmtFor(conn, id)
	if err != nil {
		return s.respondErr(err)
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if d := s.srv.cfg.QueryTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	s.setInflight(cancel)
	defer func() {
		s.setInflight(nil)
		cancel()
	}()

	s.srv.metrics.activeQueries.Add(1)
	defer s.srv.metrics.activeQueries.Add(-1)

	var werr error
	failed := false
	if mode == wire.ExecModeQuery {
		werr, failed = s.streamQuery(ctx, st, args)
	} else {
		res, xerr := st.Exec(ctx, args...)
		if xerr != nil {
			failed = true
			werr = s.respondErr(fmt.Errorf("server: exec: %w", xerr))
		} else {
			werr = s.replyDone(res.RowsAffected)
		}
	}
	s.srv.metrics.recordOp(s.tenant, class, time.Since(start), failed)
	return werr
}

// streamQuery runs a prepared query and streams its result: one row-header
// frame, row batches of up to wire.RowBatchSize rows, then a done frame. A
// failure after the header has shipped — cancellation, a mid-scan I/O error
// — becomes a typed error frame in the stream, never a silent truncation:
// the client sees exactly the rows produced before the fault plus an error
// that classifies with errors.Is.
func (s *session) streamQuery(ctx context.Context, st *dataspread.Stmt, args []any) (werr error, failed bool) {
	rows, err := st.Query(ctx, args...)
	if err != nil {
		return s.respondErr(fmt.Errorf("server: query: %w", err)), true
	}
	defer func() {
		if cerr := rows.Close(); cerr != nil && werr == nil && !failed {
			werr, failed = s.respondErr(fmt.Errorf("server: closing rows: %w", cerr)), true
		}
	}()
	cols := rows.Columns()
	var b wire.Buf
	b.Uvarint(uint64(len(cols)))
	for _, c := range cols {
		b.String(c)
	}
	if err := s.reply(wire.MsgRowHeader, b.Bytes()); err != nil {
		return err, true
	}
	b.Reset()
	n := 0
	flushBatch := func() error {
		var hdr wire.Buf
		hdr.Uvarint(uint64(n))
		if err := wire.WriteFrame(s.bw, wire.MsgRowBatch, append(hdr.Bytes(), b.Bytes()...)); err != nil {
			return err
		}
		b.Reset()
		n = 0
		return s.flush()
	}
	for rows.Next() {
		for _, v := range rows.Values() {
			b.Value(v)
		}
		if n++; n >= wire.RowBatchSize {
			if err := flushBatch(); err != nil {
				return err, true
			}
		}
	}
	if err := rows.Err(); err != nil {
		// The mid-stream failure path: rows already delivered stand; the
		// error frame terminates the stream with the true cause.
		return s.respondErr(fmt.Errorf("server: streaming: %w", err)), true
	}
	if n > 0 {
		if err := flushBatch(); err != nil {
			return err, true
		}
	}
	return s.replyDone(0), false
}

// handleTx serves BEGIN / COMMIT / ROLLBACK. A successful BEGIN pins the
// tenant handle (an extra pool reference held until the transaction ends)
// so LRU eviction cannot close a workbook with a live transaction.
func (s *session) handleTx(typ wire.MsgType) error {
	conn, release, err := s.bind()
	if err != nil {
		return s.respondErr(err)
	}
	defer release()
	ctx := context.Background()
	switch typ {
	case wire.MsgBegin:
		if err := conn.Begin(ctx); err != nil {
			return s.respondErr(fmt.Errorf("server: begin: %w", err))
		}
		if s.txEntry == nil {
			e, aerr := s.srv.pool.Acquire(s.tenant)
			if aerr != nil {
				// Should be impossible (we hold a ref via bind), but never
				// leave a transaction unpinned.
				if rerr := conn.Rollback(ctx); rerr != nil {
					_ = rerr
				}
				return s.respondErr(fmt.Errorf("server: pinning transaction tenant: %w", aerr))
			}
			s.txEntry = e
		}
	case wire.MsgCommit:
		err = conn.Commit(ctx)
		s.unpinTx()
		if err != nil {
			return s.respondErr(fmt.Errorf("server: commit: %w", err))
		}
	case wire.MsgRollback:
		err = conn.Rollback(ctx)
		s.unpinTx()
		if err != nil {
			return s.respondErr(fmt.Errorf("server: rollback: %w", err))
		}
	}
	return s.replyDone(0)
}

func (s *session) unpinTx() {
	if s.txEntry != nil {
		s.srv.pool.Release(s.txEntry)
		s.txEntry = nil
	}
}

func (s *session) handleStats() error {
	data, err := json.Marshal(s.srv.Stats())
	if err != nil {
		return s.respondErr(fmt.Errorf("server: encoding stats: %w", err))
	}
	return s.reply(wire.MsgStatsReply, data)
}

// reply writes one frame and flushes.
func (s *session) reply(typ wire.MsgType, payload []byte) error {
	if err := wire.WriteFrame(s.bw, typ, payload); err != nil {
		return err
	}
	return s.flush()
}

func (s *session) replyDone(affected int) error {
	var b wire.Buf
	b.Uvarint(uint64(affected))
	return s.reply(wire.MsgDone, b.Bytes())
}

// respondErr ships err to the client as a typed error frame. The session
// survives — command errors are part of the protocol; only transport
// failures (the returned error) kill it.
func (s *session) respondErr(err error) error {
	return s.writeError(err)
}

func (s *session) writeError(err error) error {
	return s.reply(wire.MsgError, wire.EncodeError(err))
}

func (s *session) flush() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("server: flush: %w", classifyNetErr(err))
	}
	return nil
}
