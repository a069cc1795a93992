// Package client is the pure-Go network client for dataspreadd, the
// dataspread serving tier. It speaks the versioned length-prefixed frame
// protocol (handshake/auth, prepare, bind+execute with streaming row
// batches, transactions, cancel, ping, stats) over a single TCP connection
// and mirrors the embedded API's shape: Prepare/Exec/Query with positional
// or :name parameters, streaming Rows with Next/Scan/Err/Close, and typed
// errors — a failure crosses the wire as an error code, is re-attached to
// its dberr sentinel on this side, and classifies with errors.Is exactly
// like a local one (dataspread.ErrOverloaded, dataspread.ErrReadOnly, ...).
//
// A Client multiplexes nothing: one command is in flight at a time, and a
// Rows must be closed (or exhausted) before the next call. Cancellation is
// the exception — a context expiring mid-query sends an out-of-band CANCEL
// frame, and the server terminates the stream with a typed error frame.
//
// dslint:errdomain
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dataspread/dataspread"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/wire"
)

// Config configures Dial.
type Config struct {
	// Tenant and Token authenticate the connection; the session is bound
	// to this tenant's workbook for its lifetime.
	Tenant string
	Token  string
	// DialTimeout bounds the TCP connect plus handshake (default 10s).
	DialTimeout time.Duration
}

// Client is one authenticated session with a dataspreadd server. It is
// safe for concurrent use; commands serialize on an internal lock.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// wmu guards raw frame writes: command frames hold mu too, but a
	// CANCEL frame may be written by a context watcher mid-stream.
	wmu sync.Mutex
	// mu serializes commands; held for the full round-trip including any
	// streaming Rows (released by Rows.Close).
	mu sync.Mutex

	readOnly bool
	closed   atomic.Bool
	nextStmt uint64
}

// Dial connects and authenticates.
func Dial(addr string, cfg Config) (*Client, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, wrapNetErr(err))
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, c.fatal(fmt.Errorf("client: handshake deadline: %w", wrapNetErr(err)))
	}
	var b wire.Buf
	b.Uvarint(wire.ProtocolVersion)
	b.String(cfg.Tenant)
	b.String(cfg.Token)
	if err := c.writeFrame(wire.MsgHello, b.Bytes()); err != nil {
		return nil, c.fatal(err)
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, c.fatal(fmt.Errorf("client: handshake: %w", err))
	}
	if typ == wire.MsgError {
		return nil, c.fatal(wire.DecodeError(payload))
	}
	if typ != wire.MsgHelloOK {
		return nil, c.fatal(fmt.Errorf("client: unexpected handshake reply %#x: %w", typ, dberr.ErrProtocol))
	}
	r := wire.NewReader(payload)
	version := r.Uvarint()
	flags := r.Byte()
	if err := r.Err(); err != nil {
		return nil, c.fatal(fmt.Errorf("client: malformed handshake reply: %w", err))
	}
	if version != wire.ProtocolVersion {
		return nil, c.fatal(fmt.Errorf("client: server speaks protocol %d, want %d: %w",
			version, wire.ProtocolVersion, dberr.ErrUnsupported))
	}
	c.readOnly = flags&wire.FlagReadOnly != 0
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, c.fatal(fmt.Errorf("client: clear handshake deadline: %w", wrapNetErr(err)))
	}
	return c, nil
}

// fatal closes the connection and returns err (dial/handshake path).
func (c *Client) fatal(err error) error {
	if cerr := c.conn.Close(); cerr != nil {
		return fmt.Errorf("%w (and closing: %v)", err, cerr)
	}
	return err
}

// ReadOnly reports whether the server flagged this tenant's workbook
// degraded (read-only) at handshake time.
func (c *Client) ReadOnly() bool { return c.readOnly }

// Close closes the connection. When the client is idle it says goodbye
// first; when a command or an unclosed Rows is still in flight it
// force-closes the transport instead of waiting (the in-flight operation
// fails with a transport error).
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.mu.TryLock() {
		if err := c.writeFrame(wire.MsgGoodbye, nil); err != nil {
			_ = err // best-effort farewell; the close below is what matters
		}
		c.mu.Unlock()
	}
	if err := c.conn.Close(); err != nil {
		return fmt.Errorf("client: close: %w", wrapNetErr(err))
	}
	return nil
}

// writeFrame writes one frame under the write lock and flushes.
func (c *Client) writeFrame(typ wire.MsgType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("client: flush: %w", wrapNetErr(err))
	}
	return nil
}

func (c *Client) readFrame() (wire.MsgType, []byte, error) {
	return wire.ReadFrame(c.br)
}

// sendCancel fires an out-of-band CANCEL at whatever command is in flight.
func (c *Client) sendCancel() {
	if err := c.writeFrame(wire.MsgCancel, nil); err != nil {
		_ = err // the transport is dying; the command will fail on its own
	}
}

// watchCtx cancels the in-flight command when ctx expires. Call the
// returned stop once the command's last frame has been consumed.
func (c *Client) watchCtx(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	var once sync.Once
	go func() {
		select {
		case <-ctx.Done():
			c.sendCancel()
		case <-stopCh:
		}
	}()
	return func() { once.Do(func() { close(stopCh) }) }
}

// Stmt is a statement prepared on the server.
type Stmt struct {
	c      *Client
	id     uint64
	sql    string
	nargs  int
	pnames []string
}

// Prepare parses and plans sql on the server.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prepareLocked(sql)
}

func (c *Client) prepareLocked(sql string) (*Stmt, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("client: connection closed: %w", dberr.ErrClosed)
	}
	c.nextStmt++
	id := c.nextStmt
	var b wire.Buf
	b.Uvarint(id)
	b.String(sql)
	if err := c.writeFrame(wire.MsgPrepare, b.Bytes()); err != nil {
		return nil, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, fmt.Errorf("client: prepare reply: %w", err)
	}
	if typ == wire.MsgError {
		return nil, wire.DecodeError(payload)
	}
	if typ != wire.MsgPrepareOK {
		return nil, fmt.Errorf("client: unexpected prepare reply %#x: %w", typ, dberr.ErrProtocol)
	}
	r := wire.NewReader(payload)
	gotID := r.Uvarint()
	n := int(r.Uvarint())
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, r.String())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("client: malformed prepare reply: %w", err)
	}
	if gotID != id {
		return nil, fmt.Errorf("client: prepare reply for statement %d, want %d: %w", gotID, id, dberr.ErrProtocol)
	}
	return &Stmt{c: c, id: id, sql: sql, nargs: n, pnames: names}, nil
}

// SQL returns the statement's text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams returns the number of parameter slots.
func (s *Stmt) NumParams() int { return s.nargs }

// ParamNames returns the per-slot parameter names ("" for positional '?').
func (s *Stmt) ParamNames() []string { return append([]string(nil), s.pnames...) }

// Close releases the statement on the server.
func (s *Stmt) Close() error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.c.closed.Load() {
		return nil
	}
	var b wire.Buf
	b.Uvarint(s.id)
	if err := s.c.writeFrame(wire.MsgCloseStmt, b.Bytes()); err != nil {
		return err
	}
	_, err := s.c.awaitDone()
	return err
}

// encodeArgs splits args into the wire's positional and named sections.
// dataspread.NamedArg values (from dataspread.Named) travel as named.
func encodeArgs(b *wire.Buf, args []any) error {
	var pos []dataspread.Value
	var named []dataspread.NamedArg
	for _, a := range args {
		if na, ok := a.(dataspread.NamedArg); ok {
			v, err := dataspread.BindValue(na.Value)
			if err != nil {
				return fmt.Errorf("client: argument %q: %w", na.Name, err)
			}
			named = append(named, dataspread.NamedArg{Name: na.Name, Value: v})
			continue
		}
		v, err := dataspread.BindValue(a)
		if err != nil {
			return fmt.Errorf("client: argument %d: %w", len(pos)+1, err)
		}
		pos = append(pos, v)
	}
	b.Uvarint(uint64(len(pos)))
	for _, v := range pos {
		b.Value(v)
	}
	b.Uvarint(uint64(len(named)))
	for _, na := range named {
		b.String(na.Name)
		b.Value(na.Value.(dataspread.Value))
	}
	return nil
}

// Result is the outcome of a non-query statement.
type Result struct {
	RowsAffected int
}

// Exec runs the statement and waits for completion. ctx cancels it
// server-side.
func (s *Stmt) Exec(ctx context.Context, args ...any) (Result, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.c.closed.Load() {
		return Result{}, fmt.Errorf("client: connection closed: %w", dberr.ErrClosed)
	}
	var b wire.Buf
	b.Uvarint(s.id)
	b.Byte(wire.ExecModeExec)
	if err := encodeArgs(&b, args); err != nil {
		return Result{}, err
	}
	if err := s.c.writeFrame(wire.MsgExecute, b.Bytes()); err != nil {
		return Result{}, err
	}
	stop := s.c.watchCtx(ctx)
	defer stop()
	affected, err := s.c.awaitDone()
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: affected}, nil
}

// awaitDone reads frames until DONE (returning its affected count) or a
// typed error frame.
func (c *Client) awaitDone() (int, error) {
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return 0, fmt.Errorf("client: awaiting completion: %w", err)
		}
		switch typ {
		case wire.MsgDone:
			r := wire.NewReader(payload)
			affected := int(r.Uvarint())
			if err := r.Err(); err != nil {
				return 0, fmt.Errorf("client: malformed DONE: %w", err)
			}
			return affected, nil
		case wire.MsgError:
			return 0, wire.DecodeError(payload)
		default:
			return 0, fmt.Errorf("client: unexpected frame %#x awaiting completion: %w", typ, dberr.ErrProtocol)
		}
	}
}

// Query runs the statement and streams its result. The returned Rows holds
// the client's command slot until Close; ctx expiring mid-stream cancels
// the query server-side and surfaces as a typed error from Rows.Err.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	s.c.mu.Lock()
	if s.c.closed.Load() {
		s.c.mu.Unlock()
		return nil, fmt.Errorf("client: connection closed: %w", dberr.ErrClosed)
	}
	var b wire.Buf
	b.Uvarint(s.id)
	b.Byte(wire.ExecModeQuery)
	if err := encodeArgs(&b, args); err != nil {
		s.c.mu.Unlock()
		return nil, err
	}
	if err := s.c.writeFrame(wire.MsgExecute, b.Bytes()); err != nil {
		s.c.mu.Unlock()
		return nil, err
	}
	stop := s.c.watchCtx(ctx)
	typ, payload, err := s.c.readFrame()
	if err != nil {
		stop()
		s.c.mu.Unlock()
		return nil, fmt.Errorf("client: query reply: %w", err)
	}
	if typ == wire.MsgError {
		stop()
		s.c.mu.Unlock()
		return nil, wire.DecodeError(payload)
	}
	if typ != wire.MsgRowHeader {
		stop()
		s.c.mu.Unlock()
		return nil, fmt.Errorf("client: unexpected query reply %#x: %w", typ, dberr.ErrProtocol)
	}
	r := wire.NewReader(payload)
	ncols := int(r.Uvarint())
	cols := make([]string, 0, ncols)
	for i := 0; i < ncols; i++ {
		cols = append(cols, r.String())
	}
	if err := r.Err(); err != nil {
		stop()
		s.c.mu.Unlock()
		return nil, fmt.Errorf("client: malformed row header: %w", err)
	}
	// The command slot stays held; Rows.Close releases it.
	return &Rows{c: s.c, cols: cols, stop: stop}, nil
}

// Rows is a streamed query result. Iterate with Next/Scan, check Err, and
// always Close. Not safe for concurrent use.
type Rows struct {
	c    *Client
	cols []string
	stop func()

	batch  *wire.Reader
	remain int
	cur    []dataspread.Value
	err    error
	done   bool
	closed bool
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	for r.remain == 0 {
		typ, payload, err := r.c.readFrame()
		if err != nil {
			r.err = fmt.Errorf("client: streaming: %w", err)
			r.finish()
			return false
		}
		switch typ {
		case wire.MsgRowBatch:
			br := wire.NewReader(payload)
			r.remain = int(br.Uvarint())
			r.batch = br
			if r.remain == 0 {
				continue
			}
		case wire.MsgDone:
			r.finish()
			return false
		case wire.MsgError:
			// The server hit a fault mid-stream (or our cancel landed):
			// rows already delivered stand, and this is the typed cause.
			r.err = wire.DecodeError(payload)
			r.finish()
			return false
		default:
			r.err = fmt.Errorf("client: unexpected frame %#x in stream: %w", typ, dberr.ErrProtocol)
			r.finish()
			return false
		}
	}
	if cap(r.cur) < len(r.cols) {
		r.cur = make([]dataspread.Value, len(r.cols))
	}
	r.cur = r.cur[:len(r.cols)]
	for i := range r.cur {
		r.cur[i] = r.batch.Value()
	}
	if err := r.batch.Err(); err != nil {
		r.err = fmt.Errorf("client: malformed row batch: %w", err)
		r.finish()
		return false
	}
	r.remain--
	return true
}

// finish ends the stream: the context watcher stops and the command slot
// is released.
func (r *Rows) finish() {
	if r.done {
		return
	}
	r.done = true
	r.stop()
	r.c.mu.Unlock()
}

// Values returns the current row. The slice is reused by Next.
func (r *Rows) Values() []dataspread.Value { return r.cur }

// Scan stores the current row into dest pointers with the same conversions
// as the embedded API's Rows.Scan.
func (r *Rows) Scan(dest ...any) error {
	if len(r.cur) == 0 {
		return fmt.Errorf("client: Scan called without a successful Next: %w", dberr.ErrUnsupported)
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("client: Scan got %d destinations for %d columns: %w", len(dest), len(r.cur), dberr.ErrParamCount)
	}
	for i, d := range dest {
		if err := dataspread.ScanValue(r.cur[i], d); err != nil {
			return fmt.Errorf("client: column %d: %w", i, err)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close cancels and drains an unfinished stream and releases the client
// for the next command.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if !r.done {
		// Tell the server to stop producing, then drain to the terminator
		// so the connection stays framed.
		r.c.sendCancel()
		for {
			typ, payload, err := r.c.readFrame()
			if err != nil {
				r.err = fmt.Errorf("client: draining canceled stream: %w", err)
				break
			}
			if typ == wire.MsgDone {
				break
			}
			if typ == wire.MsgError {
				// Expected: the cancellation's own error. Not a failure of
				// the rows the caller already consumed.
				_ = payload
				break
			}
		}
		r.finish()
	}
	return r.err
}

// Exec prepares (if needed) and executes sql in one call.
func (c *Client) Exec(ctx context.Context, sql string, args ...any) (Result, error) {
	st, err := c.Prepare(sql)
	if err != nil {
		return Result{}, err
	}
	res, err := st.Exec(ctx, args...)
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return res, err
}

// Query prepares and runs sql, streaming the result. The statement is
// released when the returned Rows closes... by the server, on session end;
// one-shot query statements are cheap because plans are cached server-side.
func (c *Client) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	st, err := c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(ctx, args...)
}

// Begin opens an explicit transaction on the session.
func (c *Client) Begin(ctx context.Context) error { return c.txCmd(ctx, wire.MsgBegin) }

// Commit commits the open transaction.
func (c *Client) Commit(ctx context.Context) error { return c.txCmd(ctx, wire.MsgCommit) }

// Rollback rolls back the open transaction.
func (c *Client) Rollback(ctx context.Context) error { return c.txCmd(ctx, wire.MsgRollback) }

func (c *Client) txCmd(ctx context.Context, typ wire.MsgType) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("client: connection closed: %w", dberr.ErrClosed)
	}
	if err := c.writeFrame(typ, nil); err != nil {
		return err
	}
	stop := c.watchCtx(ctx)
	defer stop()
	_, err := c.awaitDone()
	return err
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("client: connection closed: %w", dberr.ErrClosed)
	}
	if err := c.writeFrame(wire.MsgPing, nil); err != nil {
		return err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return fmt.Errorf("client: ping reply: %w", err)
	}
	if typ == wire.MsgError {
		return wire.DecodeError(payload)
	}
	if typ != wire.MsgPong {
		return fmt.Errorf("client: unexpected ping reply %#x: %w", typ, dberr.ErrProtocol)
	}
	return nil
}

// ServerStats fetches the server's metrics snapshot (active sessions,
// per-tenant query counts and latency quantiles, admission rejections).
func (c *Client) ServerStats() (map[string]any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("client: connection closed: %w", dberr.ErrClosed)
	}
	if err := c.writeFrame(wire.MsgStats, nil); err != nil {
		return nil, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, fmt.Errorf("client: stats reply: %w", err)
	}
	if typ == wire.MsgError {
		return nil, wire.DecodeError(payload)
	}
	if typ != wire.MsgStatsReply {
		return nil, fmt.Errorf("client: unexpected stats reply %#x: %w", typ, dberr.ErrProtocol)
	}
	var out map[string]any
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, fmt.Errorf("client: decoding stats: %w", err)
	}
	return out, nil
}

// wrapNetErr classifies a transport error under the engine's taxonomy.
func wrapNetErr(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("%v: %w", err, context.DeadlineExceeded)
	}
	return fmt.Errorf("%v: %w", err, dberr.ErrIO)
}
