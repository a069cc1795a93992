// Connections: independent SQL sessions over one DataSpread instance. The
// instance's own Query/QueryScript run on a single built-in session guarded
// by cmdMu; a Conn gives an embedder its own session — its own transaction
// state, concurrent with other connections — while mutating statements still
// serialize through cmdMu so the WAL order matches the apply order.

package core

import (
	"context"
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/txn"
)

// Conn is one SQL session over the workbook's embedded database. Conns are
// cheap; create one per goroutine — a single Conn is not safe for concurrent
// use (it carries explicit-transaction state), but any number of Conns may
// run statements concurrently.
type Conn struct {
	ds   *DataSpread
	sess *sqlexec.Session
	// pending buffers this connection's in-transaction mutating statements
	// until COMMIT logs them as one WAL record (guarded by ds.cmdMu).
	pending []txn.Op
}

// NewConn opens an independent SQL session. Positional constructs
// (RANGEVALUE/RANGETABLE) resolve against this workbook's sheets.
func (ds *DataSpread) NewConn() *Conn {
	return &Conn{ds: ds, sess: ds.db.NewSession(&sheetAccessor{ds: ds})}
}

// Prepare parses and analyzes a statement through the shared plan cache.
// The returned statement is immutable and may be executed concurrently from
// any number of connections with different bindings.
func (ds *DataSpread) Prepare(sql string) (*sqlexec.Prepared, error) { return ds.db.Prepare(sql) }

// Prepare parses and analyzes a statement through the shared plan cache.
func (c *Conn) Prepare(sql string) (*sqlexec.Prepared, error) { return c.ds.db.Prepare(sql) }

// QueryContext executes one statement with the given placeholder bindings,
// materialising the result.
func (c *Conn) QueryContext(ctx context.Context, sql string, args ...sheet.Value) (*sqlexec.Result, error) {
	p, err := c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return c.ExecutePrepared(ctx, p, args...)
}

// ExecutePrepared executes a prepared statement with the given placeholder
// bindings. Read-only statements run without the command mutex (the engine
// guards its storage with a reader/writer lock); mutating statements
// serialize with the instance's other writers and are WAL-logged with their
// bindings — inside an explicit transaction they buffer and reach the WAL
// as one record at COMMIT (nothing is logged on ROLLBACK). A statement that
// fails has undone its own changes and is not logged.
func (c *Conn) ExecutePrepared(ctx context.Context, p *sqlexec.Prepared, args ...sheet.Value) (*sqlexec.Result, error) {
	if !sqlparser.Mutates(p.Statement()) {
		return c.sess.ExecutePreparedContext(ctx, p, args...)
	}
	c.ds.cmdMu.Lock()
	defer c.ds.cmdMu.Unlock()
	if err := c.ds.checkWritable(); err != nil {
		return nil, err
	}
	res, err := c.sess.ExecutePreparedContext(ctx, p, args...)
	if err == nil {
		if lerr := c.ds.logExecuted(p.Statement(), c.sess, &c.pending, p.SQL, args); lerr != nil {
			return res, fmt.Errorf("core: statement applied but not logged: %w", lerr)
		}
	}
	return res, c.ds.notePoison(err)
}

// StreamPrepared executes a prepared SELECT as a streaming row iterator: no
// result materialisation for single-source statements, cancellation through
// ctx, early scan exit on LIMIT or Close.
func (c *Conn) StreamPrepared(ctx context.Context, p *sqlexec.Prepared, args ...sheet.Value) (*sqlexec.Rows, error) {
	if sqlparser.Mutates(p.Statement()) {
		return nil, fmt.Errorf("core: cannot stream a mutating statement; use ExecutePrepared: %w", dberr.ErrUnsupported)
	}
	return c.sess.StreamPrepared(ctx, p, args...)
}

// QueryStream prepares and streams a SELECT statement.
func (c *Conn) QueryStream(ctx context.Context, sql string, args ...sheet.Value) (*sqlexec.Rows, error) {
	p, err := c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return c.StreamPrepared(ctx, p, args...)
}

// InTransaction reports whether this connection has an explicit transaction
// open.
func (c *Conn) InTransaction() bool { return c.sess.InTransaction() }
