// Connections: SQL sessions over one DataSpread instance. Its own Query and
// QueryScript, and the root package's DB, run on one built-in Conn. Reads
// run without the command mutex; every mutating statement, from any Conn or
// from WAL replay, runs through execute under cmdMu, so the WAL order matches
// the apply order.
//
// A Conn's transaction owns the tables from its first mutating statement
// until COMMIT or ROLLBACK (also when the unwind fails), so a Conn left
// inside one owns them until it ends it. Meanwhile every other table writer
// fails at once with dberr.ErrConflict: another Conn's mutating statement, a
// cell edit written back through a DBTABLE binding, a range export and an
// explicit Checkpoint; a background checkpoint defers. Nothing waits. Plain
// cell edits, SetValues and AddSheet touch no table and proceed. Other Conns
// still read the transaction's uncommitted changes.

package core

import (
	"context"
	"errors"
	"fmt"

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
}

// NewConn opens an independent SQL session. Positional constructs
// (RANGEVALUE/RANGETABLE) resolve against this workbook's sheets.
func (ds *DataSpread) NewConn() *Conn {
	return &Conn{ds: ds, sess: ds.db.NewSession(&sheetAccessor{ds: ds})}
}

// Conn returns the built-in connection that Query and QueryScript run on.
func (ds *DataSpread) Conn() *Conn { return ds.conn }

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
// bindings — inside an explicit transaction they reach the WAL as one record
// at COMMIT (nothing is logged on ROLLBACK). A statement that fails has
// undone its own changes and is not logged.
func (c *Conn) ExecutePrepared(ctx context.Context, p *sqlexec.Prepared, args ...sheet.Value) (*sqlexec.Result, error) {
	if !sqlparser.Mutates(p.Statement()) {
		return c.sess.ExecutePreparedContext(ctx, p, args...)
	}
	return c.ds.execute(ctx, c.sess, []*sqlexec.Prepared{p}, args)
}

// execute runs statements on sess in order under cmdMu, stopping at the
// first that fails, and appends what they committed to the WAL as one record
// before it returns: an autocommit statement, a COMMIT's transaction, or
// what a script committed outside a transaction.
func (ds *DataSpread) execute(ctx context.Context, sess *sqlexec.Session, stmts []*sqlexec.Prepared, args []sheet.Value) (res *sqlexec.Result, err error) {
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	var ops []txn.Op
	for _, p := range stmts {
		var committed []sqlexec.Redo
		if sqlparser.Mutates(p.Statement()) {
			err = ds.checkWritable()
		}
		if err == nil {
			res, committed, err = sess.Exec(ctx, p, args)
		}
		if err != nil {
			res = nil
			break
		}
		for _, r := range committed {
			ops = append(ops, sqlOp(r.SQL, r.Args))
		}
	}
	err = ds.notePoison(err)
	if lerr := ds.logCommand(ops...); lerr != nil {
		return res, errors.Join(err, fmt.Errorf("core: statements applied but not logged: %w", lerr))
	}
	return res, err
}

// StreamPrepared executes a prepared SELECT as a streaming row iterator: no
// result materialisation for single-source statements, cancellation through
// ctx, early scan exit on LIMIT or Close. Any other statement fails with
// dberr.ErrUnsupported.
func (c *Conn) StreamPrepared(ctx context.Context, p *sqlexec.Prepared, args ...sheet.Value) (*sqlexec.Rows, error) {
	return c.sess.StreamPrepared(ctx, p, args...)
}

// InTransaction reports whether this connection has an explicit transaction
// open.
func (c *Conn) InTransaction() bool { return c.sess.InTransaction() }
