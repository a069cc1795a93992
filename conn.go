package dataspread

import (
	"context"
	"fmt"

	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// Conn is one SQL session: it carries explicit-transaction state (BEGIN /
// COMMIT / ROLLBACK) and must not be used from multiple goroutines at once.
// Any number of Conns may run concurrently against the same DB; writes are
// serialized by the engine. Every statement is atomic: one that fails leaves
// no change behind, inside a transaction or not.
type Conn struct {
	db *DB
	c  *core.Conn
}

// Result is the outcome of a non-query statement.
type Result struct {
	// RowsAffected is the number of rows the statement inserted, updated or
	// deleted (0 for DDL).
	RowsAffected int
	// Columns and Rows carry the materialised relation when the executed
	// statement was a query (Exec of a SELECT, QueryScript ending in one).
	Columns []string
	Rows    [][]Value
}

func wrapResult(res *sqlexec.Result) Result {
	if res == nil {
		return Result{}
	}
	return Result{RowsAffected: res.Affected, Columns: res.Columns, Rows: res.Rows}
}

// Prepare parses and analyzes a statement through the shared plan cache. The
// returned Stmt binds to this connection; Stmt.OnConn re-binds it to
// another.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	p, err := c.c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{conn: c, p: p}, nil
}

// Exec executes a statement with the given arguments and materialises its
// outcome. DML reports affected rows; SELECT/EXPLAIN return their relation
// in Result.Rows (use Query for streaming).
func (c *Conn) Exec(ctx context.Context, sql string, args ...any) (Result, error) {
	s, err := c.Prepare(sql)
	if err != nil {
		return Result{}, err
	}
	return s.Exec(ctx, args...)
}

// Query executes a SELECT (or EXPLAIN) with the given arguments and returns
// a streaming row iterator. The caller must exhaust or Close the rows.
func (c *Conn) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	s, err := c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return s.Query(ctx, args...)
}

// Begin opens an explicit transaction on this connection (ErrTxOpen if one
// is already open). Inside it, schema changes roll back like data changes,
// except DROP TABLE and ALTER TABLE ... DROP COLUMN: those cannot be undone,
// so they fail with ErrUnsupported without effect and the transaction stays
// open. A statement that fails inside the transaction is undone by itself;
// the transaction stays open with the earlier statements' changes.
//
// The transaction's first mutating statement makes it the owner of the
// tables until Commit or Rollback (also when the rollback fails); a Conn
// left inside a transaction owns them until it ends it (dataspreadd rolls
// back the transaction of a client that goes away). Meanwhile every other
// table writer fails at once with ErrConflict and changes nothing: another
// Conn's INSERT, UPDATE, DELETE or DDL, an edit of a cell bound to a table
// (SetCell), ExportRange, and DB.Checkpoint. Nothing waits, so retry after
// the owner ends. Writes that touch no table proceed: plain cell edits,
// SetValues and AddSheet. Other connections still read the transaction's
// uncommitted changes.
func (c *Conn) Begin(ctx context.Context) error {
	_, err := c.Exec(ctx, "BEGIN")
	return err
}

// Commit commits the connection's open transaction (ErrNoTx without one).
func (c *Conn) Commit(ctx context.Context) error {
	_, err := c.Exec(ctx, "COMMIT")
	return err
}

// Rollback undoes every change of the connection's open transaction, newest
// first, and ends it (ErrNoTx without one). Nothing of the transaction
// reaches the write-ahead log. Should an undo step itself fail, the database
// degrades to read-only (ErrReadOnly on later writes) until it is reopened.
func (c *Conn) Rollback(ctx context.Context) error {
	_, err := c.Exec(ctx, "ROLLBACK")
	return err
}

// InTransaction reports whether an explicit transaction is open.
func (c *Conn) InTransaction() bool { return c.c.InTransaction() }

// Stmt is a prepared statement bound to a connection. The underlying plan is
// immutable and shared: executing the same Stmt (or the same SQL text) from
// many connections concurrently is safe, with per-execution bindings.
type Stmt struct {
	conn *Conn
	p    *sqlexec.Prepared
}

// SQL returns the statement's text.
func (s *Stmt) SQL() string { return s.p.SQL }

// NumParams returns how many parameter slots the statement binds ('?'
// placeholders, or distinct ':name' parameters).
func (s *Stmt) NumParams() int { return s.p.NumParams() }

// ParamNames returns the statement's parameter names by slot index:
// lower-cased ':name' names for a named statement, empty strings for
// positional '?' slots.
func (s *Stmt) ParamNames() []string { return append([]string(nil), s.p.ParamNames()...) }

// OnConn returns the same prepared statement bound to another connection.
func (s *Stmt) OnConn(c *Conn) *Stmt { return &Stmt{conn: c, p: s.p} }

// Exec executes the statement with the given arguments, materialising the
// outcome.
func (s *Stmt) Exec(ctx context.Context, args ...any) (Result, error) {
	vals, err := bindStmtArgs(s.p.ParamNames(), args)
	if err != nil {
		return Result{}, err
	}
	res, err := s.conn.c.ExecutePrepared(ctx, s.p, vals...)
	return wrapResult(res), err
}

// Query executes the statement as a streaming query. Only SELECT (and
// EXPLAIN) statements can be streamed.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	vals, err := bindStmtArgs(s.p.ParamNames(), args)
	if err != nil {
		return nil, err
	}
	if _, ok := s.p.Statement().(*sqlparser.SelectStmt); !ok {
		// EXPLAIN and other read-only statements materialise; mutating
		// statements must go through Exec.
		if sqlparser.Mutates(s.p.Statement()) {
			return nil, fmt.Errorf("dataspread: cannot stream a mutating statement; use Exec")
		}
		res, err := s.conn.c.ExecutePrepared(ctx, s.p, vals...)
		if err != nil {
			return nil, err
		}
		return materializedRows(res), nil
	}
	r, err := s.conn.c.StreamPrepared(ctx, s.p, vals...)
	if err != nil {
		return nil, err
	}
	return &Rows{r: r}, nil
}
