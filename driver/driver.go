// Package driver registers DataSpread with database/sql under the name
// "dataspread", so any Go program can use the engine through the standard
// interfaces:
//
//	import (
//	    "database/sql"
//	    _ "github.com/dataspread/dataspread/driver"
//	)
//
//	db, err := sql.Open("dataspread", "workbook.ds") // or "" / ":memory:"
//	...
//	stmt, err := db.Prepare("SELECT title FROM movies WHERE year > ?")
//	rows, err := stmt.QueryContext(ctx, 1990)
//
// The data source name is a workbook file path ("" or ":memory:" for an
// in-memory instance). All connections of one sql.DB share a single
// embedded instance — the engine serializes writes internally — and the
// instance is closed when the sql.DB is closed. Opening the same workbook
// file from two processes (or two sql.DB values) fails with
// dataspread.ErrConflict: the engine enforces a single writer per file.
// Within one, a transaction (BeginTx) owns the tables from its first write
// until Commit or Rollback: another pooled connection's write fails at once
// with dataspread.ErrConflict meanwhile, and nothing waits.
//
// Prepared statements use '?' placeholders; arguments bind per execution,
// and point lookups keep their index access paths (the plan is cached by
// statement text, bounds resolve late). Queries stream: rows cross from the
// executor as the scan produces them, and cancelling the context stops the
// scan at its next batch boundary.
package driver

import (
	"context"
	"database/sql"
	driverpkg "database/sql/driver"
	"fmt"
	"io"
	"sync"

	"github.com/dataspread/dataspread"
)

func init() {
	sql.Register("dataspread", &Driver{})
}

// Driver implements database/sql/driver.Driver (and DriverContext) for
// DataSpread.
type Driver struct{}

// Open opens a new connection to the workbook named by the DSN. Prefer
// sql.Open, which goes through OpenConnector and shares one embedded
// instance across the pool.
func (d *Driver) Open(name string) (driverpkg.Conn, error) {
	c, err := d.OpenConnector(name)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector returns a connector for the workbook named by the DSN: a
// file path, or "" / ":memory:" for an in-memory instance.
func (d *Driver) OpenConnector(name string) (driverpkg.Connector, error) {
	return &connector{driver: d, dsn: name}, nil
}

// connector opens the shared embedded instance lazily on first Connect and
// closes it when the pool closes (database/sql calls Close on connectors
// implementing io.Closer).
type connector struct {
	driver *Driver
	dsn    string

	mu     sync.Mutex
	db     *dataspread.DB
	closed bool
}

var _ io.Closer = (*connector)(nil)

func (c *connector) Connect(context.Context) (driverpkg.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, dataspread.ErrClosed
	}
	if c.db == nil {
		if c.dsn == "" || c.dsn == ":memory:" {
			c.db = dataspread.New(dataspread.Options{})
		} else {
			db, err := dataspread.OpenFile(c.dsn, dataspread.Options{})
			if err != nil {
				return nil, err
			}
			c.db = db
		}
	}
	return &conn{db: c.db, c: c.db.Conn()}, nil
}

func (c *connector) Driver() driverpkg.Driver { return c.driver }

func (c *connector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.db != nil {
		return c.db.Close()
	}
	return nil
}

// conn is one pooled connection: a DataSpread session over the shared
// instance.
type conn struct {
	db *dataspread.DB
	c  *dataspread.Conn
}

var (
	_ driverpkg.Conn               = (*conn)(nil)
	_ driverpkg.ConnPrepareContext = (*conn)(nil)
	_ driverpkg.ConnBeginTx        = (*conn)(nil)
	_ driverpkg.ExecerContext      = (*conn)(nil)
	_ driverpkg.QueryerContext     = (*conn)(nil)
)

func (cn *conn) Prepare(query string) (driverpkg.Stmt, error) {
	return cn.PrepareContext(context.Background(), query)
}

func (cn *conn) PrepareContext(_ context.Context, query string) (driverpkg.Stmt, error) {
	s, err := cn.c.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{s: s}, nil
}

// Close releases the session. The shared instance stays open until the
// connector closes.
func (cn *conn) Close() error { return nil }

func (cn *conn) Begin() (driverpkg.Tx, error) {
	return cn.BeginTx(context.Background(), driverpkg.TxOptions{})
}

func (cn *conn) BeginTx(ctx context.Context, opts driverpkg.TxOptions) (driverpkg.Tx, error) {
	if opts.ReadOnly {
		return nil, fmt.Errorf("dataspread driver: read-only transactions are not supported")
	}
	if err := cn.c.Begin(ctx); err != nil {
		return nil, err
	}
	return &tx{c: cn.c}, nil
}

func (cn *conn) ExecContext(ctx context.Context, query string, args []driverpkg.NamedValue) (driverpkg.Result, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	res, err := cn.c.Exec(ctx, query, vals...)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(res.RowsAffected)}, nil
}

func (cn *conn) QueryContext(ctx context.Context, query string, args []driverpkg.NamedValue) (driverpkg.Rows, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := cn.c.Query(ctx, query, vals...)
	if err != nil {
		return nil, err
	}
	return &rows{r: r}, nil
}

// stmt adapts a prepared statement.
type stmt struct {
	s *dataspread.Stmt
}

var (
	_ driverpkg.Stmt             = (*stmt)(nil)
	_ driverpkg.StmtExecContext  = (*stmt)(nil)
	_ driverpkg.StmtQueryContext = (*stmt)(nil)
)

func (s *stmt) Close() error { return nil }

func (s *stmt) NumInput() int { return s.s.NumParams() }

func (s *stmt) Exec(args []driverpkg.Value) (driverpkg.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []driverpkg.NamedValue) (driverpkg.Result, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	res, err := s.s.Exec(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(res.RowsAffected)}, nil
}

func (s *stmt) Query(args []driverpkg.Value) (driverpkg.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) QueryContext(ctx context.Context, args []driverpkg.NamedValue) (driverpkg.Rows, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := s.s.Query(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return &rows{r: r}, nil
}

// tx adapts the connection's explicit transaction.
type tx struct {
	c *dataspread.Conn
}

func (t *tx) Commit() error   { return t.c.Commit(context.Background()) }
func (t *tx) Rollback() error { return t.c.Rollback(context.Background()) }

// rows adapts a streaming result set.
type rows struct {
	r *dataspread.Rows
}

func (r *rows) Columns() []string { return r.r.Columns() }

func (r *rows) Close() error { return r.r.Close() }

func (r *rows) Next(dest []driverpkg.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	for i, v := range r.r.Values() {
		if i >= len(dest) {
			break
		}
		dest[i] = dataspread.GoValue(v)
	}
	return nil
}

// result reports affected rows; DataSpread has no auto-increment row ids.
type result struct {
	affected int64
}

func (r result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("dataspread driver: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) { return r.affected, nil }

// bindArgs converts database/sql arguments to engine values. sql.Named
// arguments pass through as dataspread.NamedArg and bind against the
// statement's ':name' parameters; plain arguments bind positionally.
func bindArgs(args []driverpkg.NamedValue) ([]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			out[i] = dataspread.Named(a.Name, a.Value)
		} else {
			out[i] = a.Value
		}
	}
	return out, nil
}

func namedValues(args []driverpkg.Value) []driverpkg.NamedValue {
	out := make([]driverpkg.NamedValue, len(args))
	for i, v := range args {
		out[i] = driverpkg.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}
