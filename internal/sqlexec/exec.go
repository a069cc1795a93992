package sqlexec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Result is the outcome of executing a statement: a relation for queries, an
// affected-row count for DML, and neither for DDL / transaction control.
type Result struct {
	Columns  []string
	Rows     [][]sheet.Value
	Affected int
}

// Session executes statements against a database, carrying per-caller state:
// the spreadsheet accessor used to resolve positional constructs and the
// current explicit transaction (nil outside one; undo.go).
type Session struct {
	db     *Database
	sheets SheetAccessor
	tx     *transaction
}

// NewSession creates a session. sheets may be nil when positional constructs
// are not needed.
func (db *Database) NewSession(sheets SheetAccessor) *Session {
	return &Session{db: db, sheets: sheets}
}

// Query executes a single SQL statement through the prepared-plan cache:
// repeated evaluations of the same text (the DBSQL recalculation pattern)
// skip parsing and analysis entirely.
func (s *Session) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext executes a single SQL statement through the prepared-plan
// cache, binding args to the statement's '?' placeholders and honouring ctx
// cancellation at pipeline batch boundaries.
func (s *Session) QueryContext(ctx context.Context, sql string, args ...sheet.Value) (*Result, error) {
	p, err := s.db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecutePreparedContext(ctx, p, args...)
}

// ExecutePreparedContext runs a prepared statement with the given placeholder
// arguments. The argument count must match the statement's placeholder
// count exactly (dberr.ErrParamCount otherwise).
func (s *Session) ExecutePreparedContext(ctx context.Context, p *Prepared, args ...sheet.Value) (*Result, error) {
	res, _, err := s.Exec(ctx, p, args)
	return res, err
}

// Exec runs a prepared statement like ExecutePreparedContext and returns
// what it committed, for the command log: itself when it mutates outside a
// transaction, the transaction's statements when it is COMMIT.
func (s *Session) Exec(ctx context.Context, p *Prepared, args []sheet.Value) (*Result, []Redo, error) {
	env, err := s.execEnv(ctx, p, args)
	if err != nil {
		return nil, nil, err
	}
	if sel, ok := p.stmt.(*sqlparser.SelectStmt); ok && p.sel != nil {
		res, err := s.db.runSelect(sel, p.sel, env)
		return res, nil, err
	}
	return s.executeWith(p.stmt, env, Redo{SQL: p.SQL, Args: args})
}

// execEnv validates the bound arguments against the prepared statement and
// builds the per-execution environment.
func (s *Session) execEnv(ctx context.Context, p *Prepared, args []sheet.Value) (*execEnv, error) {
	if len(args) != p.nparams {
		return nil, fmt.Errorf("sqlexec: statement has %d parameter(s), %d bound: %w",
			p.nparams, len(args), dberr.ErrParamCount)
	}
	return &execEnv{sheets: s.sheets, params: args, cancel: poller{ctx: ctx}}, nil
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// tableSchema builds the relation schema of one named table for binding
// DML predicates and assignments.
func tableSchema(tbl *catalog.Table) []colDesc {
	label := strings.ToLower(tbl.Name)
	cols := make([]colDesc, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = colDesc{table: label, name: strings.ToLower(c.Name)}
	}
	return cols
}

// executeWith runs one parsed statement under the given execution
// environment, atomically: a statement that fails unwinds its own changes
// before the error returns, one that succeeds inside an explicit transaction
// hands its undo log and redo to the transaction, and any other that
// succeeds publishes its changes (undo.go). A mutating statement first
// claims the tables.
func (s *Session) executeWith(stmt sqlparser.Statement, env *execEnv, redo Redo) (*Result, []Redo, error) {
	switch stmt.(type) {
	case *sqlparser.BeginStmt:
		if s.tx != nil {
			return nil, nil, fmt.Errorf("sqlexec: %w", dberr.ErrTxOpen)
		}
		s.tx = &transaction{}
		return &Result{}, nil, nil
	case *sqlparser.CommitStmt, *sqlparser.RollbackStmt:
		tx := s.tx
		if tx == nil {
			return nil, nil, fmt.Errorf("sqlexec: %w", dberr.ErrNoTx)
		}
		s.tx = nil
		s.db.owner.CompareAndSwap(s, nil)
		if _, commit := stmt.(*sqlparser.CommitStmt); commit {
			s.db.publish(tx.undo)
			return &Result{}, tx.redo, nil
		}
		undone, err := tx.undo.unwind()
		s.db.publish(undone)
		return &Result{}, nil, err
	}
	mutates := sqlparser.Mutates(stmt)
	if mutates {
		if err := s.claim(); err != nil {
			return nil, nil, err
		}
	}
	res, err := s.execute(stmt, env)
	if err != nil {
		if _, uerr := env.undo.unwind(); uerr != nil {
			err = errors.Join(err, uerr)
		}
		return nil, nil, err
	}
	switch {
	case !mutates:
		return res, nil, nil
	case s.tx != nil:
		s.tx.undo = append(s.tx.undo, env.undo...)
		s.tx.redo = append(s.tx.redo, Redo{SQL: redo.SQL, Args: slices.Clone(redo.Args)})
		return res, nil, nil
	}
	s.db.publish(env.undo)
	return res, []Redo{redo}, nil
}

func (s *Session) execute(stmt sqlparser.Statement, env *execEnv) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlparser.SelectStmt:
		return s.db.executeSelect(st, env)
	case *sqlparser.InsertStmt:
		return s.executeInsert(st, env)
	case *sqlparser.UpdateStmt:
		return s.executeUpdate(st, env)
	case *sqlparser.DeleteStmt:
		return s.executeDelete(st, env)
	case *sqlparser.CreateTableStmt:
		return s.executeCreateTable(st, env)
	case *sqlparser.AlterTableStmt:
		return s.executeAlterTable(st, env)
	case *sqlparser.DropTableStmt:
		return s.executeDropTable(st, env)
	case *sqlparser.CreateIndexStmt:
		return &Result{}, s.db.createIndex(st.Name, st.Table, st.Columns, st.Unique, st.IfNotExists, &env.undo)
	case *sqlparser.DropIndexStmt:
		return &Result{}, s.db.dropIndex(st.Name, st.IfExists, &env.undo)
	case *sqlparser.ExplainStmt:
		return s.executeExplain(st, env)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported statement %T: %w", stmt, dberr.ErrUnsupported)
	}
}

// dmlAccessPath chooses an index access path for locating the target rows
// of UPDATE/DELETE, or nil for a full scan. Candidate narrowing is only
// safe when no WHERE conjunct can raise an evaluation error: skipping a row
// the index rules out must be indistinguishable from evaluating the WHERE
// to false on it.
func (s *Session) dmlAccessPath(tbl *catalog.Table, where sqlparser.Expr, env *execEnv) *accessPath {
	if where == nil {
		return nil
	}
	conjuncts := sqlparser.SplitConjuncts(where)
	for _, c := range conjuncts {
		if exprCanError(c) {
			return nil
		}
	}
	path := s.db.chooseAccessPath(tbl, tableSchema(tbl), conjuncts, env, noOrder)
	if path == nil || path.kind == pathFull {
		return nil
	}
	return path
}

// scanDMLTargets visits candidate target rows of an UPDATE/DELETE: via the
// index access path when one applies, via a full scan otherwise. The rows
// passed to visit are caller-owned copies. The collection phase runs under
// the database read lock (concurrent sessions may be writing other
// statements); the caller applies its writes after the scan returns.
func (s *Session) scanDMLTargets(tbl *catalog.Table, where sqlparser.Expr, env *execEnv, visit func(id tablestore.RowID, row []sheet.Value) bool) error {
	store, err := s.db.store(tbl.Name)
	if err != nil {
		return err
	}
	path := s.dmlAccessPath(tbl, where, env)
	poll := env.poller()
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	if path != nil {
		ids, err := s.db.collectPathIDsLocked(tbl.Name, path)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := poll.check(); err != nil {
				return err
			}
			row, err := store.Get(id)
			if err != nil {
				if errors.Is(err, tablestore.ErrRowNotFound) {
					continue
				}
				return err
			}
			if !visit(id, row) {
				return nil
			}
		}
		return nil
	}
	var ctxErr error
	err = store.Scan(func(id tablestore.RowID, row []sheet.Value) bool {
		if ctxErr = poll.check(); ctxErr != nil {
			return false
		}
		return visit(id, row)
	})
	if err == nil {
		err = ctxErr
	}
	return err
}

// evalConstExpr evaluates an expression with no row context (literals,
// RANGEVALUE, placeholders, arithmetic).
func (s *Session) evalConstExpr(e sqlparser.Expr, env *execEnv) (sheet.Value, error) {
	be, err := compileExpr(e, &compileEnv{noRel: true, sheets: env.sheets})
	if err != nil {
		return sheet.Empty(), err
	}
	return be.eval(env.newRowCtx())
}

func (s *Session) executeInsert(st *sqlparser.InsertStmt, env *execEnv) (*Result, error) {
	tbl, err := s.db.cat.MustGet(st.Table)
	if err != nil {
		return nil, err
	}
	// Map the provided column list (or the full schema) to schema positions.
	targets := make([]int, 0, len(tbl.Columns))
	if len(st.Columns) == 0 {
		for i := range tbl.Columns {
			targets = append(targets, i)
		}
	} else {
		for _, name := range st.Columns {
			idx, ok := tbl.ColumnIndex(name)
			if !ok {
				return nil, fmt.Errorf("sqlexec: unknown column %q in INSERT: %w", name, dberr.ErrColumnNotFound)
			}
			targets = append(targets, idx)
		}
	}
	buildRow := func(vals []sheet.Value) ([]sheet.Value, error) {
		if len(vals) != len(targets) {
			return nil, fmt.Errorf("sqlexec: INSERT expects %d values, got %d: %w", len(targets), len(vals), dberr.ErrParamCount)
		}
		row := make([]sheet.Value, len(tbl.Columns))
		for i, col := range tbl.Columns {
			row[i] = col.Default
		}
		for i, idx := range targets {
			row[idx] = vals[i]
		}
		return row, nil
	}
	affected := 0
	insertOne := func(vals []sheet.Value) error {
		row, err := buildRow(vals)
		if err != nil {
			return err
		}
		if _, err := s.db.insert(st.Table, row, &env.undo); err != nil {
			return err
		}
		affected++
		return nil
	}
	if st.Select != nil {
		res, err := s.db.executeSelect(st.Select, env)
		if err != nil {
			return nil, err
		}
		poll := env.poller()
		for _, row := range res.Rows {
			if err := poll.check(); err != nil {
				return nil, err
			}
			if err := insertOne(row); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: affected}, nil
	}
	for _, exprRow := range st.Rows {
		vals := make([]sheet.Value, len(exprRow))
		for i, e := range exprRow {
			v, err := s.evalConstExpr(e, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := insertOne(vals); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: affected}, nil
}

func (s *Session) executeUpdate(st *sqlparser.UpdateStmt, env *execEnv) (*Result, error) {
	tbl, err := s.db.cat.MustGet(st.Table)
	if err != nil {
		return nil, err
	}
	// Resolve SET target columns.
	type setTarget struct {
		idx  int
		expr sqlparser.Expr
	}
	var sets []setTarget
	for _, a := range st.Set {
		idx, ok := tbl.ColumnIndex(a.Column)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown column %q in UPDATE: %w", a.Column, dberr.ErrColumnNotFound)
		}
		sets = append(sets, setTarget{idx: idx, expr: a.Value})
	}
	cenv := env.compileEnv(tableSchema(tbl))
	var where boundExpr
	if st.Where != nil {
		if where, err = compileExpr(st.Where, cenv); err != nil {
			return nil, err
		}
	}
	setExprs := make([]boundExpr, len(sets))
	for i, set := range sets {
		if setExprs[i], err = compileExpr(set.expr, cenv); err != nil {
			return nil, err
		}
	}
	// Collect matching rows first, then apply, so the scan does not observe
	// its own writes.
	type pending struct {
		id  tablestore.RowID
		row []sheet.Value
	}
	var updates []pending
	ctx := env.newRowCtx()
	err = s.scanDMLTargets(tbl, st.Where, env, func(id tablestore.RowID, row []sheet.Value) bool {
		ctx.row = row
		if where != nil {
			keep, perr := evalBoundPredicate(where, ctx)
			if perr != nil {
				err = perr
				return false
			}
			if !keep {
				return true
			}
		}
		newRow := append([]sheet.Value(nil), row...)
		for i, set := range sets {
			v, eerr := setExprs[i].eval(ctx)
			if eerr != nil {
				err = eerr
				return false
			}
			newRow[set.idx] = v
		}
		updates = append(updates, pending{id: id, row: newRow})
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, u := range updates {
		if err := s.db.update(st.Table, u.id, u.row, &env.undo); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(updates)}, nil
}

func (s *Session) executeDelete(st *sqlparser.DeleteStmt, env *execEnv) (*Result, error) {
	tbl, err := s.db.cat.MustGet(st.Table)
	if err != nil {
		return nil, err
	}
	var where boundExpr
	if st.Where != nil {
		if where, err = compileExpr(st.Where, env.compileEnv(tableSchema(tbl))); err != nil {
			return nil, err
		}
	}
	var ids []tablestore.RowID
	ctx := env.newRowCtx()
	err = s.scanDMLTargets(tbl, st.Where, env, func(id tablestore.RowID, row []sheet.Value) bool {
		if where != nil {
			ctx.row = row
			keep, perr := evalBoundPredicate(where, ctx)
			if perr != nil {
				err = perr
				return false
			}
			if !keep {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if err != nil {
		return nil, err
	}
	poll := env.poller()
	for _, id := range ids {
		if err := poll.check(); err != nil {
			return nil, err
		}
		if err := s.db.delete(st.Table, id, &env.undo); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func (s *Session) executeCreateTable(st *sqlparser.CreateTableStmt, env *execEnv) (*Result, error) {
	if _, exists := s.db.cat.Get(st.Name); exists {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqlexec: table %q: %w", st.Name, dberr.ErrTableExists)
	}
	if st.AsSelect != nil {
		res, err := s.db.executeSelect(st.AsSelect, env)
		if err != nil {
			return nil, err
		}
		cols := make([]catalog.Column, len(res.Columns))
		poll := env.poller()
		for i, name := range res.Columns {
			t := catalog.TypeAny
			for _, row := range res.Rows {
				if err := poll.check(); err != nil {
					return nil, err
				}
				if i < len(row) && !row[i].IsEmpty() {
					t = catalog.UnifyTypes(t, catalog.InferType(row[i]))
				}
			}
			cols[i] = catalog.Column{Name: name, Type: t}
		}
		if err := s.db.createTable(st.Name, cols, &env.undo); err != nil {
			return nil, err
		}
		// Dropping the table undoes its rows too, so they push no steps.
		for _, row := range res.Rows {
			if err := poll.check(); err != nil {
				return nil, err
			}
			padded := make([]sheet.Value, len(cols))
			copy(padded, row)
			if _, err := s.db.insert(st.Name, padded, nil); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: len(res.Rows)}, nil
	}
	cols := make([]catalog.Column, len(st.Columns))
	for i, cd := range st.Columns {
		col := catalog.Column{
			Name:       cd.Name,
			Type:       catalog.ParseType(cd.Type),
			PrimaryKey: cd.PrimaryKey,
			NotNull:    cd.NotNull,
		}
		if cd.Default != nil {
			v, err := s.evalConstExpr(cd.Default, env)
			if err != nil {
				return nil, err
			}
			col.Default = v
		}
		cols[i] = col
	}
	return &Result{}, s.db.createTable(st.Name, cols, &env.undo)
}

func (s *Session) executeAlterTable(st *sqlparser.AlterTableStmt, env *execEnv) (*Result, error) {
	switch {
	case st.AddColumn != nil:
		cd := st.AddColumn
		col := catalog.Column{
			Name:       cd.Name,
			Type:       catalog.ParseType(cd.Type),
			PrimaryKey: cd.PrimaryKey,
			NotNull:    cd.NotNull,
		}
		def := sheet.Empty()
		if cd.Default != nil {
			v, err := s.evalConstExpr(cd.Default, env)
			if err != nil {
				return nil, err
			}
			col.Default = v
			def = v
		}
		return &Result{}, s.db.addColumn(st.Table, col, def, &env.undo)
	case st.DropColumn != "":
		if err := s.refuseInTransaction("ALTER TABLE DROP COLUMN"); err != nil {
			return nil, err
		}
		return &Result{}, s.db.dropColumn(st.Table, st.DropColumn, &env.undo)
	case st.RenameColumn != nil:
		return &Result{}, s.db.renameColumn(st.Table, st.RenameColumn[0], st.RenameColumn[1], &env.undo)
	default:
		return nil, fmt.Errorf("sqlexec: empty ALTER TABLE: %w", dberr.ErrSyntax)
	}
}

// refuseInTransaction rejects, inside an explicit transaction, a schema
// change the table store cannot undo.
func (s *Session) refuseInTransaction(what string) error {
	if s.tx != nil {
		return fmt.Errorf("sqlexec: %s cannot be rolled back, so it is refused inside a transaction: %w", what, dberr.ErrUnsupported)
	}
	return nil
}

func (s *Session) executeDropTable(st *sqlparser.DropTableStmt, env *execEnv) (*Result, error) {
	if err := s.refuseInTransaction("DROP TABLE"); err != nil {
		return nil, err
	}
	if _, exists := s.db.cat.Get(st.Name); !exists {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, catalog.ErrNoTable{Name: st.Name}
	}
	return &Result{}, s.db.dropTable(st.Name, &env.undo)
}
