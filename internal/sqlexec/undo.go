package sqlexec

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
)

// Statement atomicity, transactions and the change feed share one log. Every
// change a statement makes pushes an entry onto the statement's own log
// (execEnv.undo): the change and the step that reverses it. A statement that
// fails unwinds its log, newest first; one that succeeds inside BEGIN appends
// it to its transaction's, which ROLLBACK unwinds. The changes are published
// once (Database.publish): after an autocommit statement succeeds, at
// COMMIT, and at ROLLBACK, which publishes what its unwind changed. So a
// session's state holds a statement's effects exactly when the statement
// succeeded and was not rolled back — the statements the command WAL logs,
// which Session.Exec hands back as Redo when they commit — and listeners hear
// of no change half-way through a statement or before its transaction ends.
//
// A transaction owns the tables from its first mutating statement to its end
// (claim), and every other table writer fails with dberr.ErrConflict
// meanwhile, so no undo step meets another's change.
//
// The paper notes that in stock relational systems a schema change "is
// considered as 'data definition language' and generally cannot participate
// in transactions". Here CREATE TABLE (including AS SELECT), ADD COLUMN,
// RENAME COLUMN, CREATE INDEX and DROP INDEX undo like any row change, so a
// spreadsheet interaction that mixes schema and data edits rolls back as a
// whole. The two schema changes the table store cannot reverse, DROP TABLE
// and ALTER TABLE DROP COLUMN, are refused inside an explicit transaction.

// ErrUndo classifies a failed undo step: the live state then matches neither
// the state before the statement or transaction nor anything a log holds.
var ErrUndo = fmt.Errorf("sqlexec: undo failed: %w", dberr.ErrInternal)

// transaction is a session's explicit transaction: the undo log ROLLBACK
// unwinds and the redo COMMIT hands back for the command log. From its
// first mutating statement to its end the session owns the tables.
type transaction struct {
	undo undoLog
	redo []Redo
}

// Redo is a committed statement as the command log replays it: its text and
// its bound arguments.
type Redo struct {
	SQL  string
	Args []sheet.Value
}

// claim makes the session's transaction the owner of the tables. An
// autocommit statement only needs them to have no owner.
func (s *Session) claim() error {
	if owner := s.db.owner.Load(); owner == s || owner == nil && (s.tx == nil || s.db.owner.CompareAndSwap(nil, s)) {
		return nil
	}
	return errOwned
}

var errOwned = fmt.Errorf("sqlexec: another session's transaction is writing: %w", dberr.ErrConflict)

// Busy returns a dberr.ErrConflict error while a session's transaction owns
// the tables, nil otherwise.
func (db *Database) Busy() error {
	if db.owner.Load() != nil {
		return errOwned
	}
	return nil
}

// undoEntry is one change and the step that reverses it. DROP TABLE and DROP
// COLUMN have none: they are refused inside a transaction and end their
// statement, so no unwind reaches them. Nor has Database.UpdateColumn's
// in-place write, which no statement makes.
type undoEntry struct {
	ChangeEvent
	undo func() error
}

// undoLog is a stack of entries. Pushing onto a nil log is a no-op: an undo
// step's own changes are neither undone nor published by themselves.
type undoLog []undoEntry

func (u *undoLog) push(ev ChangeEvent, undo func() error) {
	if u != nil {
		*u = append(*u, undoEntry{ev, undo})
	}
}

// unwind runs the steps newest first, empties the log and returns the
// changes the steps made. It goes on past a failing step, so that as much as
// possible is reversed, and reports the first failure under ErrUndo.
func (u *undoLog) unwind() (undone undoLog, _ error) {
	var first error
	for i := len(*u) - 1; i >= 0; i-- {
		e := (*u)[i]
		if err := e.undo(); err != nil && first == nil {
			first = fmt.Errorf("%w: step %d: %w", ErrUndo, i, err)
		}
		switch e.Kind {
		case ChangeInsert:
			e.Kind = ChangeDelete
		case ChangeDelete:
			e.Kind = ChangeInsert
		}
		undone = append(undone, e)
	}
	*u = nil
	return undone, first
}
