package sqlexec

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Statement atomicity and transactions share one undo mechanism. Every
// change a statement makes pushes the step that reverses it onto the
// statement's own log (execEnv.undo). A statement that fails unwinds that log
// before its error returns; one that succeeds inside BEGIN appends it to the
// session's transaction log, which COMMIT drops and ROLLBACK unwinds. So a
// session's state holds a statement's effects exactly when the statement
// succeeded and was not rolled back — the statements the command WAL logs.
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

// undoStep reverses one change. A rolled-back DELETE re-inserts its row under
// a new RowID and records it in moved, so that the older steps of the same
// unwind find the row there.
type undoStep func(moved rowMoves) error

// undoLog is a stack of undo steps. Pushing onto a nil log is a no-op: the
// exported Database mutators keep no undo.
type undoLog []undoStep

func (u *undoLog) push(step undoStep) {
	if u != nil {
		*u = append(*u, step)
	}
}

// unwind runs the steps newest first and empties the log. It goes on past a
// failing step, so that as much as possible is reversed, and reports the
// first failure under ErrUndo.
func (u *undoLog) unwind() error {
	moved := rowMoves{}
	var first error
	for i := len(*u) - 1; i >= 0; i-- {
		if err := (*u)[i](moved); err != nil && first == nil {
			first = fmt.Errorf("%w: step %d: %w", ErrUndo, i, err)
		}
	}
	*u = nil
	return first
}

type rowRef struct {
	table string
	id    tablestore.RowID
}

// rowMoves maps the rows an unwind has re-inserted to their new RowIDs.
type rowMoves map[rowRef]tablestore.RowID

// id returns where the row the table knew as id lives now.
func (m rowMoves) id(table string, id tablestore.RowID) tablestore.RowID {
	if moved, ok := m[rowRef{tkey(table), id}]; ok {
		return moved
	}
	return id
}
