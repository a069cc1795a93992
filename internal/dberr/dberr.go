// Package dberr defines the engine's error taxonomy: typed sentinel errors
// that every layer (catalog, sqlexec, core, the public dataspread package)
// wraps into its failures so embedders can branch with errors.Is instead of
// matching message strings. The public package re-exports these values; the
// internal packages attach them with fmt.Errorf("...: %w", ...) so messages
// keep their context while the category stays programmatically testable.
package dberr

import (
	"errors"
	"fmt"
)

// Schema and catalog errors.
var (
	// ErrTableNotFound reports a reference to a table the catalog does not
	// know. catalog.ErrNoTable matches it through errors.Is.
	ErrTableNotFound = errors.New("table not found")
	// ErrTableExists reports CREATE TABLE of an existing table (without IF
	// NOT EXISTS).
	ErrTableExists = errors.New("table already exists")
	// ErrColumnNotFound reports a reference to an unknown column.
	ErrColumnNotFound = errors.New("column not found")
	// ErrIndexNotFound reports DROP INDEX of an unknown index.
	ErrIndexNotFound = errors.New("index not found")
	// ErrIndexExists reports CREATE INDEX of an existing index name.
	ErrIndexExists = errors.New("index already exists")
	// ErrColumnExists reports ADD COLUMN or RENAME COLUMN onto a column
	// name the table already has.
	ErrColumnExists = errors.New("column already exists")
	// ErrInvalidSchema reports a schema definition the catalog rejects:
	// empty table/column/index names, duplicate columns, a table with no
	// columns, or dropping the only column.
	ErrInvalidSchema = errors.New("invalid schema definition")
	// ErrSheetNotFound reports a reference to an unknown spreadsheet sheet.
	ErrSheetNotFound = errors.New("sheet not found")
)

// Constraint violations.
var (
	// ErrUniqueViolation reports a duplicate primary key or a duplicate
	// value under a UNIQUE index.
	ErrUniqueViolation = errors.New("unique constraint violation")
	// ErrNotNullViolation reports a NULL value for a NOT NULL column.
	ErrNotNullViolation = errors.New("not-null constraint violation")
	// ErrTypeMismatch reports a value that cannot be coerced to its
	// column's declared type.
	ErrTypeMismatch = errors.New("value does not match column type")
)

// Session, transaction and statement errors.
var (
	// ErrConflict reports an operation that lost to concurrent state it
	// cannot be applied over: opening a second writer on a locked workbook,
	// or committing over a conflicting change.
	ErrConflict = errors.New("conflicting operation")
	// ErrTxOpen reports BEGIN inside an open explicit transaction.
	ErrTxOpen = errors.New("transaction already open")
	// ErrNoTx reports COMMIT/ROLLBACK without an open transaction.
	ErrNoTx = errors.New("no open transaction")
	// ErrParamCount reports an execution whose bound arguments do not match
	// the statement's '?' placeholders.
	ErrParamCount = errors.New("wrong number of bound parameters")
	// ErrClosed reports use of a closed database, statement or row set.
	ErrClosed = errors.New("closed")
	// ErrSyntax reports a statement or expression the engine can parse but
	// not make sense of: unknown operators or functions, wrong argument
	// counts, aggregates outside aggregation, ambiguous references.
	ErrSyntax = errors.New("invalid statement")
	// ErrUnsupported reports a request outside the engine's capabilities:
	// streaming a non-SELECT, spreadsheet constructs without a spreadsheet
	// context, checkpointing a non-durable workbook.
	ErrUnsupported = errors.New("unsupported operation")
	// ErrValue reports an expression evaluated over values outside its
	// domain: arithmetic on non-numbers, NOT of a non-boolean, division by
	// zero. Distinct from ErrTypeMismatch, which is about storing values
	// into typed columns.
	ErrValue = errors.New("invalid value for operation")
)

// Serving-tier errors.
var (
	// ErrAuth reports a failed network handshake: an unknown tenant, a bad
	// token, or a protocol version the server does not speak.
	ErrAuth = errors.New("authentication failed")
	// ErrOverloaded reports a query rejected by admission control: the
	// server (or the caller's tenant) is at its in-flight query cap and the
	// bounded wait queue is full or the wait timed out. The request was not
	// executed; retrying after backoff is safe.
	ErrOverloaded = errors.New("server overloaded")
	// ErrProtocol reports a malformed network frame: a length beyond the
	// frame limit, a truncated or undecodable field, an absurd count, or a
	// frame type the exchange does not expect. Network input is never
	// ErrCorrupt, which is on-disk state only.
	ErrProtocol = errors.New("malformed network frame")
)

// Storage and durability errors.
var (
	// ErrCorrupt reports on-disk state that fails validation: bad value or
	// column encodings in the WAL, unrecognised workbook pages, invalid
	// root slots. Malformed network input is ErrProtocol instead. The WAL's own ErrCorruptLog matches it through errors.Is.
	ErrCorrupt = errors.New("corrupt on-disk state")
	// ErrInternal reports a broken engine invariant — always a bug, never
	// a user error.
	ErrInternal = errors.New("internal invariant violation")
	// ErrIO reports a storage I/O failure: a read, write, sync, truncate or
	// close on the page heap, the WAL or a root slot that the operating
	// system rejected. Every error surfaced through the vfs layer matches
	// it through errors.Is.
	ErrIO = errors.New("storage I/O failure")
	// ErrDiskFull is the ENOSPC subclass of ErrIO: the device is out of
	// space. errors.Is(err, ErrIO) also holds for every ErrDiskFull.
	ErrDiskFull = fmt.Errorf("disk full: %w", ErrIO)
	// ErrReadOnly reports a write rejected because the workbook degraded to
	// read-only mode after an I/O failure: committed state remains readable,
	// but no further mutations are accepted until the workbook is reopened.
	ErrReadOnly = errors.New("workbook is read-only")
)
