// Package txn is the durable command log of a workbook: an append-only
// write-ahead log of committed records, each a batch of user-level commands
// (a cell edit, a SQL statement, a binding) that recovery replays in commit
// order (see core.OpenFile).
//
// Undo is not kept here. The SQL engine reverses a failed statement or a
// rolled-back transaction itself (sqlexec's undo log), schema changes
// included — except DROP TABLE and ALTER TABLE DROP COLUMN, which it refuses
// inside an explicit transaction — so only committed work reaches this log.
//
// dslint:errdomain
// dslint:vfsonly
package txn

import (
	"bufio"
	"io"
	"sync"

	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// OpKind classifies a logged operation.
type OpKind string

// Command kinds logged by the core durability layer: each record replays a
// user-level command against a recovered workbook (see core.OpenFile).
const (
	OpCellSet     OpKind = "cell_set"     // cell input, parsed as typed
	OpCellValue   OpKind = "cell_value"   // typed literal cell write
	OpSQL         OpKind = "sql"          // single SQL statement
	OpSQLScript   OpKind = "sql_script"   // whole SQL script (older logs; replayed, no longer written)
	OpAddSheet    OpKind = "add_sheet"    // create a sheet
	OpImportTable OpKind = "import_table" // DBTABLE binding at an anchor
	OpBindQuery   OpKind = "bind_query"   // DBSQL binding at an anchor
	OpExportRange OpKind = "export_range" // range -> table export
)

// Op is one logged command.
type Op struct {
	Kind  OpKind
	Table string
	// Detail is a human-readable description used by diagnostics (e.g. the
	// statement text).
	Detail string
	// Args carries the machine-readable arguments needed to re-apply the
	// operation during recovery (WAL replay). Nil for operations that are
	// logged for diagnostics only.
	Args []string
}

// Record is a committed WAL entry.
type Record struct {
	LSN   uint64
	TxnID uint64
	Ops   []Op
}

// Manager owns the WAL. By default the log is an in-memory slice; AttachLog
// (or RecoverFileVFS) adds a durable append-only sink that every committed
// record is serialized to (see wal.go).
type Manager struct {
	mu      sync.Mutex
	nextTxn uint64
	nextLSN uint64
	wal     []Record

	// Durable log state (wal.go). All guarded by mu.
	sink      io.Writer
	bw        *bufio.Writer
	fs        vfs.FS   // filesystem the log lives on (RecoverFileVFS)
	logFile   vfs.File // owned durable log handle
	logPath   string   // path the log lives at (stable across compaction renames)
	syncEvery int
	pending   int
	logBytes  int64 // bytes of framed records in the durable log

	// ioErr latches the first append/flush/fsync failure. A failed fsync
	// may have dropped the very pages it covered (fsync-gate), so the log
	// is disabled rather than retried: every later append or sync reports
	// this error until the workbook is reopened.
	ioErr error
}

// NewManager creates a transaction manager with an empty WAL.
func NewManager() *Manager {
	return &Manager{nextTxn: 1, nextLSN: 1}
}

// WAL returns a copy of the committed log in commit order.
func (m *Manager) WAL() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.wal))
	copy(out, m.wal)
	return out
}

// Append commits ops as one record under the next LSN and transaction id
// and writes it to the durable sink, if one is attached. Appending no ops
// writes nothing. The log keeps ops: callers must not modify them afterwards.
// dslint:critical
func (m *Manager) Append(ops ...Op) error {
	if len(ops) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := Record{LSN: m.nextLSN, TxnID: m.nextTxn, Ops: ops}
	m.nextLSN++
	m.nextTxn++
	m.wal = append(m.wal, rec)
	return m.appendDurableLocked(rec)
}
