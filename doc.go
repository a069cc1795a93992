// Package dataspread is an embeddable Go reproduction of "DataSpread:
// Unifying Databases and Spreadsheets" (Bendre et al., PVLDB 8(12), VLDB
// 2015 demo): a spreadsheet engine that is a database. This package is the
// public API; the implementation lives under internal/ (see DESIGN.md for
// the module map), runnable examples are under examples/, a
// database/sql driver is in the driver subpackage, and a network client
// for the dataspreadd serving tier is in the client subpackage.
//
// # Opening a workbook
//
//	db := dataspread.New(dataspread.Options{})                    // in-memory
//	db, err := dataspread.OpenFile("wb.ds", dataspread.Options{}) // durable
//	defer db.Close()
//
// File-backed workbooks are durable by default: table and index pages live
// in a single-file page heap behind a page-zero catalog of CRC-protected
// ping-pong root slots, every mutating command is appended to a CRC-framed
// write-ahead log before it returns, and a background goroutine checkpoints
// off the write path with shadow-paged writes, so recovery attaches to
// existing pages and replays only the dirty WAL tail. Every table page is
// written in one checksummed container format; a page that fails the check
// surfaces as a corrupt-page error, never as wrong rows. Index leaves are
// pages too: a checkpoint writes only the leaves that changed, and an open
// reads none of them — a leaf's entries are read the first time a query
// reaches it, so open time does not grow with the table (DESIGN.md
// §Durability). A workbook file admits a single writing process
// (ErrConflict otherwise).
//
// # SQL: prepared statements, streaming rows, cancellation
//
// Statements bind '?' positional placeholders or ':name' named
// parameters — pass plain values for the former and dataspread.Named
// values (in any order) for the latter, mixing both in one call if the
// statement does. A statement is parsed and analyzed once
// (a shared plan cache keyed by text, invalidated by schema changes) and
// bound per execution — including its index access paths, so a prepared
// `WHERE id = ?` keeps the primary-key point lookup with every fresh
// argument:
//
//	stmt, err := db.Prepare("SELECT title FROM movies WHERE year > ?")
//	rows, err := stmt.Query(ctx, 1990) // rows stream as the scan produces them
//	defer rows.Close()
//	for rows.Next() {
//	    var title string
//	    if err := rows.Scan(&title); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The context is polled at scan/join/sort batch boundaries: cancelling a
// query mid-scan returns promptly with context.Canceled. Connections
// (DB.Conn) give each goroutine its own session and explicit-transaction
// state (BEGIN/COMMIT/ROLLBACK). From its first write until it ends, a
// transaction owns the tables: other connections' writes, edits of
// table-bound cells, ExportRange and Checkpoint fail at once with
// ErrConflict (plain cell edits proceed), and other connections still read
// its uncommitted changes (Conn.Begin). Failures wrap a small sentinel
// taxonomy — ErrTableNotFound, ErrUniqueViolation, ErrParamCount, … — for
// errors.Is.
//
// Reads are snapshot reads: every table scan — materialised or streamed,
// serial or parallel — pins an immutable page epoch and runs the same
// kernel against frozen page versions without holding the engine lock, so
// readers never block writers (and vice versa) and a scan sees a single
// point-in-time state. Large scans, aggregations and joins additionally
// fan out over a morsel-driven worker pool (Options.Workers; default
// GOMAXPROCS, 1 = serial) with results identical to serial execution row
// for row (DESIGN.md §Snapshot Reads & Parallel Execution).
//
// Queries choose their access paths: point, range and IN-list WHERE
// conjuncts on NUMERIC columns ride the primary-key B+-tree or a secondary
// index instead of a filtered full scan, and ORDER BY <indexed col> LIMIT k
// walks the index in order without sorting. Secondary indexes are plain
// SQL —
//
//	CREATE [UNIQUE] INDEX [IF NOT EXISTS] idx_year ON movies (year);
//	DROP INDEX [IF EXISTS] idx_year;
//	EXPLAIN SELECT title FROM movies WHERE year > 1990;
//
// with EXPLAIN reporting the chosen path per FROM source (DESIGN.md
// §Access Paths & Indexes); EXPLAIN of a parameterized statement executed
// with arguments shows the paths those arguments take.
//
// Cold scans skip data: sealed pages carry per-column min/max zone
// summaries, full scans (serial, parallel and streaming) drop pages that
// cannot match pushed predicates before decoding them, and column pages
// dictionary- or delta-compress low-entropy data. Summaries persist with
// checkpoints as an advisory catalog — a torn or corrupt catalog merely
// disables skipping, never changes results (DESIGN.md §Zone Maps &
// Compression); EXPLAIN shows "zone maps: skipped/total" per source.
//
// # The spreadsheet surface
//
// The same DB is a workbook. SetCell enters literals and formulas exactly
// as typing into the grid — including the paper's DBSQL("...") formulas,
// whose SQL may read sheet data positionally through RANGEVALUE(cell) and
// RANGETABLE(range) and whose results spill into the sheet — ExportRange
// turns a sheet region into a relational table (schema inferred), and
// ImportTable binds a table to a region with two-way sync and
// fetch-on-demand windowing for large tables.
//
// # Serving over the network
//
// The same engine serves over TCP: cmd/dataspreadd hosts one workbook
// per tenant behind a compact length-prefixed frame protocol (token
// auth, prepared statements with positional and named binds, streaming
// row batches, transactions, out-of-band cancel), with an LRU pool of
// open workbooks, tenant-then-global admission control and graceful
// drain. The client subpackage is the pure-Go client; errors re-attach
// to the same sentinel taxonomy across the wire, so
// errors.Is(err, dataspread.ErrTableNotFound) keeps working remotely
// (DESIGN.md §Serving Tier, examples/netclient).
//
// # database/sql
//
// Programs that want none of the above can use the standard interfaces:
//
//	import _ "github.com/dataspread/dataspread/driver"
//
//	sqlDB, err := sql.Open("dataspread", "workbook.ds")
//
// The exported surface of this package and driver is golden-checked by
// `make apicheck` (api/public.txt), and the engine's locking, durability
// and cancellation invariants are mechanically enforced by `make lint`,
// which runs the project-specific analyzer suite in internal/lint via
// cmd/dslint (DESIGN.md §Static Analysis). The paper's experiments
// (F2a–c, M1–M4, A1, A2, A4, A5) are testing.B benchmarks in bench_test.go, and
// `make bench` runs every package's benchmarks once.
package dataspread
