// Durability: a DataSpread workbook backed by a single-file page heap plus a
// write-ahead command log.
//
// The page file is the source of truth for relational state. Table pages are
// allocated from the workbook file through the database's buffer pool, and a
// checkpoint persists the page catalog — schema, per-table page directories,
// index contents — in a CRC-framed blob referenced from one of two
// ping-pong root pages (rootpage.go). The spreadsheet side (sheets, user
// cells, bindings) is small and is snapshotted as a compact command blob
// next to the catalog.
//
// Every mutating core command (cell input, mutating SQL, sheet creation,
// import/export) is still serialized as one committed txn.Record to
// <path>.wal before the call returns; the WAL is the redo log for work since
// the last checkpoint. OpenFile therefore attaches to the existing table and
// index pages — no per-row DML replay — and only re-executes the WAL tail
// above the checkpoint watermark, making recovery O(work since the last
// checkpoint) instead of O(history). Checkpoints run off the write path on a
// background goroutine (checkpointer.go) and are shadow-paged end to end: a
// crash at any point either keeps the old root (plus the full WAL) or the
// new one — never a torn snapshot.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/interfacemgr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/vfs"
	"github.com/dataspread/dataspread/internal/txn"
)

// WALPath returns the write-ahead log path used for a workbook file.
func WALPath(path string) string { return path + ".wal" }

// OpenFile opens (creating if necessary) a durable workbook: the page heap
// at path and the command log at WALPath(path). Existing relational state is
// attached from the checkpoint root's page catalog, the sheet snapshot is
// applied, and the WAL tail above the checkpoint watermark is replayed;
// individual command failures during replay are collected (RecoveryErrors)
// rather than aborting the open, so a partially torn history still yields a
// usable workbook.
func OpenFile(path string, opts Options) (*DataSpread, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	// Single-writer enforcement: take the workbook's exclusive lock before
	// touching the heap or the WAL, so two processes can never interleave
	// appends on the same files. A held lock fails fast with a clear error.
	unlock, err := lockWorkbookFile(fsys, path)
	if err != nil {
		return nil, err
	}
	be, err := pager.OpenFileStoreVFS(fsys, path)
	if err != nil {
		_ = unlock()
		return nil, err
	}
	fail := func(err error) (*DataSpread, error) {
		return nil, errors.Join(err, be.Close(), unlock())
	}
	// Pick the root, then rebuild the heap's slot states from its slot map.
	// Without a usable map (a fresh file, a root from before slot maps, a
	// torn blob) the heap scans every slot header instead.
	root, staleSlot, fresh := loadRoots(be)
	var slotMap []byte
	if root.mapPage != 0 {
		slotMap, _ = be.ReadPage(root.mapPage)
	}
	if _, err := be.Attach(slotMap); err != nil {
		return fail(fmt.Errorf("core: read heap slot headers: %w", err))
	}
	// Reserve the two root slots; on a fresh file they are the first pages
	// ever allocated. Reclaim (rather than Allocate) registers a slot whose
	// on-disk header a torn write left as garbage: an unreadable root slot
	// must not brick a file whose sibling slot still holds a valid root.
	for _, slot := range []pager.PageID{rootSlotA, rootSlotB} {
		if err := be.Reclaim(slot); err != nil {
			return fail(fmt.Errorf("core: reclaim root slot %d: %w", slot, err))
		}
	}
	if fresh {
		// No valid root. That is only legitimate for a file that provably
		// holds no committed data: nothing beyond the root slots
		// themselves, each of which is empty (a kill between the slot
		// reservation and the gen-0 root sync on a previous first open) or
		// a torn write of our own root record (rootMagic prefix — a torn
		// *checkpoint* root would be accompanied by blob pages). Anything
		// else — data pages, or a page-1 payload in a foreign/older format
		// — is refused rather than silently re-initialised.
		for _, id := range be.PageIDs() {
			if id != rootSlotA && id != rootSlotB {
				return fail(fmt.Errorf("core: workbook file has data pages but no valid checkpoint root (corrupt root slots or pre-page-catalog format): %w", dberr.ErrCorrupt))
			}
			buf, err := be.ReadPage(id)
			if err != nil {
				return fail(fmt.Errorf("core: read root slot %d: %w", id, err))
			}
			if len(buf) != 0 && !bytes.HasPrefix(buf, rootMagic[:]) {
				return fail(fmt.Errorf("core: workbook file page 1 holds unrecognised data (pre-page-catalog format?); refusing to re-initialise: %w", dberr.ErrCorrupt))
			}
		}
		if err := writeRoot(be, rootSlotA, rootInfo{}); err != nil {
			return fail(err)
		}
		if err := writeRoot(be, rootSlotB, rootInfo{}); err != nil {
			return fail(err)
		}
		// Sync the gen-0 roots before any command can commit: otherwise a
		// power loss could leave durable data-page headers next to
		// never-written root slots, and a reopen would mistake a fully
		// WAL-recoverable workbook for one with corrupt roots.
		if err := be.Sync(); err != nil {
			return fail(err)
		}
	}

	ds := newDataSpread(opts, be)
	ds.backend = be
	ds.unlock = unlock
	ds.root = root
	ds.ckptThreshold = opts.CheckpointWALBytes
	if ds.ckptThreshold == 0 {
		ds.ckptThreshold = defaultCheckpointWALBytes
	}

	// Attach the relational state to its existing pages.
	if root.metaPage != 0 {
		blob, err := be.ReadPage(root.metaPage)
		if err != nil {
			return fail(fmt.Errorf("core: read page catalog: %w", err))
		}
		if err := ds.db.AttachPages(blob); err != nil {
			return fail(fmt.Errorf("core: attach page catalog: %w", err))
		}
	}
	// The zone-map catalog is advisory: an unreadable or corrupt blob (torn
	// write, checksum mismatch, schema drift) degrades to "no page skipping"
	// — summaries rebuild as pages are rewritten — and never fails the open.
	if root.zonePage != 0 {
		if blob, err := be.ReadPage(root.zonePage); err == nil {
			_ = ds.db.AttachZones(blob)
		}
	}
	// Protect the attached pages against in-place overwrite, re-mirror the
	// chosen root into a stale sibling slot (a crash may have left it
	// behind — only the sibling is rewritten, never the slot holding the
	// sole valid root), then free every slot the root does not reach — the
	// shadow pages of a checkpoint that never committed, the superseded
	// pages of one that committed but crashed before cleanup, or pages
	// written after it. A slot-map attach holds only what the root reaches.
	dataPages := ds.db.DurablePageIDs()
	ds.db.Pool().SetDurable(dataPages)
	if staleSlot != 0 {
		if err := writeRoot(be, staleSlot, root); err != nil {
			return fail(err)
		}
		if err := be.Sync(); err != nil {
			return fail(err)
		}
	}
	be.Retain(root.reach(dataPages))

	// Apply the sheet-snapshot commands (cells, sheets, bindings).
	if root.snapPage != 0 {
		blob, err := be.ReadPage(root.snapPage)
		if err != nil {
			return fail(fmt.Errorf("core: read sheet snapshot: %w", err))
		}
		recs, err := txn.DecodeRecords(blob)
		if err != nil {
			return fail(fmt.Errorf("core: decode sheet snapshot: %w", err))
		}
		ds.applyRecords(recs)
	}

	// Replay the WAL tail. Records at or below the watermark are already
	// inside the checkpoint and must not replay (a crash between the root
	// flip and the WAL compaction leaves them behind, and commands like
	// INSERT are not idempotent).
	mgr := txn.NewManager()
	recs, err := mgr.RecoverFileVFS(fsys, WALPath(path))
	if err != nil {
		return fail(err)
	}
	live := recs[:0]
	for _, rec := range recs {
		if rec.LSN > root.watermark {
			live = append(live, rec)
		}
	}
	ds.applyRecords(live)
	mgr.AdvanceLSN(root.watermark)
	ds.wal = mgr
	ds.Wait()
	ds.startCheckpointer()
	return ds, nil
}

// WAL returns the durable command log manager, or nil for in-memory
// instances. Callers can tune group commit via SetGroupCommit.
func (ds *DataSpread) WAL() *txn.Manager { return ds.wal }

// RecoveryErrors returns the per-command failures encountered while applying
// the snapshot and WAL during OpenFile. Empty on a clean recovery.
func (ds *DataSpread) RecoveryErrors() []error { return ds.recoveryErrs }

// ReplayedCommands returns how many logged commands the last OpenFile had to
// re-execute (sheet snapshot plus WAL tail). After a checkpoint it is small
// and independent of table sizes: tables attach to their pages instead of
// replaying per-row DML.
func (ds *DataSpread) ReplayedCommands() int { return ds.replayedOps }

// Checkpoint writes a full shadow-paged checkpoint and compacts the WAL
// through its watermark. It also drains the background checkpointer: when it
// returns, no checkpoint is in flight. While a transaction owns the tables
// it fails with dberr.ErrConflict. See checkpointer.go for the protocol.
func (ds *DataSpread) Checkpoint() error {
	if ds.backend == nil {
		return fmt.Errorf("core: Checkpoint requires a workbook opened with OpenFile: %w", dberr.ErrUnsupported)
	}
	// Surface (and consume) a pending background checkpoint failure: the
	// caller asking for a checkpoint is the natural observer for it.
	ds.ckptErrMu.Lock()
	prev := ds.ckptErr
	ds.ckptErr = nil
	ds.ckptErrMu.Unlock()
	err := ds.checkpointOnce()
	if prev != nil {
		err = errors.Join(fmt.Errorf("core: earlier background checkpoint failed: %w", prev), err)
	}
	return err
}

// Close drains the background checkpointer, then flushes and closes the WAL
// and the backing file, and releases the workbook's single-writer lock. It
// does not checkpoint; in-memory instances close trivially. A failed
// background checkpoint is surfaced here (once).
func (ds *DataSpread) Close() error {
	ds.stopCheckpointer()
	// Detach the interface manager from the database change feed so closed
	// instances retain no refresh machinery.
	ds.iface.Close()
	ds.ckptErrMu.Lock()
	err := ds.ckptErr
	ds.ckptErr = nil
	ds.ckptErrMu.Unlock()
	if ds.wal != nil {
		if wErr := ds.wal.Close(); err == nil {
			err = wErr
		}
	}
	if ds.backend != nil {
		if cErr := ds.backend.Close(); err == nil {
			err = cErr
		}
	}
	if ds.unlock != nil {
		if uErr := ds.unlock(); err == nil {
			err = uErr
		}
		ds.unlock = nil
	}
	return err
}

// logCommand appends user-level commands to the WAL as one committed record
// (several at the commit point of an explicit transaction) and nudges the
// background checkpointer when the log has grown past its threshold. It is a
// no-op for no commands, for in-memory instances and while recovery is
// replaying history.
func (ds *DataSpread) logCommand(ops ...txn.Op) error {
	if ds.wal == nil || ds.replaying {
		return nil
	}
	if err := ds.wal.Append(ops...); err != nil {
		// The commands are applied in memory but their WAL record did not
		// commit: a reopen would lose them, so the workbook degrades to
		// read-only rather than letting the histories diverge further.
		ds.poison(err)
		return err
	}
	ds.maybeTriggerCheckpoint()
	return nil
}

// applyRecords re-applies recovered commands in commit order, suppressing
// WAL logging for the duration. A record that leaves the built-in Conn in a
// transaction (an older log's script of BEGIN and no COMMIT) was logged as
// committed, so replay commits it.
func (ds *DataSpread) applyRecords(recs []txn.Record) {
	ds.replaying = true
	defer func() { ds.replaying = false }()
	for _, rec := range recs {
		for _, op := range rec.Ops {
			ds.replayedOps++
			err := ds.applyOp(op)
			if ds.conn.InTransaction() {
				_, cerr := ds.Query("COMMIT")
				err = errors.Join(err, cerr)
			}
			if err != nil {
				ds.recoveryErrs = append(ds.recoveryErrs,
					fmt.Errorf("core: replay LSN %d %s: %w", rec.LSN, op.Kind, err))
			}
		}
	}
}

func opArgs(op txn.Op, n int) ([]string, error) {
	if len(op.Args) < n {
		return nil, fmt.Errorf("want %d args, have %d: %w", n, len(op.Args), dberr.ErrCorrupt)
	}
	return op.Args, nil
}

// applyOp dispatches one recovered command. Unknown kinds are ignored so
// newer logs degrade gracefully.
func (ds *DataSpread) applyOp(op txn.Op) error {
	switch op.Kind {
	case txn.OpAddSheet:
		args, err := opArgs(op, 1)
		if err != nil {
			return err
		}
		_, err = ds.AddSheet(args[0])
		return err
	case txn.OpCellSet:
		args, err := opArgs(op, 3)
		if err != nil {
			return err
		}
		a, err := sheet.ParseAddress(args[1])
		if err != nil {
			return err
		}
		wait, err := ds.SetCellAt(args[0], a, args[2])
		if err != nil {
			return err
		}
		wait()
	case txn.OpCellValue:
		args, err := opArgs(op, 3)
		if err != nil {
			return err
		}
		a, err := sheet.ParseAddress(args[1])
		if err != nil {
			return err
		}
		v, err := decodeValue(args[2])
		if err != nil {
			return err
		}
		_, canonical, err := ds.sheetOf(args[0])
		if err != nil {
			return err
		}
		ds.engine.SetValue(canonical, a, v)()
	case txn.OpSQL:
		args, err := opArgs(op, 1)
		if err != nil {
			return err
		}
		// Trailing args encode the '?' placeholder bindings the statement
		// originally executed with.
		params := make([]sheet.Value, 0, len(args)-1)
		for _, enc := range args[1:] {
			v, err := decodeValue(enc)
			if err != nil {
				return err
			}
			params = append(params, v)
		}
		_, err = ds.QueryContext(context.Background(), args[0], params...)
		return err
	case txn.OpSQLScript: // written before scripts logged what they committed
		args, err := opArgs(op, 1)
		if err != nil {
			return err
		}
		_, err = ds.QueryScript(args[0])
		return err
	case txn.OpImportTable:
		args, err := opArgs(op, 3)
		if err != nil {
			return err
		}
		_, err = ds.ImportTable(args[0], args[1], args[2])
		return err
	case txn.OpBindQuery:
		args, err := opArgs(op, 3)
		if err != nil {
			return err
		}
		a, err := sheet.ParseAddress(args[1])
		if err != nil {
			return err
		}
		_, err = ds.iface.BindQuery(args[0], a, args[2])
		return err
	case txn.OpExportRange:
		args, err := opArgs(op, 4)
		if err != nil {
			return err
		}
		_, err = ds.CreateTableFromRange(args[0], args[1], args[2], ExportOptions{
			KeepRegion: args[3] == "1",
			PrimaryKey: args[4:],
		})
		return err
	}
	return nil
}

// snapshotOps synthesizes the command sequence that reconstructs the
// non-relational half of the workbook: sheets first, then user cells (bound
// regions are skipped — their bindings re-materialise them), then the
// bindings themselves. Tables and indexes are NOT snapshotted as commands:
// they persist through the page catalog (sqlexec.MarshalPages) and attach on
// open.
func (ds *DataSpread) snapshotOps() []txn.Op {
	var ops []txn.Op
	names := ds.book.SheetNames()
	for _, name := range names {
		ops = append(ops, txn.Op{Kind: txn.OpAddSheet, Detail: name, Args: []string{name}})
	}
	for _, name := range names {
		sh, ok := ds.book.Sheet(name)
		if !ok {
			continue
		}
		used, any := sh.UsedRange()
		if !any {
			continue
		}
		sh.ForEachInRange(used, func(a sheet.Address, c sheet.Cell) {
			if c.Origin.Kind != sheet.OriginUser || c.Origin.BindingID != 0 {
				return // re-materialised by the binding snapshot below
			}
			switch {
			case c.IsFormula():
				if _, ok := isDBFormula("=" + c.Formula); ok {
					return // bindings are snapshotted explicitly
				}
				ops = append(ops, txn.Op{
					Kind:   txn.OpCellSet,
					Detail: name + "!" + a.String(),
					Args:   []string{name, a.String(), "=" + c.Formula},
				})
			case !c.Value.IsEmpty():
				ops = append(ops, txn.Op{
					Kind:   txn.OpCellValue,
					Detail: name + "!" + a.String(),
					Args:   []string{name, a.String(), encodeValue(c.Value)},
				})
			}
		})
	}
	for _, b := range ds.iface.Bindings() {
		switch b.Kind {
		case interfacemgr.KindTable:
			ops = append(ops, txn.Op{
				Kind:   txn.OpImportTable,
				Table:  b.Table,
				Detail: b.SheetName + "!" + b.Anchor.String(),
				Args:   []string{b.SheetName, b.Anchor.String(), b.Table},
			})
		case interfacemgr.KindQuery:
			ops = append(ops, txn.Op{
				Kind:   txn.OpBindQuery,
				Detail: b.SheetName + "!" + b.Anchor.String(),
				Args:   []string{b.SheetName, b.Anchor.String(), b.SQL},
			})
		}
	}
	return ops
}

// --- value and column codecs (snapshot/WAL argument strings) ---

// encodeValue renders a Value as a type-tagged string that decodeValue
// restores exactly (ParseLiteral would re-type, e.g. text "42" into a
// number). Floats use strconv's shortest round-trip form.
func encodeValue(v sheet.Value) string {
	switch v.Kind {
	case sheet.KindNumber:
		return "N" + strconv.FormatFloat(v.Num, 'g', -1, 64)
	case sheet.KindString:
		return "S" + v.Str
	case sheet.KindBool:
		if v.Bool {
			return "B1"
		}
		return "B0"
	case sheet.KindError:
		return "X" + v.Err
	default:
		return "E"
	}
}

func decodeValue(s string) (sheet.Value, error) {
	if s == "" {
		return sheet.Empty(), fmt.Errorf("empty value encoding: %w", dberr.ErrCorrupt)
	}
	body := s[1:]
	switch s[0] {
	case 'E':
		return sheet.Empty(), nil
	case 'N':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return sheet.Empty(), fmt.Errorf("bad number encoding %q: %w", s, err)
		}
		return sheet.Number(f), nil
	case 'S':
		return sheet.String_(body), nil
	case 'B':
		return sheet.Bool_(body == "1"), nil
	case 'X':
		return sheet.ErrorValue(body), nil
	default:
		return sheet.Empty(), fmt.Errorf("unknown value encoding %q: %w", s, dberr.ErrCorrupt)
	}
}
