// Degraded read-only mode.
//
// An I/O failure that leaves durability in doubt — a failed WAL append, a
// storage error while a command was mutating pages, a commit-uncertain
// checkpoint root flip — poisons the workbook: in-memory state may no longer
// match what a reopen would recover, so accepting further writes would let
// the two histories diverge silently. A poisoned workbook keeps serving
// reads from its committed in-memory state and rejects every mutating
// command with dberr.ErrReadOnly until it is reopened (reopen re-derives
// state from disk, so it starts clean).
package core

import (
	"errors"
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// poison degrades the workbook to read-only. The first cause wins; later
// failures (often knock-ons of the first) are ignored.
func (ds *DataSpread) poison(cause error) {
	ds.poisonMu.Lock()
	defer ds.poisonMu.Unlock()
	if ds.poisonErr == nil {
		ds.poisonErr = cause
	}
}

// Degrade forces the workbook into degraded read-only mode as if cause had
// poisoned it: an operational fence (quarantine a suspect workbook without
// closing it) also used by fault harnesses that need a deterministically
// degraded instance.
func (ds *DataSpread) Degrade(cause error) {
	if cause == nil {
		cause = fmt.Errorf("core: administratively fenced: %w", dberr.ErrReadOnly)
	}
	ds.poison(cause)
}

// isPoisoned reports whether the workbook has degraded to read-only.
func (ds *DataSpread) isPoisoned() bool {
	ds.poisonMu.Lock()
	defer ds.poisonMu.Unlock()
	return ds.poisonErr != nil
}

// checkWritable gates every mutating command (caller holds cmdMu, or is the
// checkpoint path). It returns nil on a healthy workbook and an
// ErrReadOnly-classified error naming the original cause on a poisoned one.
func (ds *DataSpread) checkWritable() error {
	ds.poisonMu.Lock()
	perr := ds.poisonErr
	ds.poisonMu.Unlock()
	if perr == nil {
		return nil
	}
	return fmt.Errorf("core: %w after an I/O failure: %w", dberr.ErrReadOnly, perr)
}

// notePoison inspects a command failure: an error classified under
// dberr.ErrIO means a write to the page heap or the WAL failed mid-command,
// and one under sqlexec.ErrUndo means a failed statement or a ROLLBACK could
// not reverse its changes; either way the in-memory and on-disk states can
// disagree and the workbook is poisoned. Other failures (constraint
// violations, syntax errors) were unwound and leave it healthy. Returns err
// unchanged for convenient chaining.
func (ds *DataSpread) notePoison(err error) error {
	if err != nil && (errors.Is(err, dberr.ErrIO) || errors.Is(err, sqlexec.ErrUndo)) {
		ds.poison(err)
	}
	return err
}

// isSyncFault reports whether err contains a failed fsync. Sync failures are
// the durability class: the kernel may have dropped the dirty pages they
// covered (fsync-gate), so nothing short of a reopen can re-establish what
// is on disk. Other I/O failures are treated as transient.
func isSyncFault(err error) bool {
	for {
		var oe *vfs.OpError
		if !errors.As(err, &oe) {
			return false
		}
		if oe.Op == vfs.OpSync {
			return true
		}
		err = oe.Err
	}
}

// Health reports the workbook's degradation state: nil while healthy, the
// poisoning cause (classified under ErrReadOnly and ErrIO) once the
// workbook has degraded to read-only, or the last background checkpoint
// failure if one is pending. Unlike Checkpoint and Close, reading Health
// does not consume the recorded checkpoint error.
func (ds *DataSpread) Health() error {
	if err := ds.checkWritable(); err != nil {
		return err
	}
	ds.ckptErrMu.Lock()
	defer ds.ckptErrMu.Unlock()
	if ds.ckptErr != nil {
		return fmt.Errorf("core: background checkpoint failed: %w", ds.ckptErr)
	}
	return nil
}
