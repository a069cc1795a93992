// Durable write-ahead log: committed Records serialized to an append-only
// sink as length-prefixed, CRC32-checksummed frames.
//
// Frame layout (all little endian):
//
//	[0:4] payload length (uint32)
//	[4:8] CRC32 (IEEE) of the payload
//	[8:]  payload: one Record in the uvarint encoding below
//
// Record payload: LSN, TxnID, op count as uvarints, then per op the Kind,
// Table, Detail strings and the Args list, each string as uvarint length +
// bytes.
//
// Replay tolerates a torn final frame (a crash mid-append): the valid prefix
// is returned and the tail is discarded; RecoverFileVFS additionally truncates
// the file back to the valid prefix so appends resume cleanly. A checksum or
// decode failure on a fully present frame is corruption and is rejected with
// ErrCorruptLog.
package txn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// ErrCorruptLog is returned when a fully present WAL frame fails its
// checksum or cannot be decoded.
var ErrCorruptLog = fmt.Errorf("txn: corrupt WAL record: %w", dberr.ErrCorrupt)

const (
	frameHeaderSize = 8
	// maxFrameSize bounds a single record; a longer length prefix is
	// treated as corruption rather than an allocation request.
	maxFrameSize = 64 << 20
)

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("string length %d exceeds remaining payload: %w", n, ErrCorruptLog)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func encodeRecord(rec Record) []byte {
	buf := binary.AppendUvarint(nil, rec.LSN)
	buf = binary.AppendUvarint(buf, rec.TxnID)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		buf = appendString(buf, string(op.Kind))
		buf = appendString(buf, op.Table)
		buf = appendString(buf, op.Detail)
		buf = binary.AppendUvarint(buf, uint64(len(op.Args)))
		for _, a := range op.Args {
			buf = appendString(buf, a)
		}
	}
	return buf
}

func decodeRecord(payload []byte) (Record, error) {
	r := bytes.NewReader(payload)
	var rec Record
	var err error
	if rec.LSN, err = binary.ReadUvarint(r); err != nil {
		return rec, err
	}
	if rec.TxnID, err = binary.ReadUvarint(r); err != nil {
		return rec, err
	}
	nOps, err := binary.ReadUvarint(r)
	if err != nil {
		return rec, err
	}
	if nOps > uint64(r.Len()) {
		return rec, fmt.Errorf("op count %d exceeds remaining payload: %w", nOps, ErrCorruptLog)
	}
	for i := uint64(0); i < nOps; i++ {
		var op Op
		kind, err := readString(r)
		if err != nil {
			return rec, err
		}
		op.Kind = OpKind(kind)
		if op.Table, err = readString(r); err != nil {
			return rec, err
		}
		if op.Detail, err = readString(r); err != nil {
			return rec, err
		}
		nArgs, err := binary.ReadUvarint(r)
		if err != nil {
			return rec, err
		}
		if nArgs > uint64(r.Len()) {
			return rec, fmt.Errorf("arg count %d exceeds remaining payload: %w", nArgs, ErrCorruptLog)
		}
		for j := uint64(0); j < nArgs; j++ {
			a, err := readString(r)
			if err != nil {
				return rec, err
			}
			op.Args = append(op.Args, a)
		}
		rec.Ops = append(rec.Ops, op)
	}
	if r.Len() != 0 {
		return rec, fmt.Errorf("%d trailing bytes after record: %w", r.Len(), ErrCorruptLog)
	}
	return rec, nil
}

func appendFrame(buf []byte, rec Record) []byte {
	payload := encodeRecord(rec)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// EncodeRecords serializes records as a contiguous sequence of WAL frames.
// Core checkpoints use it to store a compacted log snapshot in a single page.
func EncodeRecords(recs []Record) []byte {
	var buf []byte
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	return buf
}

// DecodeRecords parses a frame sequence produced by EncodeRecords. Unlike
// Replay it is strict: a torn tail is corruption, because the input is a
// fully written snapshot, not an append-only log.
func DecodeRecords(b []byte) ([]Record, error) {
	recs, valid, err := readFrames(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if valid != int64(len(b)) {
		return nil, fmt.Errorf("%w: torn frame at offset %d", ErrCorruptLog, valid)
	}
	return recs, nil
}

// readFrames reads frames until EOF (clean stop), a torn tail (clean stop at
// the last full frame), or corruption (error). It returns the records and the
// byte length of the valid prefix.
func readFrames(r io.Reader) ([]Record, int64, error) {
	var recs []Record
	var valid int64
	for {
		var hdr [frameHeaderSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, valid, nil // end of log or torn header
			}
			return recs, valid, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxFrameSize {
			return recs, valid, fmt.Errorf("%w: frame length %d", ErrCorruptLog, length)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, valid, nil // torn payload
			}
			return recs, valid, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return recs, valid, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorruptLog, valid)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, valid, fmt.Errorf("%w: %v", ErrCorruptLog, err)
		}
		recs = append(recs, rec)
		valid += frameHeaderSize + int64(length)
	}
}

// AttachLog sets the durable sink for committed records. Subsequent commits
// append a frame per record; frames are buffered and flushed (plus fsynced
// when the sink supports it) according to the group-commit policy, which
// defaults to every commit.
func (m *Manager) AttachLog(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink = w
	m.bw = bufio.NewWriter(w)
	if m.syncEvery < 1 {
		m.syncEvery = 1
	}
	m.pending = 0
}

// SetGroupCommit makes the log flush and sync only every n commits (group
// commit): intermediate commits stay buffered, trading a bounded window of
// recent commits for fewer fsyncs. n < 1 restores sync-on-every-commit.
func (m *Manager) SetGroupCommit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 1 {
		n = 1
	}
	m.syncEvery = n
}

// Sync forces buffered frames to the sink and, when the sink supports it
// (e.g. *os.File), to stable storage.
// dslint:critical
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushSyncLocked()
}

type syncer interface{ Sync() error }

// walDisabledLocked reports the latched I/O failure that disabled the log.
// Per the fsync-gate rule a failed flush or fsync must not be retried: the
// kernel may already have dropped the dirty pages it covered, so a retry
// that succeeds would misreport lost commits as durable.
func (m *Manager) walDisabledLocked() error {
	return fmt.Errorf("txn: WAL disabled after an earlier I/O failure (fsync-gate): %w", m.ioErr)
}

func (m *Manager) flushSyncLocked() error {
	if m.bw == nil {
		return nil
	}
	if m.ioErr != nil {
		return m.walDisabledLocked()
	}
	if err := m.bw.Flush(); err != nil {
		m.ioErr = err
		return err
	}
	if s, ok := m.sink.(syncer); ok {
		if err := s.Sync(); err != nil {
			m.ioErr = err
			return err
		}
	}
	m.pending = 0
	return nil
}

// appendDurableLocked writes one committed record to the durable sink
// (caller holds m.mu). With no sink attached it is a no-op.
// dslint:critical
func (m *Manager) appendDurableLocked(rec Record) error {
	if m.bw == nil {
		return nil
	}
	if m.ioErr != nil {
		return m.walDisabledLocked()
	}
	frame := appendFrame(nil, rec)
	if _, err := m.bw.Write(frame); err != nil {
		m.ioErr = err
		return err
	}
	m.logBytes += int64(len(frame))
	m.pending++
	if m.pending >= m.syncEvery {
		return m.flushSyncLocked()
	}
	return nil
}

// Replay reads committed records from a serialized log, re-populating the
// in-memory WAL and advancing the LSN/transaction counters past the highest
// recovered values. A torn final frame (crash mid-append) terminates the
// replay cleanly; a checksum or decode failure is returned as ErrCorruptLog,
// with the records and state of the valid prefix preserved so crash-recovery
// callers can continue from it. The returned offset is the byte length of
// the valid prefix.
func (m *Manager) Replay(r io.Reader) ([]Record, int64, error) {
	recs, valid, err := readFrames(r)
	m.mu.Lock()
	for _, rec := range recs {
		m.wal = append(m.wal, rec)
		if rec.LSN >= m.nextLSN {
			m.nextLSN = rec.LSN + 1
		}
		if rec.TxnID >= m.nextTxn {
			m.nextTxn = rec.TxnID + 1
		}
	}
	m.mu.Unlock()
	return recs, valid, err
}

// RecoverFileVFS opens (creating if necessary) the log file at path on fsys,
// replays it, truncates any torn or corrupt tail, and attaches the file as
// the durable sink so new commits append after the recovered prefix. The
// manager owns the file until Close and keeps using fsys for later
// compaction renames.
//
// Unlike Replay, detected corruption (a checksum mismatch or undecodable
// frame, e.g. after a partial disk write or media bit flip) is not an error
// here: the first invalid frame marks the end of the log, everything before
// it is the committed prefix, and the tail is truncated away. This is the
// standard crash-recovery reading of an append-only log — each frame's CRC
// covers its payload, so the longest valid prefix is exactly the committed
// history.
func (m *Manager) RecoverFileVFS(fsys vfs.FS, path string) ([]Record, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txn: open WAL %s: %w", path, err)
	}
	recs, valid, err := m.Replay(f)
	if err != nil && !errors.Is(err, ErrCorruptLog) {
		return nil, errors.Join(fmt.Errorf("txn: replay WAL %s: %w", path, err), f.Close())
	}
	if err := f.Truncate(valid); err != nil {
		return nil, errors.Join(fmt.Errorf("txn: truncate WAL %s: %w", path, err), f.Close())
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, errors.Join(fmt.Errorf("txn: seek WAL %s: %w", path, err), f.Close())
	}
	m.AttachLog(f)
	m.mu.Lock()
	m.fs = fsys
	m.logFile = f
	m.logPath = path
	m.logBytes = valid
	m.mu.Unlock()
	return recs, nil
}

// LogSize returns the current byte size of the durable log: recovered prefix
// plus frames appended since. The background checkpointer uses it as its
// trigger threshold.
func (m *Manager) LogSize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logBytes
}

// TruncateThrough discards every committed record with LSN <= lsn from the
// log, keeping the tail. Checkpoints call it with their watermark so records
// committed while the checkpoint was writing (concurrent appends above the
// watermark) survive the compaction.
//
// When a tail survives, the compaction is crash-safe: the tail is written
// and synced to a sibling file, then renamed over the log, so a crash at
// any instant leaves either the full old log or the complete compacted tail
// — never a window where committed records above the watermark exist in
// neither place (an in-place truncate-and-rewrite would have exactly that
// window).
// dslint:critical
func (m *Manager) TruncateThrough(lsn uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ioErr != nil {
		return m.walDisabledLocked()
	}
	kept := make([]Record, 0, len(m.wal))
	for _, rec := range m.wal {
		if rec.LSN > lsn {
			kept = append(kept, rec)
		}
	}
	m.wal = kept
	if m.logFile == nil {
		if m.bw != nil {
			m.bw = bufio.NewWriter(m.sink)
			m.pending = 0
		}
		return nil
	}
	if len(kept) == 0 {
		// Nothing above the watermark: a plain truncate cannot lose
		// anything the checkpoint does not already cover.
		return m.resetLogFileLocked()
	}
	// m.logPath, not m.logFile.Name(): after a previous compaction the
	// handle was opened at the temp path, and renaming onto Name() would
	// quietly move the log away from where recovery reads it.
	path := m.logPath
	tmp := path + ".compact"
	fsys := m.fs
	if fsys == nil {
		fsys = vfs.OS()
	}
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("txn: compact WAL: %w", err)
	}
	// Failures before the rename leave the old log fully intact, so they
	// are reported but do not disable the WAL: nothing durable was touched.
	var bytes int64
	for _, rec := range kept {
		frame := appendFrame(nil, rec)
		if _, err := f.Write(frame); err != nil {
			rmErr := fsys.Remove(tmp)
			_ = rmErr
			return errors.Join(fmt.Errorf("txn: compact WAL: %w", err), f.Close())
		}
		bytes += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		rmErr := fsys.Remove(tmp)
		_ = rmErr
		return errors.Join(fmt.Errorf("txn: sync compacted WAL: %w", err), f.Close())
	}
	if err := fsys.Rename(tmp, path); err != nil {
		rmErr := fsys.Remove(tmp)
		_ = rmErr
		return errors.Join(fmt.Errorf("txn: swap compacted WAL: %w", err), f.Close())
	}
	// Adopt the new file; the old inode dies with its handle.
	old := m.logFile
	m.logFile = f
	m.sink = f
	m.bw = bufio.NewWriter(f)
	m.pending = 0
	m.logBytes = bytes
	return old.Close()
}

// LastLSN returns the LSN of the most recently committed record (0 when
// nothing has committed). Checkpoints store it as a watermark so recovery can
// skip log records the snapshot already covers.
func (m *Manager) LastLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextLSN - 1
}

// AdvanceLSN raises the next LSN past min so future commits never collide
// with records a checkpoint has absorbed.
func (m *Manager) AdvanceLSN(min uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nextLSN <= min {
		m.nextLSN = min + 1
	}
}

// resetLogFileLocked empties the owned log file and re-arms the writer
// (caller holds m.mu and has already pruned m.wal). A failure leaves the
// file in an unknown intermediate state, so it disables the WAL.
func (m *Manager) resetLogFileLocked() error {
	if err := m.logFile.Truncate(0); err != nil {
		m.ioErr = err
		return err
	}
	if _, err := m.logFile.Seek(0, io.SeekStart); err != nil {
		m.ioErr = err
		return err
	}
	m.bw = bufio.NewWriter(m.logFile)
	m.pending = 0
	m.logBytes = 0
	if err := m.logFile.Sync(); err != nil {
		m.ioErr = err
		return err
	}
	return nil
}

// Close flushes and syncs the durable log and closes the underlying file
// when the manager owns one (RecoverFileVFS). A log with no frame appended
// since its last sync is closed without a flush or fsync. Safe to call
// multiple times.
// dslint:critical
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bw == nil {
		return nil
	}
	var err error
	if m.ioErr != nil || m.pending > 0 {
		err = m.flushSyncLocked()
	}
	if m.logFile != nil {
		if cErr := m.logFile.Close(); err == nil {
			err = cErr
		}
		m.logFile = nil
	}
	m.bw = nil
	m.sink = nil
	return err
}
