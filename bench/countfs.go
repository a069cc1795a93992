package main

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// fileCounters is what countFS saw happen to one class of file.
type fileCounters struct {
	Reads, ReadBytes   int64
	Writes, WriteBytes int64
	Syncs, Truncates   int64
	ReadBusy, SyncBusy time.Duration
}

func (c fileCounters) sub(o fileCounters) fileCounters {
	return fileCounters{
		Reads: c.Reads - o.Reads, ReadBytes: c.ReadBytes - o.ReadBytes,
		Writes: c.Writes - o.Writes, WriteBytes: c.WriteBytes - o.WriteBytes,
		Syncs: c.Syncs - o.Syncs, Truncates: c.Truncates - o.Truncates,
		ReadBusy: c.ReadBusy - o.ReadBusy, SyncBusy: c.SyncBusy - o.SyncBusy,
	}
}

// countFS is the filesystem the embedded workloads hand to core.Options.FS.
// It counts what the engine does to the page heap and to the WAL, split by
// file suffix (the lock file is not counted).
//
// In crash mode it can also play the part of a power cut. Killing the process
// would leave the operating system's cache intact, so the harness does the
// discarding itself: every write and truncate first records, against the file
// (not the handle, so Close forgets nothing), how to undo itself; a completed
// Sync forgets the file's records; and crashNow undoes what is left, closes
// the descriptors underneath the engine (which drops the workbook lock too)
// and fails every later call. What remains in each file is exactly the bytes
// a completed Sync covered. Directory operations count as durable and ordered
// once they return: a Rename moves the file with its unsynced records, so
// write → close → rename without a Sync loses the bytes; a removed file stays
// removed. arm(n) sets a fuse: the n-th mutating call from then on crashes
// instead of running, so the cut can land inside a commit or a checkpoint,
// not only between them.
type countFS struct {
	inner fsys
	crash bool

	// io serialises mutating calls with crashNow in crash mode, so no write
	// can slip between the undo pass and the descriptors closing.
	io sync.Mutex

	fuse    int   // guarded by io; 0 = not armed
	dropped int64 // guarded by io: bytes the crash discarded

	mu        sync.Mutex // counters, dead, open, files
	heap, wal fileCounters
	dead      bool
	open      map[*countFile]struct{}
	files     map[string]*fileNode // the file each path names now
}

// fileNode is one file, however many handles or names it has had.
type fileNode struct {
	path string    // guarded by fs.mu (Rename retargets it); kept after the file is unlinked
	undo []undoRec // crash mode only, guarded by fs.io; cleared by Sync
}

var errCrashed = errors.New("bench: filesystem crashed")

func newCountFS(crashMode bool) *countFS {
	return &countFS{inner: osFS(), crash: crashMode, open: make(map[*countFile]struct{}), files: make(map[string]*fileNode)}
}

func (fs *countFS) snapshot() (heap, wal fileCounters) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.heap, fs.wal
}

// count applies fn to the bucket the file's path counts into, if any.
func (fs *countFS) count(f *countFile, fn func(c *fileCounters)) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	path := f.node.path
	switch {
	case strings.HasSuffix(path, ".wal"), strings.HasSuffix(path, ".wal.compact"):
		fn(&fs.wal)
	case strings.HasSuffix(path, ".lock"):
	default:
		fn(&fs.heap)
	}
}

// begin opens a mutating call: in crash mode it takes the io lock (the
// returned func releases it) and refuses once crashed.
func (fs *countFS) begin() (end func(), err error) {
	if !fs.crash {
		return func() {}, nil
	}
	fs.io.Lock()
	fs.mu.Lock()
	dead := fs.dead
	fs.mu.Unlock()
	if !dead && fs.fuse > 0 {
		if fs.fuse--; fs.fuse == 0 {
			fs.crashLocked()
			dead = true
		}
	}
	if dead {
		fs.io.Unlock()
		return nil, errCrashed
	}
	return fs.io.Unlock, nil
}

// arm makes the n-th mutating call from now crash the filesystem.
func (fs *countFS) arm(n int) {
	fs.io.Lock()
	fs.fuse = n
	fs.io.Unlock()
}

func (fs *countFS) OpenFile(path string, flag int, perm os.FileMode) (fsFile, error) {
	end, err := fs.begin()
	if err != nil {
		return nil, err
	}
	defer end()
	// In crash mode O_TRUNC is applied below, as a truncate that can be undone.
	trunc := fs.crash && flag&os.O_TRUNC != 0
	if trunc {
		flag &^= os.O_TRUNC
	}
	f, err := fs.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	node := fs.files[path]
	if node == nil {
		node = &fileNode{path: path}
		fs.files[path] = node
	}
	cf := &countFile{fsFile: f, fs: fs, node: node}
	fs.open[cf] = struct{}{}
	fs.mu.Unlock()
	if trunc {
		if err := cf.remember(0, -1); err == nil {
			err = f.Truncate(0)
		}
		if err != nil {
			return nil, errors.Join(err, cf.closeLocked())
		}
	}
	return cf, nil
}

func (fs *countFS) Rename(oldpath, newpath string) error {
	end, err := fs.begin()
	if err != nil {
		return err
	}
	defer end()
	if err := fs.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	// The file newpath named until now is unlinked; its node lives on with
	// its handles. The moved file takes its unsynced records along.
	if node := fs.files[oldpath]; node != nil {
		node.path = newpath
		fs.files[newpath] = node
		delete(fs.files, oldpath)
	} else {
		delete(fs.files, newpath)
	}
	if strings.HasSuffix(newpath, ".wal") {
		fs.wal.Truncates++ // a compacted log replaced the old one
	}
	fs.mu.Unlock()
	return nil
}

func (fs *countFS) Remove(path string) error {
	end, err := fs.begin()
	if err != nil {
		return err
	}
	defer end()
	if err := fs.inner.Remove(path); err != nil {
		return err
	}
	fs.mu.Lock()
	delete(fs.files, path)
	fs.mu.Unlock()
	return nil
}

// crashNow cuts the power unless the fuse already did, and returns how many
// bytes were discarded: those no completed Sync covered. Crash mode only.
func (fs *countFS) crashNow() int64 {
	fs.io.Lock()
	defer fs.io.Unlock()
	fs.mu.Lock()
	dead := fs.dead
	fs.mu.Unlock()
	if !dead {
		fs.crashLocked()
	}
	return fs.dropped
}

// crashLocked undoes every unsynced change of every file that still has a
// name, newest first and whether or not a handle is open on it, closes the
// descriptors and kills the filesystem. Caller holds fs.io. Errors are
// ignored on purpose: the files are checked by reopening them.
func (fs *countFS) crashLocked() {
	fs.mu.Lock()
	fs.dead = true
	open, files := fs.open, fs.files
	fs.open, fs.files = make(map[*countFile]struct{}), make(map[string]*fileNode)
	fs.mu.Unlock()
	for path, node := range files {
		if len(node.undo) == 0 {
			continue
		}
		f, err := fs.inner.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			continue
		}
		for i := len(node.undo) - 1; i >= 0; i-- {
			u := node.undo[i]
			if st, err := f.Stat(); err == nil && st.Size() > u.size {
				fs.dropped += st.Size() - u.size
			}
			if len(u.old) > 0 {
				fs.dropped += int64(len(u.old))
				_, _ = f.WriteAt(u.old, u.off) //lint:ignore errwrap a crash has no caller to report to; the reopen verifies the bytes
			}
			_ = f.Truncate(u.size) //lint:ignore errwrap as above
		}
		node.undo = nil
		_ = f.Close() //lint:ignore errwrap as above
	}
	for cf := range open {
		_ = cf.fsFile.Close() //lint:ignore errwrap as above
	}
}

// undoRec restores one unsynced change: the bytes that were at off, and the
// file size before the change.
type undoRec struct {
	off  int64
	old  []byte
	size int64
}

type countFile struct {
	fsFile
	fs   *countFS
	node *fileNode
}

// remember records how to undo a write of n bytes at off or, with n < 0, a
// truncate to off. Crash mode only; caller holds fs.io.
func (f *countFile) remember(off int64, n int) error {
	if !f.fs.crash {
		return nil
	}
	st, err := f.fsFile.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	end := off + int64(n)
	if n < 0 || end > size {
		end = size // only bytes that exist can be overwritten or cut off
	}
	var old []byte
	if end > off {
		old = make([]byte, end-off)
		if _, err := f.fsFile.ReadAt(old, off); err != nil && err != io.EOF {
			return err
		}
	}
	f.node.undo = append(f.node.undo, undoRec{off: off, old: old, size: size})
	return nil
}

func (f *countFile) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := f.fsFile.Read(p)
	f.countRead(n, time.Since(t))
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.fsFile.ReadAt(p, off)
	f.countRead(n, time.Since(t))
	return n, err
}

func (f *countFile) countRead(n int, busy time.Duration) {
	f.fs.count(f, func(c *fileCounters) {
		c.Reads++
		c.ReadBytes += int64(n)
		c.ReadBusy += busy
	})
}

func (f *countFile) countWrite(n int) {
	f.fs.count(f, func(c *fileCounters) {
		c.Writes++
		c.WriteBytes += int64(n)
	})
}

func (f *countFile) Write(p []byte) (int, error) {
	end, err := f.fs.begin()
	if err != nil {
		return 0, err
	}
	defer end()
	if f.fs.crash {
		off, err := f.fsFile.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, err
		}
		if err := f.remember(off, len(p)); err != nil {
			return 0, err
		}
	}
	n, err := f.fsFile.Write(p)
	f.countWrite(n)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	end, err := f.fs.begin()
	if err != nil {
		return 0, err
	}
	defer end()
	if err := f.remember(off, len(p)); err != nil {
		return 0, err
	}
	n, err := f.fsFile.WriteAt(p, off)
	f.countWrite(n)
	return n, err
}

func (f *countFile) Truncate(size int64) error {
	end, err := f.fs.begin()
	if err != nil {
		return err
	}
	defer end()
	if err := f.remember(size, -1); err != nil {
		return err
	}
	f.fs.count(f, func(c *fileCounters) { c.Truncates++ })
	return f.fsFile.Truncate(size)
}

func (f *countFile) Sync() error {
	end, err := f.fs.begin()
	if err != nil {
		return err
	}
	defer end()
	t := time.Now()
	if err := f.fsFile.Sync(); err != nil {
		return err
	}
	busy := time.Since(t)
	if f.fs.crash {
		f.node.undo = nil // fsync covers the file, whichever handle wrote
	}
	f.fs.count(f, func(c *fileCounters) {
		c.Syncs++
		c.SyncBusy += busy
	})
	return nil
}

func (f *countFile) Close() error {
	end, err := f.fs.begin()
	if err != nil {
		return err
	}
	defer end()
	return f.closeLocked()
}

// closeLocked closes the handle; the file's unsynced records stay with the
// file. Caller is inside begin().
func (f *countFile) closeLocked() error {
	f.fs.mu.Lock()
	delete(f.fs.open, f)
	f.fs.mu.Unlock()
	return f.fsFile.Close()
}
