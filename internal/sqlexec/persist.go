// Page-catalog persistence: the relational half of a durable workbook.
//
// MarshalPages serialises everything the engine needs to reattach to its
// pages after a reopen — the schema catalog, each table's storage metadata
// (tablestore.MarshalMeta, physical page ids), and for the primary-key
// B-tree and every secondary index the entry count plus a fence list: the
// first key and physical page of each leaf. The entries themselves live in
// the leaf pages (btree.Flush), so the blob grows with the number of pages,
// not the number of rows. AttachPages reverses it: stores and indexes are
// opened over the existing pages — no DML replay, no index rebuild, and no
// leaf page is read until a query reaches it. The blob is CRC-framed so a
// corrupted checkpoint fails the open with a clear error.
package sqlexec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/index/btree"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// pagesMagic ends in the catalog format version. Version 2 embedded every
// index entry in the blob; a file written that way is refused rather than
// converted.
var pagesMagic = [8]byte{'D', 'S', 'P', 'G', 'C', 'A', 'T', '3'}

// tableLayout is the layout every catalog entry names. Files from builds
// that also had row and column stores may name "row" or "column"; those
// tables are refused rather than converted.
const tableLayout = "hybrid"

// ErrCorruptPages is returned when a page-catalog blob fails its checksum,
// cannot be decoded, or is in a format this build does not read.
var ErrCorruptPages = fmt.Errorf("sqlexec: corrupt page catalog: %w", dberr.ErrCorrupt)

type pagesWriter struct{ buf []byte }

func (w *pagesWriter) uint(v uint64)     { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *pagesWriter) bytes(b []byte)    { w.uint(uint64(len(b))); w.buf = append(w.buf, b...) }
func (w *pagesWriter) str(s string)      { w.bytes([]byte(s)) }
func (w *pagesWriter) val(v sheet.Value) { w.buf = tablestore.AppendValue(w.buf, v) }

type pagesReader struct {
	buf []byte
	pos int
	err error
}

func (r *pagesReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorruptPages, fmt.Sprintf(format, args...))
	}
}

func (r *pagesReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// count reads an element count no larger than the bytes left, or 0.
func (r *pagesReader) count(what string) int {
	n := r.uint()
	if r.err != nil || n > uint64(len(r.buf)-r.pos) {
		r.fail("implausible %s count %d", what, n)
		return 0
	}
	return int(n)
}

func (r *pagesReader) bytes() []byte {
	n := r.count("byte")
	if r.err != nil {
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *pagesReader) str() string { return string(r.bytes()) }

func (r *pagesReader) val() sheet.Value {
	if r.err != nil {
		return sheet.Empty()
	}
	v, rest, err := tablestore.ReadValue(r.buf[r.pos:])
	if err != nil {
		r.fail("bad value at %d: %v", r.pos, err)
		return sheet.Empty()
	}
	r.pos = len(r.buf) - len(rest)
	return v
}

// tree serialises a flushed B-tree: its entry count and its fence list, leaf
// pages resolved to the physical ids a reopen will find them under.
func (w *pagesWriter) tree(pool *pager.BufferPool, tree *btree.Tree) error {
	w.uint(uint64(tree.Len()))
	fences := tree.Leaves()
	w.uint(uint64(len(fences)))
	for _, f := range fences {
		if f.Page == pager.InvalidPage {
			return fmt.Errorf("sqlexec: index changed while the page catalog was captured: %w", dberr.ErrConflict)
		}
		w.bytes(f.First)
		w.uint(uint64(pool.Resolve(f.Page)))
	}
	return nil
}

// tree attaches a B-tree to its leaf pages from a serialised fence list. The
// fence keys alias the blob, which the tree keeps alive.
func (r *pagesReader) tree(pool *pager.BufferPool) *btree.Tree {
	size := r.uint()
	fences := make([]btree.Fence, r.count("index leaf"))
	for i := range fences {
		fences[i] = btree.Fence{First: r.bytes(), Page: pager.PageID(r.uint())}
	}
	if r.err != nil {
		return nil
	}
	tree, err := btree.Attach(pool, int(size), fences)
	if err != nil {
		r.fail("%v", err)
	}
	return tree
}

// Pool returns the buffer pool the storage managers write through. The
// durability layer drives its checkpoint protocol (FlushAll,
// BeginCheckpoint/CommitCheckpoint) through it.
func (db *Database) Pool() *pager.BufferPool { return db.pool }

// indexTreesLocked lists every B-tree of the database: primary keys and
// secondary indexes.
// dslint:requires(engine)
func (db *Database) indexTreesLocked() []*btree.Tree {
	trees := make([]*btree.Tree, 0, len(db.pkIndex)+len(db.indexByName))
	for _, tree := range db.pkIndex {
		trees = append(trees, tree)
	}
	for _, si := range db.indexByName {
		trees = append(trees, si.tree)
	}
	return trees
}

// flushIndexes writes the index leaves changed since the last call to the
// pool. It takes the engine lock exclusively — Flush restructures the trees
// — for time proportional to those leaves.
func (db *Database) flushIndexes() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tree := range db.indexTreesLocked() {
		if err := tree.Flush(db.pool); err != nil {
			return fmt.Errorf("sqlexec: flush index leaves: %w", err)
		}
	}
	return nil
}

// MarshalPages brings the backend pages up to date — index leaves changed
// since the last call, then every dirty pool page — and serialises the page
// catalog over them: schema, store metadata and index fence lists. Nothing
// is synced; that is the caller's checkpoint protocol.
func (db *Database) MarshalPages() ([]byte, error) {
	if err := db.flushIndexes(); err != nil {
		return nil, err
	}
	if err := db.pool.FlushAll(); err != nil {
		return nil, fmt.Errorf("sqlexec: flush pool: %w", err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	w := &pagesWriter{}
	tables := db.cat.List()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	w.uint(uint64(len(tables)))
	for _, tbl := range tables {
		tk := tkey(tbl.Name)
		s := db.stores[tk]
		w.str(tbl.Name)
		w.str(tableLayout)
		w.uint(uint64(len(tbl.Columns)))
		for _, c := range tbl.Columns {
			w.str(c.Name)
			w.str(c.Type.String())
			var flags byte
			if c.NotNull {
				flags |= 1
			}
			if c.PrimaryKey {
				flags |= 2
			}
			w.uint(uint64(flags))
			w.val(c.Default)
		}
		w.bytes(s.MarshalMeta())
		if err := w.tree(db.pool, db.pkIndex[tk]); err != nil {
			return nil, err
		}
	}
	var indexes []*secIndex
	for _, tbl := range tables {
		indexes = append(indexes, db.secIndexes[tkey(tbl.Name)]...)
	}
	w.uint(uint64(len(indexes)))
	for _, si := range indexes {
		w.str(si.def.Name)
		w.str(si.def.Table)
		var flags byte
		if si.def.Unique {
			flags |= 1
		}
		w.uint(uint64(flags))
		w.uint(uint64(len(si.def.Columns)))
		for _, c := range si.def.Columns {
			w.str(c)
		}
		if err := w.tree(db.pool, si.tree); err != nil {
			return nil, err
		}
	}

	out := make([]byte, 12, 12+len(w.buf))
	copy(out, pagesMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(w.buf))
	return append(out, w.buf...), nil
}

// AttachPages rebuilds catalog, stores and indexes from a MarshalPages blob,
// attaching to the existing backend pages. It replaces the database's entire
// relational state and is intended for recovery on a freshly constructed
// Database (core.OpenFile), before any sessions run.
func (db *Database) AttachPages(blob []byte) error {
	if len(blob) < 12 || [8]byte(blob[0:8]) != pagesMagic {
		return fmt.Errorf("%w: bad magic or unsupported format version", ErrCorruptPages)
	}
	body := blob[12:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[8:12]) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorruptPages)
	}
	r := &pagesReader{buf: body}

	cat := catalog.New()
	stores := make(map[string]tablestore.Store)
	pkIndex := make(map[string]*btree.Tree)
	secIndexes := make(map[string][]*secIndex)
	indexByName := make(map[string]*secIndex)

	nTables := r.count("table")
	for i := 0; i < nTables && r.err == nil; i++ {
		name := r.str()
		layout := r.str()
		ncols := r.count("column")
		cols := make([]catalog.Column, 0, ncols)
		for j := 0; j < ncols && r.err == nil; j++ {
			colName := r.str()
			typ := catalog.ParseType(r.str())
			flags := r.uint()
			def := r.val()
			cols = append(cols, catalog.Column{
				Name:       colName,
				Type:       typ,
				NotNull:    flags&1 != 0,
				PrimaryKey: flags&2 != 0,
				Default:    def,
			})
		}
		meta := r.bytes()
		tree := r.tree(db.pool)
		if r.err != nil {
			break
		}
		if _, err := cat.Create(name, cols); err != nil {
			return fmt.Errorf("%w: table %q: %v", ErrCorruptPages, name, err)
		}
		if layout != tableLayout {
			return fmt.Errorf("%w: table %q has layout %q; only %q tables are supported",
				ErrCorruptPages, name, layout, tableLayout)
		}
		s, err := tablestore.OpenHybridStore(db.pool, meta)
		if err != nil {
			return fmt.Errorf("%w: table %q: %v", ErrCorruptPages, name, err)
		}
		if s.ColumnCount() != len(cols) {
			return fmt.Errorf("%w: table %q store has %d columns, catalog has %d",
				ErrCorruptPages, name, s.ColumnCount(), len(cols))
		}
		stores[tkey(name)] = s
		pkIndex[tkey(name)] = tree
	}
	nIndexes := r.count("index")
	for i := 0; i < nIndexes && r.err == nil; i++ {
		name := r.str()
		table := r.str()
		flags := r.uint()
		ncols := r.count("index column")
		colNames := make([]string, 0, ncols)
		for j := 0; j < ncols && r.err == nil; j++ {
			colNames = append(colNames, r.str())
		}
		tree := r.tree(db.pool)
		if r.err != nil {
			break
		}
		tbl, err := cat.MustGet(table)
		if err != nil {
			return fmt.Errorf("%w: index %q: %v", ErrCorruptPages, name, err)
		}
		si := &secIndex{
			def:  IndexDef{Name: name, Table: tbl.Name, Columns: colNames, Unique: flags&1 != 0},
			cols: make([]int, len(colNames)),
			tree: tree,
		}
		for j, cn := range colNames {
			idx, ok := tbl.ColumnIndex(cn)
			if !ok {
				return fmt.Errorf("%w: index %q references missing column %q", ErrCorruptPages, name, cn)
			}
			si.cols[j] = idx
		}
		indexByName[ikey(name)] = si
		tk := tkey(table)
		secIndexes[tk] = append(secIndexes[tk], si)
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptPages, len(body)-r.pos)
	}

	db.mu.Lock()
	db.cat = cat
	db.stores = stores
	db.pkIndex = pkIndex
	db.secIndexes = secIndexes
	db.indexByName = indexByName
	db.dataVers = make(map[string]uint64)
	db.mu.Unlock()
	db.invalidatePlans()
	return nil
}

// DurablePageIDs returns the physical backend pages the relational state
// currently references — every table's data pages and every flushed index
// leaf — for checkpoint reachability and the pool's protection set.
func (db *Database) DurablePageIDs() []pager.PageID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []pager.PageID
	for _, s := range db.stores {
		out = s.AppendPages(out)
	}
	for _, tree := range db.indexTreesLocked() {
		for _, f := range tree.Leaves() {
			if f.Page != pager.InvalidPage {
				out = append(out, f.Page)
			}
		}
	}
	return db.pool.ResolveAll(out)
}
