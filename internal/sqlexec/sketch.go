package sqlexec

import (
	"reflect"
	"slices"

	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Provenance sketches (DESIGN.md, "Sheet <-> Database Interface"): the input
// fingerprint that lets a DBSQL binding skip re-running its SELECT after a
// write it cannot observe. A bounded source reads only rows on pages whose
// zone maps admit its pushed bounds, so its rows are unchanged while the
// bounds are the same, every admitted page keeps its version, those bounds
// admit no other page, and the table saw no delete (tombstones rewrite no
// page). A source without
// bounds admits every page; its table's data version stands in. A sketch is
// captured from the plan without executing it; a caller memoizing on it
// captures before executing, so a write landing mid-run shows as a change.

// Sketch is the provenance sketch of one SELECT: one entry per FROM source,
// in FROM order. Sketches of the same statement compare with Same.
type Sketch struct {
	srcs []sourceSketch
}

type sourceSketch struct {
	table   string
	deletes uint64
	// A bounded source (bounds non-empty) compares its pushed bounds and
	// admitted pages; the others the data version.
	bounds  []tablestore.ZoneBound
	version uint64
	pages   []tablestore.PageVersion
}

// CaptureSketch plans sql against the current database — folding RANGEVALUE
// through sheets — and captures its sketch. It returns nil for a statement
// the sketch cannot describe: anything but a parameterless SELECT whose every
// FROM source is a named table (a sub-select or RANGETABLE source
// materialises during planning). Capture pins and releases one snapshot per
// bounded source and reads no row.
func (db *Database) CaptureSketch(sql string, sheets SheetAccessor) *Sketch {
	p, err := db.Prepare(sql)
	if err != nil || p.sel == nil || p.nparams > 0 {
		return nil
	}
	stmt := p.stmt.(*sqlparser.SelectStmt)
	if _, named := stmt.From.(*sqlparser.TableName); stmt.From != nil && !named {
		return nil
	}
	for _, j := range stmt.Joins {
		if _, named := j.Table.(*sqlparser.TableName); !named {
			return nil
		}
	}
	plan, err := db.planInput(stmt, p.sel, &execEnv{sheets: sheets})
	if err != nil {
		return nil
	}
	sk := &Sketch{}
	for _, s := range plan.srcs {
		if s.store == nil {
			continue // the anonymous row of a table-less SELECT
		}
		key := tkey(s.tbl.Name)
		src := sourceSketch{table: key, bounds: s.zoneBounds}
		var snap tablestore.TableSnap
		db.mu.RLock()
		src.deletes, src.version = db.deletes[key], db.dataVers[key]
		if len(src.bounds) > 0 {
			snap = s.store.Snapshot()
		}
		db.mu.RUnlock()
		if snap != nil {
			_, cols := s.scanSchema()
			src.pages = snap.AdmittedPages(cols, s.zoneBounds)
			snap.Release()
		}
		sk.srcs = append(sk.srcs, src)
	}
	return sk
}

// Same reports whether two sketches of one statement prove it reads the same
// rows: per source the same deletes and, for a bounded source, the same
// bounds and admitted pages at the same versions (none changed, none newly
// admitted), for an unbounded one the same data version. Nil is never the
// same.
func (sk *Sketch) Same(o *Sketch) bool {
	if sk == nil || o == nil || len(sk.srcs) != len(o.srcs) {
		return false
	}
	for i := range sk.srcs {
		a, b := &sk.srcs[i], &o.srcs[i]
		if a.table != b.table || a.deletes != b.deletes || !reflect.DeepEqual(a.bounds, b.bounds) {
			return false
		}
		if len(a.bounds) == 0 && a.version != b.version || !slices.Equal(a.pages, b.pages) {
			return false
		}
	}
	return true
}
