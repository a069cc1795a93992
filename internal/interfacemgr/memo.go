package interfacemgr

import (
	"strings"

	"github.com/dataspread/dataspread/internal/sqlexec"
)

// Result-level memoization for DBSQL bindings. A query binding's output is a
// pure function of the database schema, the rows of every table it reads
// that its predicates admit, and the sheet cells its positional constructs
// reference. A refresh first captures a fingerprint of those inputs and
// skips re-execution — and re-spilling — entirely when it matches the
// fingerprint of the previous successful refresh.
//
// The data part of the fingerprint is the statement's provenance sketch
// (sqlexec.Sketch): per FROM source, the pages its pushed bounds admit with
// their versions, and the table's delete count. An UPDATE of a row the
// binding's bounds exclude rewrites a page outside the sketch and leaves the
// memo valid. Statements the sketch cannot describe — sub-select or
// RANGETABLE sources — fall back to one data version per table read.

// queryFingerprint is the captured input state of one query execution.
// tables holds the data version of every table the SQL reads: the memo
// compares it only when there is no sketch, and a refresh memoizes only
// when no table changed while its query ran.
type queryFingerprint struct {
	schemaEpoch uint64
	tables      map[string]uint64
	sheets      map[string]uint64
	sketch      *sqlexec.Sketch
}

func (f *queryFingerprint) equal(o *queryFingerprint) bool {
	if f == nil || o == nil || f.schemaEpoch != o.schemaEpoch || !sameVersions(f.sheets, o.sheets) {
		return false
	}
	if f.sketch != nil || o.sketch != nil {
		return f.sketch.Same(o.sketch)
	}
	return sameVersions(f.tables, o.tables)
}

func sameVersions(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		if ov, ok := b[name]; !ok || ov != v {
			return false
		}
	}
	return true
}

// fingerprintQuery captures the current versions of every input of a query
// binding's SELECT — sheet versions before the sketch, whose bounds may read
// those sheets. ok is false when a referenced sheet does not exist.
func (m *Manager) fingerprintQuery(b *Binding) (fp *queryFingerprint, ok bool) {
	fp = &queryFingerprint{
		schemaEpoch: m.db.SchemaEpoch(),
		tables:      m.tableVersions(b),
		sheets:      make(map[string]uint64, len(b.refs)),
	}
	for _, ref := range b.refs {
		sh, ok := m.book.Sheet(m.refSheet(ref.Sheet))
		if !ok {
			return nil, false
		}
		fp.sheets[sh.Name()] = sh.Version()
	}
	fp.sketch = m.db.CaptureSketch(b.query, m.sheets)
	return fp, true
}

func (m *Manager) tableVersions(b *Binding) map[string]uint64 {
	vers := make(map[string]uint64, len(b.tables))
	for _, name := range b.tables {
		vers[name] = m.db.TableDataVersion(name)
	}
	return vers
}

// refSheet names the sheet an unqualified reference resolves against: the
// first sheet of the workbook, as RANGEVALUE/RANGETABLE resolve.
func (m *Manager) refSheet(name string) string {
	if name == "" {
		if names := m.book.SheetNames(); len(names) > 0 {
			return names[0]
		}
	}
	return name
}

// sheetsSettled reports whether every sheet a fingerprint records still has
// its captured version but for the refresh's own spill, which bumped its
// target sheet once per Clear or SetCellBatch call — spillCalls in all — and
// then advances the target's entry past the spill. A sheet written by anyone
// else after capture — a RANGEVALUE cell edited while the query ran — fails
// it: the result may predate that write, so it must not be memoized.
func (m *Manager) sheetsSettled(fp *queryFingerprint, target string, spillCalls uint64) bool {
	for name, v := range fp.sheets {
		if name == target {
			v += spillCalls
		}
		sh, ok := m.book.Sheet(name)
		if !ok || sh.Version() != v {
			return false
		}
		fp.sheets[name] = v
	}
	return true
}

// spillOverlapsInputs reports whether the binding's materialised extent
// intersects any sheet range its query reads. Such a binding rewrites its
// own inputs: memoizing it would pin the pre-overwrite result, so it is
// never memoized (the pre-memo behavior — re-execute until convergence —
// is preserved).
func (m *Manager) spillOverlapsInputs(b *Binding) bool {
	if !b.hasExt {
		return false
	}
	for _, ref := range b.refs {
		name := m.refSheet(ref.Sheet)
		if strings.EqualFold(name, b.SheetName) && b.extent.Intersects(ref.Range.Normalize()) {
			return true
		}
	}
	return false
}
