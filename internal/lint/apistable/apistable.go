// Package apistable enforces the public-surface import discipline: the
// packages outside internal/ — the embeddable root API, the database/sql
// driver, the CLI commands, and the examples — may only reach into
// internal/ through their blessed entry points. Everything else must flow
// through the public API, so internal packages stay freely refactorable
// and the public surface stays the only supported contract.
//
// Internal packages may import each other freely; the discipline applies
// at the boundary. A blessed entry covers its whole subtree (blessing
// "internal/lint" also blesses "internal/lint/lockcheck").
package apistable

import (
	"go/ast"
	"sort"
	"strings"

	"github.com/dataspread/dataspread/internal/lint"
)

// Blessed is the repo's import table: module-relative importer path (""
// is the module root) to the internal subtrees it may import. Paths
// absent from the table get no internal imports at all.
var Blessed = map[string][]string{
	// The embeddable public API composes the engine from these.
	"": {
		"internal/catalog",
		"internal/core",
		"internal/dberr",
		"internal/sheet",
		"internal/sqlexec",
		"internal/sqlparser",
	},
	// The database/sql driver wraps the root package only.
	"driver": {},
	// The network client shares the wire codec and error taxonomy with the
	// serving tier; everything else goes through the root package.
	"client": {
		"internal/dberr",
		"internal/wire",
	},
	// The daemon binary is the serving tier's entry point.
	"cmd/dataspreadd": {
		"internal/server",
	},
	// The linter binary drives the analysis framework.
	"cmd/dslint": {"internal/lint"},
	// The netclient example boots an in-process dataspreadd so it runs
	// standalone; everything it demonstrates goes through `client`.
	"examples/netclient": {"internal/server"},
}

// Analyzer is the apistable analysis over the repo's Blessed table.
var Analyzer = New(Blessed)

// New builds an apistable analyzer over a custom blessed-import table.
// The fixture suite uses it; the repo uses Analyzer.
func New(blessed map[string][]string) *lint.Analyzer {
	return &lint.Analyzer{
		Name: "apistable",
		Doc:  "packages outside internal/ may import internal packages only through blessed entry points",
		Run: func(pass *lint.Pass) error {
			return run(pass, blessed)
		},
	}
}

func run(pass *lint.Pass, blessed map[string][]string) error {
	rel := pass.Pkg.RelPath
	if rel == "internal" || strings.HasPrefix(rel, "internal/") {
		return nil // internal packages import each other freely
	}
	allowed := blessed[rel]
	modPath := pass.Mod.Path
	for _, file := range pass.Files() {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			target, ok := strings.CutPrefix(path, modPath+"/")
			if !ok {
				continue
			}
			if target != "internal" && !strings.HasPrefix(target, "internal/") {
				continue
			}
			if !importAllowed(allowed, target) {
				pass.Reportf(imp.Pos(), "%s imports %s outside the blessed entry points: route through the public API or extend the apistable.Blessed table deliberately", displayPath(rel), target)
			}
		}
	}
	return nil
}

// importAllowed reports whether target falls inside any blessed subtree.
func importAllowed(allowed []string, target string) bool {
	for _, a := range allowed {
		if target == a || strings.HasPrefix(target, a+"/") {
			return true
		}
	}
	return false
}

func displayPath(rel string) string {
	if rel == "" {
		return "the module root"
	}
	return rel
}

// Entries returns the blessed table as sorted "importer -> target" lines
// for documentation and debugging output.
func Entries(blessed map[string][]string) []string {
	var out []string
	for from, targets := range blessed {
		for _, t := range targets {
			out = append(out, displayPath(from)+" -> "+t)
		}
	}
	sort.Strings(out)
	return out
}

var _ = ast.IsExported
