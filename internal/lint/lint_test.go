package lint_test

import (
	"go/ast"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/lint"
)

// reportFuncs flags every function declaration, giving the suppression
// machinery something deterministic to filter.
var reportFuncs = &lint.Analyzer{
	Name: "test",
	Doc:  "reports every function declaration",
	Run: func(pass *lint.Pass) error {
		for _, file := range pass.Files() {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Name.Pos(), "func %s", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

func TestSuppressions(t *testing.T) {
	mod, err := lint.LoadDir("testdata/suppress", "example.com/fixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(mod, []*lint.Analyzer{reportFuncs})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		// above and sameLine are suppressed with justification; the rest
		// survive, and the justification-less ignore is itself a finding.
		"test: func plain",
		"test: func wrongAnalyzer",
		"test: func missingJustification",
		"dslint: malformed //lint:ignore: need an analyzer name and a justification (//lint:ignore <analyzer> <why>)",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(got), got, len(want))
	}
	// Run sorts by position; compare as sets keyed by content.
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	for _, g := range got {
		if !wantSet[g] {
			t.Errorf("unexpected diagnostic %q", g)
		}
		delete(wantSet, g)
	}
	for w := range wantSet {
		t.Errorf("missing diagnostic %q", w)
	}
}

func TestAnnotationsPoseOnlyDirectiveLines(t *testing.T) {
	// The annotation grammar documented in package lint's own doc comment
	// (indented examples, prose mentions) must not bind: only comments
	// that START with dslint: are directives. The lint package documents
	// every directive; if prose bound, the package would annotate itself.
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Ann.PkgHas("github.com/dataspread/dataspread/internal/lint", "errdomain") {
		t.Fatal("prose mention of dslint:errdomain in package docs was bound as a directive")
	}
	for _, pkg := range []string{
		"github.com/dataspread/dataspread/internal/catalog",
		"github.com/dataspread/dataspread/internal/sqlexec",
		"github.com/dataspread/dataspread/internal/core",
		"github.com/dataspread/dataspread/internal/txn",
		"github.com/dataspread/dataspread/internal/index/btree",
	} {
		if !mod.Ann.PkgHas(pkg, "errdomain") {
			t.Errorf("%s should carry dslint:errdomain", pkg)
		}
	}
	// Everything that reads or writes workbook pages stays under the
	// fault-injectable vfs: the pager, the WAL, the durability layer and —
	// since its leaves are pages — the B-tree.
	for _, pkg := range []string{
		"github.com/dataspread/dataspread/internal/storage/pager",
		"github.com/dataspread/dataspread/internal/txn",
		"github.com/dataspread/dataspread/internal/core",
		"github.com/dataspread/dataspread/internal/index/btree",
	} {
		if !mod.Ann.PkgHas(pkg, "vfsonly") {
			t.Errorf("%s should carry dslint:vfsonly", pkg)
		}
	}
	if len(mod.Ann.Objects("lock", "engine")) != 1 {
		t.Errorf("want exactly one engine lock annotation, got %d", len(mod.Ann.Objects("lock", "engine")))
	}
}

func TestLoadModuleFindsAllPackages(t *testing.T) {
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"internal/sqlexec", "internal/core", "internal/txn", "cmd/dslint"} {
		full := mod.Path + "/" + p
		if mod.ByPath[full] == nil {
			t.Errorf("package %s not loaded", full)
		}
	}
	// Topological order: every module-internal dependency precedes its
	// importer.
	seen := map[string]bool{}
	for _, pkg := range mod.Pkgs {
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, mod.Path) && !seen[imp] {
				t.Errorf("%s loaded before its dependency %s", pkg.PkgPath, imp)
			}
		}
		seen[pkg.PkgPath] = true
	}
}
