package sqlparser

import (
	"reflect"
	"strings"
	"testing"
)

func TestNamedPlaceholders(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = :lo AND b BETWEEN :lo AND :hi")
	if err != nil {
		t.Fatal(err)
	}
	if got := NumPlaceholders(stmt); got != 2 {
		t.Fatalf("NumPlaceholders = %d, want 2 (repeated :lo shares a slot)", got)
	}
	if got, want := ParamNames(stmt), []string{"lo", "hi"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParamNames = %v, want %v", got, want)
	}
	// Repeated names resolve to the same slot index.
	idx := map[string][]int{}
	Walk(stmt, func(e Expr) {
		if p, ok := e.(*Placeholder); ok {
			idx[p.Name] = append(idx[p.Name], p.Index)
		}
	}, nil)
	if !reflect.DeepEqual(idx["lo"], []int{0, 0}) || !reflect.DeepEqual(idx["hi"], []int{1}) {
		t.Fatalf("slot indexes = %v", idx)
	}
}

func TestNamedPlaceholderCaseFolded(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = :ID AND b = :id")
	if err != nil {
		t.Fatal(err)
	}
	if got := NumPlaceholders(stmt); got != 1 {
		t.Fatalf("NumPlaceholders = %d, want 1 (:ID and :id are the same name)", got)
	}
}

func TestMixedPlaceholderStylesRejected(t *testing.T) {
	for _, sql := range []string{
		"SELECT * FROM t WHERE a = ? AND b = :b",
		"SELECT * FROM t WHERE a = :a AND b = ?",
	} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "mix") {
			t.Errorf("%s: want mixing error, got %v", sql, err)
		}
	}
}

func TestNamedPlaceholdersResetAcrossScriptStatements(t *testing.T) {
	stmts, _, err := ParseMulti("SELECT * FROM t WHERE a = :x; SELECT * FROM t WHERE b = :y")
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		names := ParamNames(stmt)
		if len(names) != 1 || names[0] != []string{"x", "y"}[i] {
			t.Fatalf("stmt %d names = %v", i, names)
		}
	}
}

func TestColonOutsideNamedParamStillRejected(t *testing.T) {
	// A colon not followed immediately by an identifier stays an error in
	// expression position (range syntax lives inside RANGEVALUE arguments).
	if _, err := Parse("SELECT * FROM t WHERE a = : b"); err == nil {
		t.Fatal("want parse error for detached colon")
	}
}

func TestNamedPlaceholderKeywordName(t *testing.T) {
	// Keyword-shaped names are allowed: ':limit' lexes as a keyword token
	// but binds as a parameter name.
	stmt, err := Parse("SELECT * FROM t WHERE a = :limit")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ParamNames(stmt), []string{"limit"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParamNames = %v, want %v", got, want)
	}
}
