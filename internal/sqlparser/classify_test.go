package sqlparser

import "testing"

func TestPlaceholderParsing(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE id = ? AND g IN (?, ?) AND v BETWEEN ? AND ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := NumPlaceholders(stmt); got != 5 {
		t.Fatalf("NumPlaceholders = %d, want 5", got)
	}
	// Indexes are assigned in lexical order.
	var idxs []int
	WalkStatementExprs(stmt, func(e Expr) {
		if p, ok := e.(*Placeholder); ok {
			idxs = append(idxs, p.Index)
		}
	})
	for i, idx := range idxs {
		if idx != i {
			t.Fatalf("placeholder %d has index %d (order %v)", i, idx, idxs)
		}
	}

	// Placeholders count inside every statement kind and nested selects.
	cases := map[string]int{
		"INSERT INTO t VALUES (?, ?, 3)":                                2,
		"UPDATE t SET a = ?, b = 2 WHERE c = ?":                         2,
		"DELETE FROM t WHERE a = ? OR b = ?":                            2,
		"EXPLAIN SELECT a FROM t WHERE id = ?":                          1,
		"SELECT a FROM (SELECT a FROM t WHERE b = ?) s WHERE a > ?":     2,
		"INSERT INTO t SELECT a FROM u WHERE b = ?":                     1,
		"SELECT a FROM t JOIN u ON t.id = u.id AND u.k = ? WHERE a > ?": 2,
		"SELECT a FROM t ORDER BY a LIMIT 5":                            0,
	}
	for sql, want := range cases {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := NumPlaceholders(stmt); got != want {
			t.Errorf("%s: NumPlaceholders = %d, want %d", sql, got, want)
		}
	}
}

func TestParseMultiResetsPlaceholderIndexes(t *testing.T) {
	stmts, _, err := ParseMulti("UPDATE t SET a = ?; DELETE FROM t WHERE b = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		WalkStatementExprs(stmt, func(e Expr) {
			if p, ok := e.(*Placeholder); ok && p.Index != 0 {
				t.Errorf("statement %d placeholder index = %d, want 0", i, p.Index)
			}
		})
	}
}

func TestMutatesClassification(t *testing.T) {
	cases := map[string]bool{
		"SELECT 1":        false,
		"  \n\t SELECT 1": false,
		"-- leading comment\nSELECT a FROM t where b = 1": false,
		"/* block comment */ SELECT 1":                    false,
		"EXPLAIN SELECT a FROM t":                         false,
		"EXPLAIN UPDATE t SET a = 1":                      false, // EXPLAIN never executes
		"-- note\nINSERT INTO t VALUES (1)":               true,
		"UPDATE t SET a = 1":                              true,
		"DELETE FROM t":                                   true,
		"CREATE TABLE t (a INT)":                          true,
		"DROP TABLE t":                                    true,
		"CREATE INDEX i ON t (a)":                         true,
		"BEGIN":                                           true,
		"COMMIT":                                          true,
	}
	for sql, want := range cases {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := Mutates(stmt); got != want {
			t.Errorf("Mutates(%q) = %v, want %v", sql, got, want)
		}
	}
}
