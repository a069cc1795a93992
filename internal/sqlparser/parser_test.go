package sqlparser

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s', 3.5e2 FROM t WHERE x <> 1 -- comment\n AND y != 2 /* block */ OR z || 'a'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "it's") {
		t.Errorf("escaped quote lost: %q", joined)
	}
	if !strings.Contains(joined, "3.5e2") {
		t.Errorf("exponent number lost: %q", joined)
	}
	if !strings.Contains(joined, "<>") || !strings.Contains(joined, "!=") || !strings.Contains(joined, "||") {
		t.Errorf("operators lost: %q", joined)
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexQuotedIdentifierAndErrors(t *testing.T) {
	toks, err := Lex(`SELECT "Weird Name" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == TokIdent && tok.Text == "Weird Name" {
			found = true
		}
	}
	if !found {
		t.Error("quoted identifier not lexed")
	}
	for _, bad := range []string{"'unterminated", `"unterminated`, "/* unterminated", "SELECT #"} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q) should fail", bad)
		}
	}
}

func TestParseSelectBasic(t *testing.T) {
	stmt := mustParse(t, "SELECT id, name AS n, score*2 doubled FROM students WHERE score >= 90 ORDER BY score DESC, name LIMIT 10 OFFSET 5")
	sel := stmt.(*SelectStmt)
	if len(sel.Columns) != 3 {
		t.Fatalf("columns = %d", len(sel.Columns))
	}
	if sel.Columns[1].Alias != "n" || sel.Columns[2].Alias != "doubled" {
		t.Error("aliases wrong")
	}
	tn := sel.From.(*TableName)
	if tn.Name != "students" {
		t.Error("from wrong")
	}
	if sel.Where == nil {
		t.Error("where missing")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("order by wrong")
	}
	if sel.Limit == nil || *sel.Limit != 10 || sel.Offset == nil || *sel.Offset != 5 {
		t.Error("limit/offset wrong")
	}
}

func TestParseSelectStarForms(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM t").(*SelectStmt)
	if !sel.Columns[0].Star {
		t.Error("* not parsed")
	}
	sel = mustParse(t, "SELECT t.* , x FROM t").(*SelectStmt)
	if !sel.Columns[0].Star || sel.Columns[0].TableStar != "t" {
		t.Error("t.* not parsed")
	}
	// The paper's implicit-star form: SELECT FROM t WHERE ...
	sel = mustParse(t, "SELECT FROM actors WHERE actorid = 3").(*SelectStmt)
	if len(sel.Columns) != 1 || !sel.Columns[0].Star {
		t.Error("SELECT FROM should imply *")
	}
}

func TestParseSelectNoFrom(t *testing.T) {
	sel := mustParse(t, "SELECT 1+2*3, 'x'").(*SelectStmt)
	if sel.From != nil || len(sel.Columns) != 2 {
		t.Error("table-less select wrong")
	}
	be := sel.Columns[0].Expr.(*BinaryExpr)
	if be.Op != "+" {
		t.Error("precedence: outermost op should be +")
	}
	if be.Right.(*BinaryExpr).Op != "*" {
		t.Error("precedence: * should bind tighter")
	}
}

func TestParseJoins(t *testing.T) {
	sel := mustParse(t, `SELECT m.title, a.name FROM movies m
		JOIN movies2actors ma ON m.movieid = ma.movieid
		LEFT JOIN actors a ON ma.actorid = a.actorid
		NATURAL JOIN ratings`).(*SelectStmt)
	if len(sel.Joins) != 3 {
		t.Fatalf("joins = %d", len(sel.Joins))
	}
	if sel.Joins[0].Type != JoinInner || sel.Joins[0].On == nil {
		t.Error("inner join wrong")
	}
	if sel.Joins[1].Type != JoinLeft {
		t.Error("left join wrong")
	}
	if !sel.Joins[2].Natural {
		t.Error("natural join wrong")
	}
	// USING and comma joins.
	sel = mustParse(t, "SELECT * FROM a JOIN b USING (id, grp), c").(*SelectStmt)
	if len(sel.Joins) != 2 || len(sel.Joins[0].Using) != 2 || sel.Joins[1].Type != JoinCross {
		t.Error("USING / comma join wrong")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := mustParse(t, `SELECT grp, AVG(score) FROM students GROUP BY grp HAVING COUNT(*) > 5`).(*SelectStmt)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("group by / having wrong")
	}
	fc := sel.Columns[1].Expr.(*FuncCall)
	if fc.Name != "AVG" || len(fc.Args) != 1 {
		t.Error("aggregate call wrong")
	}
	// COUNT(*) and COUNT(DISTINCT x).
	sel = mustParse(t, "SELECT COUNT(*), COUNT(DISTINCT city) FROM t").(*SelectStmt)
	if !sel.Columns[0].Expr.(*FuncCall).Star {
		t.Error("COUNT(*) wrong")
	}
	if !sel.Columns[1].Expr.(*FuncCall).Distinct {
		t.Error("COUNT(DISTINCT) wrong")
	}
}

func TestParseSubSelectAndDistinct(t *testing.T) {
	sel := mustParse(t, "SELECT DISTINCT name FROM (SELECT * FROM students WHERE score > 50) s").(*SelectStmt)
	if !sel.Distinct {
		t.Error("DISTINCT lost")
	}
	sub := sel.From.(*SubSelect)
	if sub.Alias != "s" || sub.Select == nil {
		t.Error("subselect wrong")
	}
}

func TestParseRangeConstructs(t *testing.T) {
	// The paper's Figure 2a query shape.
	sel := mustParse(t, `SELECT title FROM movies NATURAL JOIN movies2actors NATURAL JOIN actors
		WHERE actorid = RANGEVALUE(B1) AND year > RANGEVALUE($B$2)`).(*SelectStmt)
	var rvs []string
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *RangeValueExpr:
			rvs = append(rvs, x.Ref)
		}
	}
	walk(sel.Where)
	if len(rvs) != 2 || rvs[0] != "B1" || rvs[1] != "$B$2" {
		t.Errorf("RANGEVALUE refs = %v", rvs)
	}
	// RANGETABLE in FROM and JOIN, with sheet qualifier and header flag.
	sel = mustParse(t, `SELECT * FROM actors NATURAL JOIN RANGETABLE(A1:D100)`).(*SelectStmt)
	rt := sel.Joins[0].Table.(*RangeTableRef)
	if rt.Ref != "A1:D100" || !rt.HeaderRow {
		t.Errorf("RANGETABLE = %+v", rt)
	}
	sel = mustParse(t, `SELECT * FROM RANGETABLE(Sheet2!A1:C50, FALSE) r WHERE r.col1 > 5`).(*SelectStmt)
	rt = sel.From.(*RangeTableRef)
	if rt.Ref != "Sheet2!A1:C50" || rt.HeaderRow || rt.Alias != "r" {
		t.Errorf("RANGETABLE with options = %+v", rt)
	}
}

func TestParsePredicates(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM t WHERE a IN (1,2,3) AND b NOT IN ('x')
		AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3
		AND e LIKE 'ab%' AND f NOT LIKE '_z'
		AND g IS NULL AND h IS NOT NULL AND NOT (i = 1)`).(*SelectStmt)
	if sel.Where == nil {
		t.Fatal("where missing")
	}
	counts := map[string]int{}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			counts["not"]++
			walk(x.X)
		case *InExpr:
			counts["in"]++
			if x.Not {
				counts["notin"]++
			}
		case *BetweenExpr:
			counts["between"]++
		case *LikeExpr:
			counts["like"]++
		case *IsNullExpr:
			counts["isnull"]++
		}
	}
	walk(sel.Where)
	if counts["in"] != 2 || counts["notin"] != 1 || counts["between"] != 2 ||
		counts["like"] != 2 || counts["isnull"] != 2 || counts["not"] != 1 {
		t.Errorf("predicate counts = %v", counts)
	}
}

func TestParseCaseExpr(t *testing.T) {
	sel := mustParse(t, `SELECT CASE WHEN score >= 90 THEN 'A' WHEN score >= 80 THEN 'B' ELSE 'C' END FROM t`).(*SelectStmt)
	c := sel.Columns[0].Expr.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil || c.Operand != nil {
		t.Errorf("case = %+v", c)
	}
	sel = mustParse(t, `SELECT CASE grp WHEN 'ug' THEN 1 ELSE 2 END FROM t`).(*SelectStmt)
	c = sel.Columns[0].Expr.(*CaseExpr)
	if c.Operand == nil || len(c.Whens) != 1 {
		t.Error("operand case wrong")
	}
	if _, err := Parse("SELECT CASE END FROM t"); err == nil {
		t.Error("CASE without WHEN should fail")
	}
}

func TestParseInsert(t *testing.T) {
	ins := mustParse(t, "INSERT INTO students (id, name, score) VALUES (1, 'alice', 95.5), (2, 'bob', NULL)").(*InsertStmt)
	if ins.Table != "students" || len(ins.Columns) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if _, ok := ins.Rows[1][2].(*NullLiteral); !ok {
		t.Error("NULL literal wrong")
	}
	lit := ins.Rows[0][1].(*Literal)
	if lit.Value.Str != "alice" {
		t.Error("string literal wrong")
	}
	// Insert without column list, and INSERT ... SELECT.
	ins = mustParse(t, "INSERT INTO t VALUES (1, TRUE, -2.5)").(*InsertStmt)
	if len(ins.Columns) != 0 || len(ins.Rows[0]) != 3 {
		t.Error("insert without columns wrong")
	}
	if u, ok := ins.Rows[0][2].(*UnaryExpr); !ok || u.Op != "-" {
		t.Error("negative literal should be unary minus")
	}
	ins = mustParse(t, "INSERT INTO archive SELECT * FROM t WHERE year < 2000").(*InsertStmt)
	if ins.Select == nil {
		t.Error("INSERT ... SELECT wrong")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	upd := mustParse(t, "UPDATE students SET score = score + 5, name = 'x' WHERE id = 3").(*UpdateStmt)
	if upd.Table != "students" || len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update = %+v", upd)
	}
	del := mustParse(t, "DELETE FROM students WHERE score < 50").(*DeleteStmt)
	if del.Table != "students" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	del = mustParse(t, "DELETE FROM students").(*DeleteStmt)
	if del.Where != nil {
		t.Error("unconditional delete should have nil where")
	}
}

func TestParseCreateAlterDrop(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE IF NOT EXISTS students (
		id INT PRIMARY KEY,
		name VARCHAR(80) NOT NULL,
		score NUMERIC DEFAULT 0,
		active BOOLEAN
	)`).(*CreateTableStmt)
	if !ct.IfNotExists || ct.Name != "students" || len(ct.Columns) != 4 {
		t.Fatalf("create = %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || !ct.Columns[1].NotNull || ct.Columns[2].Default == nil {
		t.Error("column constraints wrong")
	}
	if ct.Columns[1].Type != "VARCHAR" {
		t.Errorf("type = %q", ct.Columns[1].Type)
	}
	cas := mustParse(t, "CREATE TABLE top AS SELECT * FROM students WHERE score > 90").(*CreateTableStmt)
	if cas.AsSelect == nil {
		t.Error("CREATE TABLE AS SELECT wrong")
	}
	at := mustParse(t, "ALTER TABLE students ADD COLUMN email TEXT DEFAULT 'none'").(*AlterTableStmt)
	if at.AddColumn == nil || at.AddColumn.Name != "email" || at.AddColumn.Default == nil {
		t.Errorf("alter add = %+v", at)
	}
	at = mustParse(t, "ALTER TABLE students DROP COLUMN email").(*AlterTableStmt)
	if at.DropColumn != "email" {
		t.Error("alter drop wrong")
	}
	at = mustParse(t, "ALTER TABLE students RENAME COLUMN score TO points").(*AlterTableStmt)
	if at.RenameColumn == nil || at.RenameColumn[1] != "points" {
		t.Error("alter rename wrong")
	}
	dt := mustParse(t, "DROP TABLE IF EXISTS students").(*DropTableStmt)
	if !dt.IfExists || dt.Name != "students" {
		t.Error("drop table wrong")
	}
}

func TestParseTransactionStatements(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*BeginStmt); !ok {
		t.Error("BEGIN wrong")
	}
	if _, ok := mustParse(t, "BEGIN TRANSACTION").(*BeginStmt); !ok {
		t.Error("BEGIN TRANSACTION wrong")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitStmt); !ok {
		t.Error("COMMIT wrong")
	}
	if _, ok := mustParse(t, "ROLLBACK;").(*RollbackStmt); !ok {
		t.Error("ROLLBACK wrong")
	}
}

func TestParseMultiStatements(t *testing.T) {
	stmts, texts, err := ParseMulti(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES ('a;b'); -- c;d
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
	want := []string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES ('a;b')", "SELECT * FROM t"}
	if !slices.Equal(texts, want) {
		t.Fatalf("texts = %q, want %q", texts, want)
	}
	for i, text := range texts {
		if stmt, err := Parse(text); err != nil || !reflect.DeepEqual(stmt, stmts[i]) {
			t.Errorf("Parse(%q) = %#v, %v; want the script's statement %d", text, stmt, err, i)
		}
	}
	if _, _, err := ParseMulti("SELECT 1 SELECT 2"); err == nil {
		t.Error("missing semicolon should fail")
	}
	empty, _, err := ParseMulti(" ;; ")
	if err != nil || len(empty) != 0 {
		t.Error("empty script should parse to no statements")
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("a.b + 2 * UPPER(name) || 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*BinaryExpr); !ok {
		t.Error("expected binary expression")
	}
	if _, err := ParseExpr("1 +"); err == nil {
		t.Error("dangling operator should fail")
	}
	if _, err := ParseExpr("1 2"); err == nil {
		t.Error("trailing junk should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB x",
		"SELECT FROM",           // implicit star but missing table
		"SELECT * FROM",         // missing table
		"SELECT * FROM t WHERE", // missing predicate
		"SELECT * FROM t GROUP", // missing BY
		"INSERT students VALUES (1)",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"UPDATE t SET a 1",
		"DELETE t",
		"CREATE TABLE ()",
		"CREATE TABLE t",
		"ALTER TABLE t FROB x",
		"DROP TABLE",
		"SELECT * FROM t NATURAL",
		"SELECT * FROM RANGETABLE()",
		"SELECT RANGEVALUE() FROM t",
		"SELECT * FROM t WHERE a NOT 5",
		"SELECT a FROM t LIMIT x",
		// Row counts must be integers an int can hold: int(float) of these
		// truncates or wraps negative.
		"SELECT a FROM t LIMIT 2.7",
		"SELECT a FROM t LIMIT 9223372036854775807",
		"SELECT a FROM t LIMIT 9223372036854775808",
		"SELECT a FROM t LIMIT 1e30",
		"SELECT a FROM t LIMIT 5 OFFSET 0.5",
		"SELECT a FROM t LIMIT 5 OFFSET 18446744073709551616",
		"SELECT * FROM t; garbage",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestLiteralValues(t *testing.T) {
	sel := mustParse(t, "SELECT 42, 'text', TRUE, FALSE, NULL").(*SelectStmt)
	if sel.Columns[0].Expr.(*Literal).Value.Num != 42 {
		t.Error("number literal wrong")
	}
	if sel.Columns[1].Expr.(*Literal).Value.Kind != sheet.KindString {
		t.Error("string literal wrong")
	}
	if sel.Columns[2].Expr.(*Literal).Value.Bool != true {
		t.Error("TRUE literal wrong")
	}
	if sel.Columns[3].Expr.(*Literal).Value.Bool != false {
		t.Error("FALSE literal wrong")
	}
	if _, ok := sel.Columns[4].Expr.(*NullLiteral); !ok {
		t.Error("NULL literal wrong")
	}
}

func TestParseIndexDDLAndExplain(t *testing.T) {
	stmt, err := Parse("CREATE UNIQUE INDEX IF NOT EXISTS idx_year ON movies (year, title)")
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := stmt.(*CreateIndexStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if !ci.Unique || !ci.IfNotExists || ci.Name != "idx_year" || ci.Table != "movies" ||
		len(ci.Columns) != 2 || ci.Columns[0] != "year" || ci.Columns[1] != "title" {
		t.Fatalf("CreateIndexStmt = %+v", ci)
	}
	stmt, err = Parse("CREATE INDEX i ON t (c)")
	if err != nil {
		t.Fatal(err)
	}
	if ci := stmt.(*CreateIndexStmt); ci.Unique || ci.IfNotExists {
		t.Fatalf("plain CREATE INDEX = %+v", ci)
	}

	stmt, err = Parse("DROP INDEX IF EXISTS idx_year")
	if err != nil {
		t.Fatal(err)
	}
	di, ok := stmt.(*DropIndexStmt)
	if !ok || di.Name != "idx_year" || !di.IfExists {
		t.Fatalf("DropIndexStmt = %+v (%T)", stmt, stmt)
	}

	// DROP TABLE / CREATE TABLE still parse (the lookahead must not break them).
	if _, err := Parse("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}

	stmt, err = Parse("EXPLAIN SELECT * FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Fatalf("EXPLAIN wraps %T", ex.Stmt)
	}
	if _, err := Parse("EXPLAIN UPDATE t SET v = 1 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("CREATE INDEX ON t (c)"); err == nil {
		t.Fatal("nameless CREATE INDEX accepted")
	}
}
