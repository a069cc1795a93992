package sqlexec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// fakeSheets is a SheetAccessor backed by plain maps, standing in for the
// spreadsheet front-end in engine-level tests.
type fakeSheets struct {
	cells  map[string]sheet.Value
	tables map[string]struct {
		cols []string
		rows [][]sheet.Value
	}
}

func newFakeSheets() *fakeSheets {
	return &fakeSheets{
		cells: map[string]sheet.Value{},
		tables: map[string]struct {
			cols []string
			rows [][]sheet.Value
		}{},
	}
}

func (f *fakeSheets) RangeValue(ref string) (sheet.Value, error) {
	v, ok := f.cells[strings.ToUpper(ref)]
	if !ok {
		return sheet.Empty(), nil
	}
	return v, nil
}

func (f *fakeSheets) RangeTable(ref string, headerRow bool) ([]string, [][]sheet.Value, error) {
	t, ok := f.tables[strings.ToUpper(ref)]
	if !ok {
		return nil, nil, fmt.Errorf("no such range %q", ref)
	}
	return t.cols, t.rows, nil
}

func newTestDB(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := NewDatabase(Config{})
	s := db.NewSession(newFakeSheets())
	return db, s
}

func mustExec(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func loadStudents(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE students (id INT PRIMARY KEY, name TEXT, grp TEXT, score NUMERIC)`)
	rows := []string{
		"(1, 'alice', 'ug', 95)",
		"(2, 'bob', 'ug', 72)",
		"(3, 'carol', 'ms', 88)",
		"(4, 'dave', 'ms', 61)",
		"(5, 'erin', 'phd', 99)",
		"(6, 'frank', 'phd', 45)",
	}
	mustExec(t, s, "INSERT INTO students VALUES "+strings.Join(rows, ", "))
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	res := mustExec(t, s, "SELECT id, name FROM students WHERE score >= 90 ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Str != "alice" || res.Rows[1][1].Str != "erin" {
		t.Errorf("content = %v", res.Rows)
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectExpressionsAndAliases(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	res := mustExec(t, s, "SELECT name, score * 2 AS doubled, UPPER(grp) FROM students WHERE id = 1")
	if res.Columns[1] != "doubled" || res.Columns[2] != "upper" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].Num != 190 || res.Rows[0][2].Str != "UG" {
		t.Errorf("row = %v", res.Rows[0])
	}
	// Table-less select.
	res = mustExec(t, s, "SELECT 1+2*3, 'a' || 'b', LENGTH('héllo'), COALESCE(NULL, 7)")
	if res.Rows[0][0].Num != 7 || res.Rows[0][1].Str != "ab" || res.Rows[0][2].Num != 5 || res.Rows[0][3].Num != 7 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestSelectPredicates(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM students WHERE grp IN ('ug', 'ms')", 4},
		{"SELECT * FROM students WHERE grp NOT IN ('ug', 'ms')", 2},
		{"SELECT * FROM students WHERE score BETWEEN 60 AND 90", 3},
		{"SELECT * FROM students WHERE name LIKE '%a%'", 4},
		{"SELECT * FROM students WHERE name LIKE '_ob'", 1},
		{"SELECT * FROM students WHERE NOT (score > 50)", 1},
		{"SELECT * FROM students WHERE score > 80 AND grp = 'phd'", 1},
		{"SELECT * FROM students WHERE score > 95 OR grp = 'ug'", 3},
		{"SELECT * FROM students WHERE name IS NULL", 0},
		{"SELECT * FROM students WHERE name IS NOT NULL", 6},
		{"SELECT * FROM students WHERE CASE WHEN score >= 90 THEN TRUE ELSE FALSE END", 2},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	res := mustExec(t, s, "SELECT COUNT(*), SUM(score), AVG(score), MIN(score), MAX(score) FROM students")
	row := res.Rows[0]
	if row[0].Num != 6 || row[1].Num != 460 || row[3].Num != 45 || row[4].Num != 99 {
		t.Errorf("aggregates = %v", row)
	}
	if row[2].Num < 76 || row[2].Num > 77 {
		t.Errorf("avg = %v", row[2])
	}
	// The paper's motivating example: average grade by demographic group.
	res = mustExec(t, s, "SELECT grp, AVG(score) AS avg_score, COUNT(*) FROM students GROUP BY grp ORDER BY grp")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str != "ms" || res.Rows[0][1].Num != 74.5 {
		t.Errorf("ms group = %v", res.Rows[0])
	}
	if res.Rows[2][0].Str != "ug" || res.Rows[2][2].Num != 2 {
		t.Errorf("ug group = %v", res.Rows[2])
	}
	// HAVING.
	res = mustExec(t, s, "SELECT grp FROM students GROUP BY grp HAVING AVG(score) > 80 ORDER BY grp")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "ug" {
		t.Errorf("having result = %v", res.Rows)
	}
	// COUNT DISTINCT and empty-table aggregates.
	res = mustExec(t, s, "SELECT COUNT(DISTINCT grp) FROM students")
	if res.Rows[0][0].Num != 3 {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
	mustExec(t, s, "CREATE TABLE empty_t (x INT)")
	res = mustExec(t, s, "SELECT COUNT(*), SUM(x) FROM empty_t")
	if res.Rows[0][0].Num != 0 || !res.Rows[0][1].IsEmpty() {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestOrderByLimitOffsetDistinct(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	res := mustExec(t, s, "SELECT name FROM students ORDER BY score DESC LIMIT 2")
	if res.Rows[0][0].Str != "erin" || res.Rows[1][0].Str != "alice" {
		t.Errorf("order desc = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT name FROM students ORDER BY score ASC LIMIT 2 OFFSET 1")
	if res.Rows[0][0].Str != "dave" {
		t.Errorf("offset = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT DISTINCT grp FROM students ORDER BY grp")
	if len(res.Rows) != 3 || res.Rows[0][0].Str != "ms" {
		t.Errorf("distinct = %v", res.Rows)
	}
	// ORDER BY output alias and position.
	res = mustExec(t, s, "SELECT name, score*2 AS d FROM students ORDER BY d DESC LIMIT 1")
	if res.Rows[0][0].Str != "erin" {
		t.Errorf("order by alias = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT name, score FROM students ORDER BY 2 LIMIT 1")
	if res.Rows[0][0].Str != "frank" {
		t.Errorf("order by position = %v", res.Rows)
	}
	// Row counts int cannot hold are refused (they used to wrap negative and
	// panic the slice); the largest that fits saturates OFFSET+LIMIT.
	for _, bad := range []string{"LIMIT 9223372036854775807", "LIMIT 1e30", "LIMIT 2.7", "LIMIT 1 OFFSET 9223372036854775808"} {
		if _, err := s.Query("SELECT name FROM students ORDER BY score " + bad); !errors.Is(err, dberr.ErrSyntax) {
			t.Errorf("%s: err = %v, want a syntax error", bad, err)
		}
	}
	all := mustExec(t, s, "SELECT name FROM students ORDER BY score")
	res = mustExec(t, s, "SELECT name FROM students ORDER BY score LIMIT 9223372036854774784 OFFSET 2")
	if len(res.Rows) != len(all.Rows)-2 || res.Rows[0][0] != all.Rows[2][0] {
		t.Errorf("huge LIMIT after OFFSET 2 = %v, want the tail of %v", res.Rows, all.Rows)
	}
}

func TestJoins(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	mustExec(t, s, "CREATE TABLE demo (id INT PRIMARY KEY, city TEXT)")
	mustExec(t, s, "INSERT INTO demo VALUES (1, 'urbana'), (2, 'champaign'), (3, 'urbana'), (9, 'nowhere')")

	// Inner join with ON.
	res := mustExec(t, s, `SELECT s.name, d.city FROM students s JOIN demo d ON s.id = d.id ORDER BY s.id`)
	if len(res.Rows) != 3 || res.Rows[0][1].Str != "urbana" {
		t.Errorf("inner join = %v", res.Rows)
	}
	// Left join pads with NULL.
	res = mustExec(t, s, `SELECT s.name, d.city FROM students s LEFT JOIN demo d ON s.id = d.id ORDER BY s.id`)
	if len(res.Rows) != 6 {
		t.Fatalf("left join rows = %d", len(res.Rows))
	}
	if !res.Rows[5][1].IsEmpty() {
		t.Errorf("unmatched left row should have NULL city: %v", res.Rows[5])
	}
	// Natural join (shared column "id").
	res = mustExec(t, s, `SELECT name, city FROM students NATURAL JOIN demo ORDER BY name`)
	if len(res.Rows) != 3 {
		t.Errorf("natural join rows = %d", len(res.Rows))
	}
	// USING.
	res = mustExec(t, s, `SELECT name, city FROM students JOIN demo USING (id) WHERE city = 'urbana'`)
	if len(res.Rows) != 2 {
		t.Errorf("using join rows = %d", len(res.Rows))
	}
	// Cross join.
	res = mustExec(t, s, `SELECT * FROM students, demo`)
	if len(res.Rows) != 24 {
		t.Errorf("cross join rows = %d", len(res.Rows))
	}
	// Join + group by: average score per city.
	res = mustExec(t, s, `SELECT d.city, AVG(s.score) FROM students s JOIN demo d ON s.id = d.id GROUP BY d.city ORDER BY d.city`)
	if len(res.Rows) != 2 || res.Rows[1][0].Str != "urbana" {
		t.Errorf("join+group = %v", res.Rows)
	}
	// Non-equi nested-loop join.
	res = mustExec(t, s, `SELECT COUNT(*) FROM students s JOIN demo d ON s.id < d.id`)
	if res.Rows[0][0].Num != 9 {
		t.Errorf("non-equi join count = %v", res.Rows[0][0])
	}
}

func TestSubqueryInFrom(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	res := mustExec(t, s, `SELECT grp, COUNT(*) FROM (SELECT * FROM students WHERE score > 60) top GROUP BY grp ORDER BY grp`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[2][1].Num != 2 { // ug: alice, bob
		t.Errorf("subquery group = %v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	res := mustExec(t, s, "UPDATE students SET score = score + 10 WHERE grp = 'ug'")
	if res.Affected != 2 {
		t.Errorf("affected = %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT score FROM students WHERE id = 2")
	if res.Rows[0][0].Num != 82 {
		t.Errorf("score = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "DELETE FROM students WHERE score < 60")
	if res.Affected != 1 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM students")
	if res.Rows[0][0].Num != 5 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// Unconditional delete.
	res = mustExec(t, s, "DELETE FROM students")
	if res.Affected != 5 {
		t.Errorf("unconditional delete affected = %d", res.Affected)
	}
}

func TestInsertVariants(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT, b TEXT DEFAULT 'none', c NUMERIC)")
	// Partial column list with default fill.
	mustExec(t, s, "INSERT INTO t (a) VALUES (1)")
	res := mustExec(t, s, "SELECT a, b, c FROM t")
	if res.Rows[0][1].Str != "none" || !res.Rows[0][2].IsEmpty() {
		t.Errorf("defaults = %v", res.Rows[0])
	}
	// INSERT ... SELECT.
	mustExec(t, s, "INSERT INTO t (a, c) VALUES (2, 5), (3, 6)")
	mustExec(t, s, "CREATE TABLE t2 (a INT, b TEXT, c NUMERIC)")
	res = mustExec(t, s, "INSERT INTO t2 SELECT * FROM t WHERE a > 1")
	if res.Affected != 2 {
		t.Errorf("insert-select affected = %d", res.Affected)
	}
	// Errors.
	if _, err := s.Query("INSERT INTO t (a, zzz) VALUES (1, 2)"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := s.Query("INSERT INTO t (a) VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := s.Query("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("missing table should fail")
	}
}

func TestPrimaryKeyAndNotNullConstraints(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE u (id INT PRIMARY KEY, name TEXT NOT NULL)")
	mustExec(t, s, "INSERT INTO u VALUES (1, 'a')")
	if _, err := s.Query("INSERT INTO u VALUES (1, 'b')"); err == nil {
		t.Error("duplicate primary key should fail")
	}
	if _, err := s.Query("INSERT INTO u VALUES (2, NULL)"); err == nil {
		t.Error("NOT NULL violation should fail")
	}
	// Updating a key to a duplicate fails; to a fresh value succeeds.
	mustExec(t, s, "INSERT INTO u VALUES (2, 'b')")
	if _, err := s.Query("UPDATE u SET id = 1 WHERE id = 2"); err == nil {
		t.Error("update to duplicate key should fail")
	}
	mustExec(t, s, "UPDATE u SET id = 5 WHERE id = 2")
	res := mustExec(t, s, "SELECT name FROM u WHERE id = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "b" {
		t.Errorf("key update = %v", res.Rows)
	}
	// Type coercion: a numeric string goes into an INT column.
	mustExec(t, s, "INSERT INTO u VALUES ('7', 'c')")
	res = mustExec(t, s, "SELECT id FROM u WHERE name = 'c'")
	if res.Rows[0][0].Kind != sheet.KindNumber {
		t.Error("numeric coercion on insert failed")
	}
	if _, err := s.Query("INSERT INTO u VALUES ('abc', 'd')"); err == nil {
		t.Error("non-numeric value in INT column should fail")
	}
}

func TestSchemaEvolutionSQL(t *testing.T) {
	db, s := newTestDB(t)
	loadStudents(t, s)
	mustExec(t, s, "ALTER TABLE students ADD COLUMN email TEXT DEFAULT 'none'")
	res := mustExec(t, s, "SELECT email FROM students WHERE id = 1")
	if res.Rows[0][0].Str != "none" {
		t.Errorf("backfilled default = %v", res.Rows[0][0])
	}
	mustExec(t, s, "UPDATE students SET email = 'alice@uiuc.edu' WHERE id = 1")
	mustExec(t, s, "ALTER TABLE students RENAME COLUMN email TO contact")
	res = mustExec(t, s, "SELECT contact FROM students WHERE id = 1")
	if res.Rows[0][0].Str != "alice@uiuc.edu" {
		t.Errorf("renamed column = %v", res.Rows[0][0])
	}
	mustExec(t, s, "ALTER TABLE students DROP COLUMN contact")
	if _, err := s.Query("SELECT contact FROM students"); err == nil {
		t.Error("dropped column should be unknown")
	}
	tbl, err := db.Table("students")
	if err != nil || len(tbl.Columns) != 4 {
		t.Errorf("catalog columns = %+v", tbl)
	}
	// CREATE TABLE AS SELECT.
	mustExec(t, s, "CREATE TABLE honor_roll AS SELECT name, score FROM students WHERE score >= 90")
	res = mustExec(t, s, "SELECT COUNT(*) FROM honor_roll")
	if res.Rows[0][0].Num != 2 {
		t.Errorf("CTAS count = %v", res.Rows[0][0])
	}
	// DROP TABLE.
	mustExec(t, s, "DROP TABLE honor_roll")
	if _, err := s.Query("SELECT * FROM honor_roll"); err == nil {
		t.Error("dropped table should be gone")
	}
	mustExec(t, s, "DROP TABLE IF EXISTS honor_roll")
	if _, err := s.Query("DROP TABLE honor_roll"); err == nil {
		t.Error("dropping a missing table without IF EXISTS should fail")
	}
	mustExec(t, s, "CREATE TABLE IF NOT EXISTS students (id INT)")
}

func TestTransactions(t *testing.T) {
	_, s := newTestDB(t)
	loadStudents(t, s)
	// Rollback restores data changes and schema changes together.
	mustExec(t, s, "BEGIN")
	if !s.InTransaction() {
		t.Fatal("should be in a transaction")
	}
	mustExec(t, s, "INSERT INTO students VALUES (7, 'gary', 'ug', 50)")
	mustExec(t, s, "UPDATE students SET score = 0 WHERE id = 1")
	mustExec(t, s, "ALTER TABLE students ADD COLUMN flag BOOLEAN DEFAULT TRUE")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT COUNT(*) FROM students")
	if res.Rows[0][0].Num != 6 {
		t.Errorf("rollback should remove the insert: %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT score FROM students WHERE id = 1")
	if res.Rows[0][0].Num != 95 {
		t.Errorf("rollback should restore the update: %v", res.Rows[0][0])
	}
	if _, err := s.Query("SELECT flag FROM students"); err == nil {
		t.Error("rollback should undo ALTER TABLE ADD COLUMN")
	}
	// Commit keeps changes.
	mustExec(t, s, "BEGIN TRANSACTION")
	mustExec(t, s, "DELETE FROM students WHERE id = 6")
	mustExec(t, s, "COMMIT")
	res = mustExec(t, s, "SELECT COUNT(*) FROM students")
	if res.Rows[0][0].Num != 5 {
		t.Errorf("commit lost the delete: %v", res.Rows[0][0])
	}
	// Transaction control errors.
	if _, err := s.Query("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN should fail")
	}
	if _, err := s.Query("ROLLBACK"); err == nil {
		t.Error("ROLLBACK without BEGIN should fail")
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Query("BEGIN"); err == nil {
		t.Error("nested BEGIN should fail")
	}
	mustExec(t, s, "COMMIT")
}

func TestRangeValueAndRangeTable(t *testing.T) {
	db, _ := newTestDB(t)
	sheets := newFakeSheets()
	s := db.NewSession(sheets)
	loadStudentsInto(t, s)

	sheets.cells["B1"] = sheet.Number(3)
	sheets.cells["SHEET2!B2"] = sheet.String_("ms")
	res := mustExec(t, s, "SELECT name FROM students WHERE id = RANGEVALUE(B1)")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "carol" {
		t.Errorf("RANGEVALUE result = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM students WHERE grp = RANGEVALUE(Sheet2!B2)")
	if res.Rows[0][0].Num != 2 {
		t.Errorf("sheet-qualified RANGEVALUE = %v", res.Rows[0][0])
	}

	sheets.tables["A1:B4"] = struct {
		cols []string
		rows [][]sheet.Value
	}{
		cols: []string{"id", "bonus"},
		rows: [][]sheet.Value{
			{sheet.Number(1), sheet.Number(5)},
			{sheet.Number(3), sheet.Number(2)},
			{sheet.Number(9), sheet.Number(1)},
		},
	}
	// The paper's RANGETABLE join: sheet data joined with a stored table.
	res = mustExec(t, s, "SELECT name, bonus FROM students NATURAL JOIN RANGETABLE(A1:B4) ORDER BY name")
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "alice" || res.Rows[0][1].Num != 5 {
		t.Errorf("RANGETABLE join = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT SUM(bonus) FROM RANGETABLE(A1:B4)")
	if res.Rows[0][0].Num != 8 {
		t.Errorf("RANGETABLE aggregate = %v", res.Rows[0][0])
	}
	// Without a sheet context positional constructs fail cleanly.
	bare := db.NewSession(nil)
	if _, err := bare.Query("SELECT RANGEVALUE(B1)"); err == nil {
		t.Error("RANGEVALUE without sheets should fail")
	}
	if _, err := bare.Query("SELECT * FROM RANGETABLE(A1:B2)"); err == nil {
		t.Error("RANGETABLE without sheets should fail")
	}
}

func loadStudentsInto(t *testing.T, s *Session) {
	t.Helper()
	loadStudents(t, s)
}

// TestQueryScriptAndErrors: a script's statements, each run by its own text,
// build on each other, and bad statements fail.
func TestQueryScriptAndErrors(t *testing.T) {
	_, s := newTestDB(t)
	_, texts, err := sqlparser.ParseMulti(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2), (3);
		SELECT SUM(a) FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	for _, text := range texts {
		res = mustExec(t, s, text)
	}
	if res.Rows[0][0].Num != 6 {
		t.Errorf("script result = %v", res.Rows[0][0])
	}
	bad := []string{
		"SELECT * FROM missing",
		"SELECT zzz FROM t",
		"SELECT a FROM t WHERE zzz = 1",
		"SELECT 1/0",
		"SELECT FROB(a) FROM t",
		"UPDATE missing SET a = 1",
		"UPDATE t SET zzz = 1",
		"DELETE FROM missing",
		"ALTER TABLE missing ADD COLUMN x INT",
		"ALTER TABLE t DROP COLUMN zzz",
		"CREATE TABLE t (a INT)", // duplicate
		"SELECT SUM(a) FROM t GROUP BY zzz",
		"SELECT a, b FROM t",        // unknown column b
		"SELECT COUNT(a, a) FROM t", // aggregate arity
		"SELECT SUM(*) FROM t",
		"SELECT ABS('x') FROM t",
		"SELECT UPPER() FROM t",
	}
	for _, sql := range bad {
		if _, err := s.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestAmbiguousColumnsAndQualifiedStar(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE a (id INT, x INT)")
	mustExec(t, s, "CREATE TABLE b (id INT, y INT)")
	mustExec(t, s, "INSERT INTO a VALUES (1, 10)")
	mustExec(t, s, "INSERT INTO b VALUES (1, 20)")
	if _, err := s.Query("SELECT id FROM a JOIN b ON a.id = b.id"); err == nil {
		t.Error("ambiguous column should fail")
	}
	res := mustExec(t, s, "SELECT a.* FROM a JOIN b ON a.id = b.id")
	if len(res.Columns) != 2 || res.Columns[0] != "id" || res.Columns[1] != "x" {
		t.Errorf("qualified star columns = %v", res.Columns)
	}
	res = mustExec(t, s, "SELECT b.id, a.x, b.y FROM a JOIN b ON a.id = b.id")
	if res.Rows[0][2].Num != 20 {
		t.Errorf("qualified columns = %v", res.Rows[0])
	}
}

// TestChangeNotifications: listeners hear one change set per autocommit
// statement, COMMIT and ROLLBACK, and nothing from a failed statement or one
// inside an open transaction.
func TestChangeNotifications(t *testing.T) {
	db, s := newTestDB(t)
	var sets [][]ChangeEvent
	db.Listen(func(changes []ChangeEvent) { sets = append(sets, changes) })
	step := func(sql string, want ...ChangeEvent) {
		t.Helper()
		before := len(sets)
		stmt, fails := strings.CutPrefix(sql, "fail:")
		if _, err := s.Query(stmt); (err != nil) != fails {
			t.Fatalf("%s: error %v", sql, err)
		}
		var got []ChangeEvent
		switch len(sets) - before {
		case 0:
		case 1:
			got = sets[before]
		default:
			t.Fatalf("%s published %d change sets, want at most one", sql, len(sets)-before)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s published %v, want %v", sql, got, want)
		}
	}
	ev := func(kind ChangeKind, id tablestore.RowID) ChangeEvent {
		return ChangeEvent{Table: "t", Kind: kind, RowID: id}
	}
	step("CREATE TABLE t (a INT PRIMARY KEY)", ev(ChangeSchema, 0))
	step("INSERT INTO t VALUES (1), (2), (3)", ev(ChangeInsert, 1), ev(ChangeInsert, 2), ev(ChangeInsert, 3))
	step("UPDATE t SET a = a + 10 WHERE a < 3", ev(ChangeUpdate, 1), ev(ChangeUpdate, 2))
	step("DELETE FROM t WHERE a = 3", ev(ChangeDelete, 3))
	step("fail:INSERT INTO t VALUES (4), (11)")
	step("ALTER TABLE t ADD COLUMN b INT", ev(ChangeSchema, 0))
	step("BEGIN")
	step("INSERT INTO t VALUES (6, 6)")
	step("DELETE FROM t WHERE a = 11")
	step("fail:UPDATE t SET a = 12 WHERE a = 6")
	step("COMMIT", ev(ChangeInsert, 5), ev(ChangeDelete, 1)) // the failed INSERT took RowID 4
	step("BEGIN")
	step("INSERT INTO t VALUES (7, 7)")
	step("UPDATE t SET b = 1 WHERE a = 12")
	step("ROLLBACK", ev(ChangeUpdate, 2), ev(ChangeDelete, 6))
	step("DROP TABLE t", ev(ChangeDropTable, 0))
}

func TestDatabaseLowLevelAPI(t *testing.T) {
	db, _ := newTestDB(t)
	err := db.CreateTable("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeText, PrimaryKey: true},
		{Name: "v", Type: catalog.TypeNumber},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert("kv", []sheet.Value{sheet.String_("a"), sheet.Number(1)})
	if err != nil {
		t.Fatal(err)
	}
	row, err := db.Get("kv", id)
	if err != nil || row[1].Num != 1 {
		t.Fatalf("Get = %v, %v", row, err)
	}
	if err := db.UpdateColumn("kv", id, 1, sheet.Number(9)); err != nil {
		t.Fatal(err)
	}
	row, _ = db.Get("kv", id)
	if row[1].Num != 9 {
		t.Error("UpdateColumn failed")
	}
	// UpdateColumn on a key column goes through the index.
	if err := db.UpdateColumn("kv", id, 0, sheet.String_("b")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.FindByKey("kv", []sheet.Value{sheet.String_("b")})
	if err != nil || !ok || got != id {
		t.Errorf("FindByKey = %v, %v, %v", got, ok, err)
	}
	if _, ok, _ := db.FindByKey("kv", []sheet.Value{sheet.String_("a")}); ok {
		t.Error("old key should be gone")
	}
	n, err := db.RowCount("kv")
	if err != nil || n != 1 {
		t.Errorf("RowCount = %d, %v", n, err)
	}
	if err := db.Delete("kv", id); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.FindByKey("kv", []sheet.Value{sheet.String_("b")}); ok {
		t.Error("key should be removed on delete")
	}
	if len(db.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
	// FindByKey errors.
	if _, _, err := db.FindByKey("missing", nil); err == nil {
		t.Error("FindByKey on missing table should fail")
	}
	_ = db.CreateTable("nopk", []catalog.Column{{Name: "x"}})
	if _, _, err := db.FindByKey("nopk", []sheet.Value{sheet.Number(1)}); err == nil {
		t.Error("FindByKey without a primary key should fail")
	}
	if _, _, err := db.FindByKey("kv", []sheet.Value{sheet.Number(1), sheet.Number(2)}); err == nil {
		t.Error("FindByKey with wrong arity should fail")
	}
	// Pager stats accessible.
	if db.PagerStats().Allocs == 0 {
		t.Error("expected some page allocations")
	}
	db.ResetPagerStats()
	if db.PagerStats().Allocs != 0 {
		t.Error("ResetPagerStats failed")
	}
}

func TestLayoutConfigurations(t *testing.T) {
	for _, shape := range tablestore.Shapes {
		db := NewDatabase(Config{GroupSize: shape.GroupSize})
		s := db.NewSession(nil)
		mustExec(t, s, "CREATE TABLE t (a INT, b TEXT)")
		mustExec(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
		mustExec(t, s, "ALTER TABLE t ADD COLUMN c NUMERIC DEFAULT 0")
		res := mustExec(t, s, "SELECT SUM(a), COUNT(c) FROM t")
		if res.Rows[0][0].Num != 3 || res.Rows[0][1].Num != 2 {
			t.Errorf("shape %s: result = %v", shape.Name, res.Rows[0])
		}
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c%", true},
		{"abc", "%%%", true},
		{"abc", "_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}
