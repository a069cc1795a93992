package sqlexec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Late-bound access paths: a parameterized statement must choose the same
// index paths a literal statement would, with bounds resolved from the
// per-execution arguments, and its results must match the forced full scan
// row for row.

func TestPlaceholderAccessPathsGolden(t *testing.T) {
	ctx := context.Background()
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			db, s := newAccessDB(t, shape.GroupSize)
			cases := []struct {
				sql     string
				args    []sheet.Value
				explain string
			}{
				{"SELECT * FROM items WHERE id = ?", []sheet.Value{sheet.Number(137)}, "pk point (id)"},
				{"SELECT id FROM items WHERE id BETWEEN ? AND ?", []sheet.Value{sheet.Number(100), sheet.Number(120)}, "pk range (id)"},
				{"SELECT id, name FROM items WHERE id >= ?", []sheet.Value{sheet.Number(380)}, "pk range (id)"},
				{"SELECT id, v FROM items WHERE id IN (?, ?, ?)", []sheet.Value{sheet.Number(11), sheet.Number(222), sheet.Number(333)}, "pk in-list (id, 3 probes)"},
				{"SELECT id FROM items WHERE grp = ?", []sheet.Value{sheet.Number(3)}, "index idx_grp point (grp)"},
				// A NULL argument cannot be a sarg: equality with NULL is
				// never true, and the full predicate decides.
				{"SELECT id FROM items WHERE id = ?", []sheet.Value{sheet.Empty()}, ""},
			}
			for _, c := range cases {
				p, err := db.Prepare(c.sql)
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				indexed, err := s.ExecutePreparedContext(ctx, p, c.args...)
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				db.SetPlanHint(PlanHint{FullScan: true})
				full, err := s.ExecutePreparedContext(ctx, p, c.args...)
				db.SetPlanHint(PlanHint{})
				if err != nil {
					t.Fatalf("%s (full scan): %v", c.sql, err)
				}
				if diff := resultsEqual(indexed, full); diff != "" {
					t.Fatalf("%s: index path diverges from full scan: %s", c.sql, diff)
				}
				if c.explain == "" {
					continue
				}
				expl, err := s.QueryContext(ctx, "EXPLAIN "+c.sql, c.args...)
				if err != nil {
					t.Fatalf("EXPLAIN %s: %v", c.sql, err)
				}
				var lines []string
				for _, row := range expl.Rows {
					lines = append(lines, row[0].String())
				}
				plan := strings.Join(lines, "\n")
				if !strings.Contains(plan, c.explain) {
					t.Fatalf("EXPLAIN %s with args: plan %q does not contain %q", c.sql, plan, c.explain)
				}
			}
		})
	}
}

// The same prepared statement, executed twice with different arguments,
// takes different point paths — the bounds are per-execution, not baked in
// at prepare time.
func TestPlaceholderRebindsPerExecution(t *testing.T) {
	ctx := context.Background()
	db, s := newAccessDB(t, tablestore.DefaultGroupSize)
	const sql = "SELECT name FROM items WHERE id = ?"
	before := db.PlanCacheStats()
	// The Query path re-prepares the same text per call — the literal-SQL
	// miss storm becomes hits because '?' keeps the text stable.
	for _, id := range []float64{3, 250, 399} {
		res, err := s.QueryContext(ctx, sql, sheet.Number(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("id %v: got %d rows", id, len(res.Rows))
		}
	}
	stats := db.PlanCacheStats()
	if misses := stats.Misses - before.Misses; misses != 1 {
		t.Fatalf("parameterized text missed the cache %d times, want 1 (%+v -> %+v)", misses, before, stats)
	}
	if hits := stats.Hits - before.Hits; hits < 2 {
		t.Fatalf("parameterized text hit the cache %d times, want >= 2", hits)
	}
}

func TestPlaceholderParamCountMismatch(t *testing.T) {
	ctx := context.Background()
	db, s := newAccessDB(t, tablestore.DefaultGroupSize)
	p, err := db.Prepare("SELECT id FROM items WHERE id = ? AND grp = ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", p.NumParams())
	}
	_, err = s.ExecutePreparedContext(ctx, p, sheet.Number(1))
	if !errors.Is(err, dberr.ErrParamCount) {
		t.Fatalf("want ErrParamCount, got %v", err)
	}
}

// Placeholders in DML: the UPDATE/DELETE target narrowing also resolves
// bounds per execution.
func TestPlaceholderDML(t *testing.T) {
	ctx := context.Background()
	db, s := newAccessDB(t, tablestore.DefaultGroupSize)
	res, err := s.QueryContext(ctx, "UPDATE items SET v = ? WHERE id = ?", sheet.Number(-5), sheet.Number(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("update affected %d, want 1", res.Affected)
	}
	check, err := s.QueryContext(ctx, "SELECT v FROM items WHERE id = ?", sheet.Number(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != 1 || check.Rows[0][0].String() != "-5" {
		t.Fatalf("update not visible: %v", check.Rows)
	}
	res, err = s.QueryContext(ctx, "DELETE FROM items WHERE id IN (?, ?)", sheet.Number(1), sheet.Number(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("delete affected %d, want 2", res.Affected)
	}
	_ = db
}

// Streamed results must match materialised results for the same statement.
func TestStreamMatchesMaterialized(t *testing.T) {
	ctx := context.Background()
	db, s := newAccessDB(t, tablestore.DefaultGroupSize)
	for _, sql := range []string{
		"SELECT id, name FROM items WHERE grp = ?",
		"SELECT id FROM items WHERE id BETWEEN ? AND ?",
		"SELECT * FROM items WHERE v > ? ORDER BY id LIMIT 7", // falls back to materialised
		// OFFSET+LIMIT saturates instead of wrapping, in the streaming cut too.
		"SELECT id FROM items WHERE v > ? LIMIT 9223372036854774784 OFFSET 3",
	} {
		p, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]sheet.Value, p.NumParams())
		for i := range args {
			args[i] = sheet.Number(float64(3 + i*100))
		}
		mat, err := s.ExecutePreparedContext(ctx, p, args...)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.StreamPrepared(ctx, p, args...)
		if err != nil {
			t.Fatal(err)
		}
		streamed := &Result{Columns: rows.Columns()}
		for rows.Next() {
			streamed.Rows = append(streamed.Rows, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if diff := resultsEqual(mat, streamed); diff != "" {
			t.Fatalf("%s: stream diverges from materialised: %s", sql, diff)
		}
	}
}
