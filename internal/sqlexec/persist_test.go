package sqlexec

import (
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// TestMarshalAttachPages: a database serialised with MarshalPages and
// attached over the same backend must answer queries identically — tables,
// primary keys, secondary indexes and unique enforcement included — without
// replaying any DML.
func TestMarshalAttachPages(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			backend := pager.NewStore()
			db := NewDatabase(Config{Layout: layout, Backend: backend})
			s := db.NewSession(newFakeSheets())
			mustExec(t, s, "CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, bal NUMERIC)")
			mustExec(t, s, "CREATE UNIQUE INDEX acct_bal ON acct (bal)")
			for i := 0; i < 300; i++ {
				if _, err := db.Insert("acct", []sheet.Value{
					sheet.Number(float64(i)),
					sheet.String_("own"),
					sheet.Number(float64(i) * 10),
				}); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, s, "DELETE FROM acct WHERE id = 7")
			mustExec(t, s, "UPDATE acct SET bal = -1 WHERE id = 9")

			blob, err := db.MarshalPages()
			if err != nil {
				t.Fatal(err)
			}

			db2 := NewDatabase(Config{Layout: layout, Backend: backend})
			if err := db2.AttachPages(blob); err != nil {
				t.Fatal(err)
			}
			s2 := db2.NewSession(newFakeSheets())
			for _, q := range []string{
				"SELECT COUNT(id) FROM acct",
				"SELECT bal FROM acct WHERE id = 42",
				"SELECT id FROM acct WHERE bal = -1",
				"SELECT id FROM acct WHERE id BETWEEN 100 AND 110",
			} {
				want := mustExec(t, s, q)
				got := mustExec(t, s2, q)
				if diff := resultsEqual(want, got); diff != "" {
					t.Fatalf("%s: %s", q, diff)
				}
			}
			// Access paths must come back as index paths, not rebuilt scans.
			plan := mustExec(t, s2, "EXPLAIN SELECT id FROM acct WHERE bal = 420")
			if text := planText(plan); !strings.Contains(text, "index acct_bal") {
				t.Fatalf("EXPLAIN after attach = %q", text)
			}
			// Unique enforcement survives the attach.
			if _, err := s2.Query("INSERT INTO acct VALUES (9999, 'x', 420)"); err == nil {
				t.Fatal("unique index not enforced after attach")
			}
			// Fresh inserts continue the RowID sequence.
			if _, err := db2.Insert("acct", []sheet.Value{
				sheet.Number(100000), sheet.String_("new"), sheet.Number(-77),
			}); err != nil {
				t.Fatal(err)
			}
			res := mustExec(t, s2, "SELECT owner FROM acct WHERE id = 100000")
			if len(res.Rows) != 1 || res.Rows[0][0].String() != "new" {
				t.Fatalf("post-attach insert not visible: %v", res.Rows)
			}
		})
	}
}

// TestAttachPagesRejectsCorrupt: flipped bits in the catalog blob must fail
// the attach with ErrCorruptPages-wrapped errors, not half-attach.
func TestAttachPagesRejectsCorrupt(t *testing.T) {
	backend := pager.NewStore()
	db := NewDatabase(Config{Backend: backend})
	s := db.NewSession(newFakeSheets())
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2), (3)")
	blob, err := db.MarshalPages()
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 9, len(blob) / 2, len(blob) - 1} {
		corrupt := append([]byte(nil), blob...)
		corrupt[pos] ^= 0x40
		db2 := NewDatabase(Config{Backend: backend})
		if err := db2.AttachPages(corrupt); err == nil {
			t.Errorf("flip@%d attached without error", pos)
		}
	}
	if err := NewDatabase(Config{Backend: backend}).AttachPages(blob[:5]); err == nil {
		t.Error("truncated blob attached without error")
	}
}
