package sqlexec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// TestMarshalAttachPages: a database serialised with MarshalPages and
// attached over the same backend must answer queries identically — tables,
// primary keys, secondary indexes and unique enforcement included — without
// replaying any DML.
func TestMarshalAttachPages(t *testing.T) {
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			backend := pager.NewStore()
			db := NewDatabase(Config{GroupSize: shape.GroupSize, Backend: backend})
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

			db2 := NewDatabase(Config{GroupSize: shape.GroupSize, Backend: backend})
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

// catalogWorkbook builds a small fixed workbook: a five-column table (groups
// of four and one at the default group size) with a primary key, a secondary
// index, a tombstoned row, an updated row, a column added and the lone column
// of a group dropped.
func catalogWorkbook(t testing.TB, backend pager.Backend) (*Database, *Session) {
	t.Helper()
	db := NewDatabase(Config{Backend: backend})
	s := db.NewSession(newFakeSheets())
	mustExec(t, s, "CREATE TABLE item (id INT PRIMARY KEY, name TEXT, qty NUMERIC, ok BOOL, note TEXT)")
	mustExec(t, s, "CREATE INDEX item_qty ON item (qty)")
	for i := 1; i <= 12; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO item VALUES (%d, 'n%02d', %d, %t, 'x')", i, i, i*3, i%2 == 0))
	}
	mustExec(t, s, "DELETE FROM item WHERE id = 5")
	mustExec(t, s, "UPDATE item SET qty = 100 WHERE id = 7")
	mustExec(t, s, "ALTER TABLE item ADD COLUMN extra INT DEFAULT 9")
	mustExec(t, s, "ALTER TABLE item DROP COLUMN note")
	return db, s
}

// The page catalog and zone catalog of catalogWorkbook, as written by the
// build that still had row and column stores.
const (
	catalogWorkbookPages = "445350474341543347a056d401046974656d0668796272696405026964074e554d455249430200046e616d650454455854000003717479074e554d455249430000026f6b07424f4f4c45414e0000056578747261074e554d45524943000140220000000000002101040c0d0b030480010101008004000180040103050000000100020003020001050b010901bff00000000000000401086974656d5f717479046974656d0001037174790b011101c008000000000000000000000000000105"
	catalogWorkbookZones = "44535a4e43415431bc783e4401046974656d8b0168030101040300000000000000f03f0000000000002840000000000000f03f00000000000028400400036e3031036e3132030000000000000008400000000000005940000000000000084000000000000059400a000000000000000000000000000000f03f0001010103000000000000002240000000000000224000000000000022400000000000002240"
)

// TestCatalogBytesStable pins the bytes of a hybrid table's catalog entry,
// store meta and zone blob: a DSPGCAT3 file written before the row and
// column stores were removed must still open, and one written now must
// open in that build.
func TestCatalogBytesStable(t *testing.T) {
	backend := pager.NewStore()
	db, s := catalogWorkbook(t, backend)
	blob, err := db.MarshalPages()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != catalogWorkbookPages {
		t.Errorf("page catalog bytes changed:\n got %s\nwant %s", got, catalogWorkbookPages)
	}
	if got := hex.EncodeToString(db.MarshalZones()); got != catalogWorkbookZones {
		t.Errorf("zone catalog bytes changed:\n got %s\nwant %s", got, catalogWorkbookZones)
	}

	pages, _ := hex.DecodeString(catalogWorkbookPages)
	zones, _ := hex.DecodeString(catalogWorkbookZones)
	re := NewDatabase(Config{Backend: backend})
	if err := re.AttachPages(pages); err != nil {
		t.Fatal(err)
	}
	if err := re.AttachZones(zones); err != nil {
		t.Fatal(err)
	}
	if err := re.ValidateZones(); err != nil {
		t.Fatal(err)
	}
	rs := re.NewSession(newFakeSheets())
	for _, q := range []string{
		"SELECT * FROM item ORDER BY id",
		"SELECT id FROM item WHERE qty = 100",
		"SELECT COUNT(*), SUM(extra) FROM item WHERE ok",
	} {
		if diff := resultsEqual(mustExec(t, s, q), mustExec(t, rs, q)); diff != "" {
			t.Fatalf("%s: %s", q, diff)
		}
	}
}

// TestAttachPagesMissingPagesCorrupt: a catalog attached over a backend that
// lacks the pages it lists attaches (checking each page would make the open
// O(pages)), but every read that reaches a missing page — a table scan, an
// index leaf — fails as corrupt.
func TestAttachPagesMissingPagesCorrupt(t *testing.T) {
	pages, _ := hex.DecodeString(catalogWorkbookPages)
	db := NewDatabase(Config{Backend: pager.NewStore()})
	if err := db.AttachPages(pages); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession(newFakeSheets())
	for _, q := range []string{"SELECT * FROM item", "SELECT id FROM item WHERE qty = 100"} {
		if _, err := s.Query(q); !errors.Is(err, dberr.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", q, err)
		}
	}
}

// TestAttachPagesRefusesRowAndColumnTables: catalogs written by the build
// that also had row and column stores, each holding one such table
// "legacy (a INT, b TEXT)" of three rows, are refused as corrupt, naming the
// table and its layout, rather than attached.
func TestAttachPagesRefusesRowAndColumnTables(t *testing.T) {
	for layout, blobHex := range map[string]string{
		"row":    "445350474341543308bd3a7e01066c656761637903726f77020161074e554d4552494300000162045445585400000e0102040303010103010002000300000000",
		"column": "44535047434154334641fad601066c656761637906636f6c756d6e020161074e554d4552494300000162045445585400000a01030403020101010200000000",
	} {
		blob, _ := hex.DecodeString(blobHex)
		err := NewDatabase(Config{Backend: pager.NewStore()}).AttachPages(blob)
		if !errors.Is(err, dberr.ErrCorrupt) {
			t.Fatalf("%s catalog: err = %v, want ErrCorrupt", layout, err)
		}
		if msg := err.Error(); !strings.Contains(msg, `"legacy"`) || !strings.Contains(msg, `"`+layout+`"`) {
			t.Errorf("%s catalog: error %q does not name the table and its layout", layout, msg)
		}
	}
}

// FuzzAttachPages: whatever a catalog body says, attaching it never panics,
// allocates at most a small multiple of its size, and every refusal is
// classed ErrCorrupt. A catalog that attaches answers COUNT(*) and a full
// scan of each table or refuses them as corrupt — naming a page the backend
// does not hold included. Each input is a body that the target seals with
// the magic and a fresh checksum, so mutations reach the decoder rather than
// the checksum test; the backend holds catalogWorkbook's pages, so a catalog
// that names them drives the page decoders too.
func FuzzAttachPages(f *testing.F) {
	backend := pager.NewStore()
	db, _ := catalogWorkbook(f, backend)
	if _, err := db.MarshalPages(); err != nil { // flushes the pages
		f.Fatal(err)
	}
	pages, _ := hex.DecodeString(catalogWorkbookPages)
	f.Add(pages[12:])
	f.Fuzz(func(t *testing.T, body []byte) {
		blob := binary.LittleEndian.AppendUint32(pagesMagic[:], crc32.ChecksumIEEE(body))
		blob = append(blob, body...)
		db := NewDatabase(Config{Backend: backend})
		// TotalAlloc is process-wide, so the bound carries slack for what
		// the fuzzing engine allocates meanwhile.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := db.AttachPages(blob)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(body))+1<<20 {
			t.Fatalf("attaching %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			if !errors.Is(err, dberr.ErrCorrupt) {
				t.Fatalf("refusal %v is not classed ErrCorrupt", err)
			}
			return
		}
		s := db.NewSession(newFakeSheets())
		for _, tbl := range db.Tables() {
			if strings.Contains(tbl.Name, `"`) {
				continue // not expressible as a quoted identifier
			}
			for _, q := range []string{`SELECT COUNT(*) FROM "%s"`, `SELECT * FROM "%s"`} {
				q = fmt.Sprintf(q, tbl.Name)
				if _, err := s.Query(q); err != nil && !errors.Is(err, dberr.ErrCorrupt) {
					t.Fatalf("%s: %v", q, err)
				}
			}
		}
	})
}
