package dataspread

// One benchmark per reproduced experiment (see DESIGN.md §4): the paper's
// demonstration scenarios (F2a–c), motivating claims (M1–M4) and
// architecture claims (A1, A2, A4, A5; A3's interface storage manager was
// deleted, see DESIGN.md §Experiments), plus the engine's own access-path,
// durability and cold-open workloads. Each regenerates its headline
// comparison in a form that `go test -bench=.` runs end to end; sweeps are
// sub-benchmarks over the swept parameter. The end-to-end benchmark every
// change is judged by is the separate bench/ module (BENCHMARK.json).

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/dataspread/dataspread/internal/baseline"
	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/datagen"
	"github.com/dataspread/dataspread/internal/index/positional"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// loadMovies populates the Figure 2a dataset.
func loadMovies(b *testing.B, ds *core.DataSpread, movies int) {
	b.Helper()
	data := datagen.MoviesDataset(movies, 5, 1)
	if _, err := ds.QueryScript(`
		CREATE TABLE movies (movieid INT PRIMARY KEY, title TEXT, year INT);
		CREATE TABLE actors (actorid INT PRIMARY KEY, name TEXT);
		CREATE TABLE movies2actors (movieid INT, actorid INT);
	`); err != nil {
		b.Fatal(err)
	}
	for _, row := range data.Movies {
		if _, err := ds.DB().Insert("movies", row); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range data.Actors {
		if _, err := ds.DB().Insert("actors", row); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range data.Movies2Actors {
		if _, err := ds.DB().Insert("movies2actors", row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2aDBSQLQuery measures Figure 2a: a DBSQL formula joining three
// tables with RANGEVALUE parameters, spilled into the sheet as a single
// set-at-a-time pass.
func BenchmarkF2aDBSQLQuery(b *testing.B) {
	ds := core.New(core.Options{})
	loadMovies(b, ds, 5000)
	w, _ := ds.SetCell("Sheet1", "B1", "3")
	w()
	w, _ = ds.SetCell("Sheet1", "B2", "1950")
	w()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait, err := ds.SetCell("Sheet1", "B3",
			`=DBSQL("SELECT title, year FROM movies NATURAL JOIN movies2actors NATURAL JOIN actors WHERE actorid = RANGEVALUE(B1) AND year > RANGEVALUE(B2) ORDER BY year")`)
		if err != nil {
			b.Fatal(err)
		}
		wait()
	}
}

// BenchmarkF2bExportImport measures Figure 2b: exporting a sheet range as a
// relational table (schema inference + load + DBTABLE binding).
func BenchmarkF2bExportImport(b *testing.B) {
	grades := datagen.Gradebook(2000, 5, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ds := core.New(core.Options{})
		sh, _ := ds.Book().Sheet("Sheet1")
		sh.SetValues(sheet.Addr(0, 0), grades)
		b.StartTimer()
		if _, err := ds.CreateTableFromRange("Sheet1", fmt.Sprintf("A1:G%d", len(grades)), "grades", core.ExportOptions{PrimaryKey: []string{"student"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2cTwoWaySync measures Figure 2c: one front-end edit on a bound
// cell propagating to the database and back into a dependent DBSQL summary.
func BenchmarkF2cTwoWaySync(b *testing.B) {
	ds := core.New(core.Options{})
	if _, err := ds.Query("CREATE TABLE inv (sku INT PRIMARY KEY, qty NUMERIC)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := ds.DB().Insert("inv", []sheet.Value{sheet.Number(float64(i)), sheet.Number(100)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ds.ImportTable("Sheet1", "A1", "inv"); err != nil {
		b.Fatal(err)
	}
	w, err := ds.SetCell("Sheet1", "E1", `=DBSQL("SELECT SUM(qty) FROM inv")`)
	if err != nil {
		b.Fatal(err)
	}
	w()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait, err := ds.SetCell("Sheet1", "B3", fmt.Sprintf("%d", 100+i%50))
		if err != nil {
			b.Fatal(err)
		}
		wait()
	}
}

// BenchmarkF2dBoundBulkWrite measures Figure 2c's sync under bulk writes: a
// 1000-row UPDATE and a 100-row DELETE inside ids 1–2000 of a 20k-row table
// that is unbound, read by a DBSQL aggregate over those ids, or bound as a
// DBTABLE region. A statement publishes its changes once, so a bound write
// pays one refresh per statement, not one per row, and stays near the
// unbound one.
func BenchmarkF2dBoundBulkWrite(b *testing.B) {
	for _, binding := range []string{"none", "dbsql", "table"} {
		for _, op := range []string{"update1000", "delete100"} {
			b.Run(binding+"/"+op, func(b *testing.B) { benchmarkF2dBoundBulkWrite(b, binding, op) })
		}
	}
}

func benchmarkF2dBoundBulkWrite(b *testing.B, binding, op string) {
	ds := core.New(core.Options{})
	if _, err := ds.Query("CREATE TABLE t (id INT PRIMARY KEY, a NUMERIC, b NUMERIC)"); err != nil {
		b.Fatal(err)
	}
	row := func(id int) []sheet.Value {
		return []sheet.Value{sheet.Number(float64(id)), sheet.Number(float64(id % 97)), sheet.Number(1)}
	}
	for id := 1; id <= 20_000; id++ {
		if _, err := ds.DB().Insert("t", row(id)); err != nil {
			b.Fatal(err)
		}
	}
	switch binding {
	case "dbsql":
		wait, err := ds.SetCell("Sheet1", "A1", `=DBSQL("SELECT SUM(b) FROM t WHERE id >= 1 AND id <= 2000")`)
		if err != nil {
			b.Fatal(err)
		}
		wait()
	case "table":
		if _, err := ds.ImportTable("Sheet1", "A1", "t"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op == "update1000" {
			lo := 1 + i%2*1000
			if _, err := ds.Query(fmt.Sprintf("UPDATE t SET b = b + 1 WHERE id >= %d AND id < %d", lo, lo+1000)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		lo := 1 + i%20*100
		if _, err := ds.Query(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", lo, lo+100)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for id := lo; id < lo+100; id++ {
			if _, err := ds.DB().Insert("t", row(id)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// M1: interaction latency at scale — panning a window over a large bound
// table (DataSpread) vs fetching a window from a naive flat spreadsheet.
func benchmarkM1DataSpread(b *testing.B, rows int) {
	ds := core.New(core.Options{WindowRows: 50, WindowCols: 10, MaterializeAllLimit: 1000})
	if _, err := ds.Query("CREATE TABLE big (id INT PRIMARY KEY, v1 NUMERIC, v2 NUMERIC, v3 NUMERIC)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := ds.DB().Insert("big", []sheet.Value{
			sheet.Number(float64(i)), sheet.Number(float64(i % 97)), sheet.Number(float64(i % 31)), sheet.Number(float64(i % 11)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ds.ImportTable("Sheet1", "A1", "big"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := sheet.Addr((i*977)%(rows-60), 0)
		if err := ds.ScrollTo("Sheet1", target.String()); err != nil {
			b.Fatal(err)
		}
		if _, err := ds.VisibleValues("Sheet1"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkM1Baseline(b *testing.B, rows int) {
	s := baseline.New()
	s.RecalcOnEdit = false
	grid := datagen.NumericGrid(rows, 4, 1)
	for r, row := range grid {
		for c, v := range row {
			s.SetValue(sheet.Addr(r, c), v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 977) % (rows - 60)
		_ = s.Window(sheet.RangeOf(start, 0, start+49, 9))
	}
}

// BenchmarkM1ScaleDataSpread / BenchmarkM1ScaleBaseline sweep sheet size up
// to 200k rows: DataSpread's window latency stays flat across the sweep
// (the paper's data-size-independence claim) while the flat sheet's grows.
func BenchmarkM1ScaleDataSpread(b *testing.B) {
	for _, rows := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) { benchmarkM1DataSpread(b, rows) })
	}
}

func BenchmarkM1ScaleBaseline(b *testing.B) {
	for _, rows := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) { benchmarkM1Baseline(b, rows) })
	}
}

// M2: the paper's first motivating operation — select students with a score
// above 90 in any assignment — via SQL vs a manual cell scan.
func BenchmarkM2FilterSQL(b *testing.B) {
	ds := core.New(core.Options{})
	sh, _ := ds.Book().Sheet("Sheet1")
	sh.SetValues(sheet.Addr(0, 0), datagen.Gradebook(5000, 5, 1))
	rng := fmt.Sprintf("A1:G%d", 5001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ds.Query(fmt.Sprintf("SELECT student FROM RANGETABLE(%s) WHERE a1 > 90 OR a2 > 90 OR a3 > 90 OR a4 > 90 OR a5 > 90", rng))
		if err != nil || len(res.Rows) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkM2FilterBaseline(b *testing.B) {
	s := baseline.New()
	s.RecalcOnEdit = false
	grades := datagen.Gradebook(5000, 5, 1)
	for r, row := range grades {
		for c, v := range row {
			s.SetValue(sheet.Addr(r, c), v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.FilterRows(5001, []int{1, 2, 3, 4, 5}, func(v sheet.Value) bool {
			f, ok := v.AsNumber()
			return ok && f > 90
		})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// M3: the paper's second motivating operation — average grade per demographic
// group — as a SQL join+GROUP BY vs per-row lookups.
func BenchmarkM3JoinSQL(b *testing.B) {
	ds := core.New(core.Options{})
	n := 5000
	sh, _ := ds.Book().Sheet("Sheet1")
	sh.SetValues(sheet.Addr(0, 0), datagen.Gradebook(n, 5, 1))
	ds.AddSheet("Demo")
	dsh, _ := ds.Book().Sheet("Demo")
	dsh.SetValues(sheet.Addr(0, 0), datagen.Demographics(n, 2))
	q := fmt.Sprintf("SELECT grp, AVG(grade) FROM RANGETABLE(A1:G%d) NATURAL JOIN RANGETABLE(Demo!A1:C%d) GROUP BY grp", n+1, n+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ds.Query(q)
		if err != nil || len(res.Rows) != 3 {
			b.Fatalf("%v %v", res, err)
		}
	}
}

func BenchmarkM3JoinBaseline(b *testing.B) {
	n := 5000
	s := baseline.New()
	s.RecalcOnEdit = false
	grades := datagen.Gradebook(n, 5, 1)
	for r, row := range grades {
		for c, v := range row {
			s.SetValue(sheet.Addr(r, c), v)
		}
	}
	demo := datagen.Demographics(n, 2)
	lookup := make(map[string]string, n)
	for _, row := range demo[1:] {
		lookup[row[0].Str] = row[1].Str
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avg := s.GroupAverage(n+1, 0, 6, lookup)
		if len(avg) != 3 {
			b.Fatal("bad groups")
		}
	}
}

// M4: continuously appended external data — appending a batch of rows to a
// bound table and keeping the window in sync.
func BenchmarkM4Append(b *testing.B) {
	ds := core.New(core.Options{WindowRows: 50, WindowCols: 5, MaterializeAllLimit: 1000})
	if _, err := ds.Query("CREATE TABLE feed (id INT PRIMARY KEY, v NUMERIC)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if _, err := ds.DB().Insert("feed", []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ds.ImportTable("Sheet1", "A1", "feed"); err != nil {
		b.Fatal(err)
	}
	next := 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.DB().Insert("feed", []sheet.Value{sheet.Number(float64(next)), sheet.Number(float64(next))}); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

// A1: blocks written by ALTER TABLE ADD COLUMN on a 10-column table across
// attribute-group sizes: 1 (every column apart), 4 (the default) and 10 (one
// group per table, row-shaped). Adding a column writes only its own new
// group at every size.
func BenchmarkA1SchemaChange(b *testing.B) {
	rows := datagen.WideRows(20_000, 10, 1)
	for _, size := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("group=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ps := pager.NewStore()
				store := tablestore.NewHybridStore(pager.NewBufferPool(ps, 0), 10, tablestore.WithGroupSize(size))
				for _, r := range rows {
					if _, err := store.Insert(r); err != nil {
						b.Fatal(err)
					}
				}
				ps.ResetStats()
				b.StartTimer()
				if err := store.AddColumn(sheet.Number(0)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(ps.Stats().Writes), "blocks/op")
				b.StartTimer()
			}
		})
	}
}

// A2: window fetch and middle insertion through the positional index vs a
// dense renumbered slice.
func BenchmarkA2PositionalIndex(b *testing.B) {
	ix := positional.New()
	const n = 500_000
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	if err := ix.BulkLoad(ids); err != nil {
		b.Fatal(err)
	}
	next := uint64(n + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := (i * 7919) % n
		// Fetch a 50-row window, then insert a row in the middle.
		count := 0
		ix.Scan(pos, 50, func(int, uint64) bool { count++; return true })
		if err := ix.InsertAt(pos, next); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

func BenchmarkA2DenseRenumber(b *testing.B) {
	const n = 500_000
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = uint64(i + 1)
	}
	next := uint64(n + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := (i * 7919) % len(rows)
		end := pos + 50
		if end > len(rows) {
			end = len(rows)
		}
		sum := uint64(0)
		for _, v := range rows[pos:end] {
			sum += v
		}
		// Insert in the middle of a dense array: shift everything after it.
		rows = append(rows, 0)
		copy(rows[pos+1:], rows[pos:])
		rows[pos] = next
		next++
		_ = sum
	}
}

// A4: visible-first prioritisation — time until the visible window is
// consistent after an edit, with and without a window provider.
func benchmarkA4(b *testing.B, prioritised bool) {
	ds := core.New(core.Options{WindowRows: 25, WindowCols: 4})
	const formulas = 3000
	w, _ := ds.SetCell("Sheet1", "A1", "1")
	w()
	for i := 0; i < formulas; i++ {
		wf, err := ds.SetCell("Sheet1", sheet.Addr(i, 1).String(), "=A1*2")
		if err != nil {
			b.Fatal(err)
		}
		wf()
	}
	ds.Wait()
	if !prioritised {
		ds.Engine().SetVisibleProvider(nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Only the time to return (visible cells consistent) is measured;
		// the background pass is drained outside the timer.
		wait, err := ds.SetCell("Sheet1", "A1", fmt.Sprintf("%d", i+2))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		wait()
		b.StartTimer()
	}
}

func BenchmarkA4PrioritizationVisibleFirst(b *testing.B) { benchmarkA4(b, true) }
func BenchmarkA4PrioritizationFullRecalc(b *testing.B)   { benchmarkA4(b, false) }

// A5: shared computation — one DBSQL range formula vs one VLOOKUP-style
// formula per cell producing the same column.
func BenchmarkA5SharedComputationDBSQL(b *testing.B) {
	ds := core.New(core.Options{})
	if _, err := ds.Query("CREATE TABLE vals (id INT PRIMARY KEY, v NUMERIC)"); err != nil {
		b.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := ds.DB().Insert("vals", []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i * 3))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait, err := ds.SetCell("Sheet1", "A1", `=DBSQL("SELECT v FROM vals ORDER BY id")`)
		if err != nil {
			b.Fatal(err)
		}
		wait()
	}
}

func BenchmarkA5SharedComputationPerCell(b *testing.B) {
	// The per-cell equivalent: the lookup table lives on the sheet and each
	// output cell runs its own VLOOKUP — one evaluation per cell.
	s := baseline.New()
	s.RecalcOnEdit = false
	const n = 2000
	for i := 0; i < n; i++ {
		s.SetValue(sheet.Addr(i, 0), sheet.Number(float64(i)))
		s.SetValue(sheet.Addr(i, 1), sheet.Number(float64(i*3)))
	}
	for i := 0; i < n; i++ {
		if err := s.Set(sheet.Addr(i, 3), fmt.Sprintf("=VLOOKUP(%d, A1:B%d, 2)", i, n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RecalcAll()
	}
}

// BenchmarkD1DurableAppend measures the cost of durability on the append
// path: the same stream of literal cell edits against an in-memory workbook,
// a file-backed workbook syncing the WAL on every commit, and a file-backed
// workbook batching fsyncs with group commit. The gap between the first two
// is the price of an fsync per edit; group commit buys most of it back.
func BenchmarkD1DurableAppend(b *testing.B) {
	appendCells := func(b *testing.B, ds *core.DataSpread) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			wait, err := ds.SetCell("Sheet1", fmt.Sprintf("A%d", i+1), strconv.Itoa(i))
			if err != nil {
				b.Fatal(err)
			}
			wait()
		}
	}
	b.Run("memory", func(b *testing.B) {
		ds := core.New(core.Options{})
		b.ResetTimer()
		appendCells(b, ds)
	})
	b.Run("file-sync-every-commit", func(b *testing.B) {
		ds, err := core.OpenFile(filepath.Join(b.TempDir(), "book.dsp"), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		b.ResetTimer()
		appendCells(b, ds)
	})
	b.Run("file-group-commit-64", func(b *testing.B) {
		ds, err := core.OpenFile(filepath.Join(b.TempDir(), "book.dsp"), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		ds.WAL().SetGroupCommit(64)
		b.ResetTimer()
		appendCells(b, ds)
	})
}

// BenchmarkD2ColdOpen measures recovery cost. Opening a checkpointed
// workbook reads the root slots and the blobs the root names — the heap's
// slot map, the page catalog, the zone maps, the sheet snapshot — and
// replays the WAL tail. It reads no slot header (the slot map rebuilds the
// heap's free list) and no table or index page (the catalog's page lists
// and fence lists attach to them unread), and it decodes no zone entry,
// builds no index node and allocates nothing per page: those wait for the
// first query that needs them. So open time follows the bytes of the
// catalogs and the slot map, plus the dirty work since the checkpoint; the
// 10k/100k/300k series shows that slope. The replay-only variant (no
// checkpoint) is the O(history) behaviour for contrast.
func BenchmarkD2ColdOpen(b *testing.B) {
	build := func(b *testing.B, rows, tail int) string {
		b.Helper()
		path := filepath.Join(b.TempDir(), "book.dsp")
		ds, err := core.OpenFile(path, core.Options{CheckpointWALBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ds.QueryScript(`
			CREATE TABLE seq (n INT PRIMARY KEY, v NUMERIC);
			CREATE INDEX seq_v ON seq (v);`); err != nil {
			b.Fatal(err)
		}
		ds.WAL().SetGroupCommit(1 << 20) // build fast; the bench times the open
		for i := 1; i <= rows; i++ {
			if _, err := ds.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d, %d)", i, i*2)); err != nil {
				b.Fatal(err)
			}
		}
		if rows > 0 {
			// Everything before the tail is checkpointed into pages.
			if err := ds.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		for i := rows + 1; i <= rows+tail; i++ {
			if _, err := ds.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d, %d)", i, i*2)); err != nil {
				b.Fatal(err)
			}
		}
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name       string
		rows, tail int
	}{
		{"checkpointed-10k-rows-dirty-0", 10000, 0},
		{"checkpointed-100k-rows-dirty-0", 100000, 0},
		{"checkpointed-300k-rows-dirty-0", 300000, 0},
		{"checkpointed-10k-rows-dirty-500", 10000, 500},
		{"replay-only-10k-rows", 0, 10000},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			path := build(b, tc.rows, tc.tail)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := core.OpenFile(path, core.Options{CheckpointWALBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := ds.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
