package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/datagen"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Machine-readable benchmark output (-json FILE). Five groups are measured:
//
//   - zone-map pairs (PR 9): pruned-vs-unskipped scans over a shared 1M-row
//     table whose ts column is clustered but unindexed — a selective
//     predicate scan plus GROUP BY at 1%/10%/100% selectivity — and a
//     dictionary-vs-plain text scan pair; each zone entry's meta records the
//     pages read vs skipped and the worker count;
//   - parallel pairs (PR 8): the morsel-driven executor against the serial
//     one over a shared 1M-row table — full scan, pushed-predicate scan,
//     GROUP BY at 2/4/8 workers, hash join — plus writer-interference read
//     latency percentiles (serial locking vs snapshot reads);
//   - backend pairs: the PR 3 access-path workloads (PK point, PK range,
//     index-ordered top-K, secondary lookup, full scan) plus the D1 durable
//     append, each run over a file-backed workbook with a deliberately small
//     buffer pool against BOTH page backends — FileStore (pread) as the
//     baseline and MmapStore as the contender — so the mmap read path's
//     syscall savings are self-contained in one file;
//   - cold-open scaling: OpenFile time for checkpointed workbooks with a
//     fixed dirty WAL tail versus a replay-only history, demonstrating that
//     recovery is O(dirty work since the last checkpoint), not O(row count);
//   - carried headline workloads (access paths vs forced full scan incl. the
//     new IN-list probes, M2, M3, A5, F2a), kept so regressions across PRs
//     stay diffable.

type benchNums struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type benchEntry struct {
	Name     string           `json:"name"`
	Baseline *benchNums       `json:"baseline,omitempty"`
	After    benchNums        `json:"after"`
	Speedup  float64          `json:"speedup,omitempty"`
	Meta     map[string]int64 `json:"meta,omitempty"`
}

type benchReport struct {
	PR            int          `json:"pr"`
	Title         string       `json:"title"`
	GeneratedBy   string       `json:"generated_by"`
	MmapSupported bool         `json:"mmap_supported"`
	Benchmarks    []benchEntry `json:"benchmarks"`
}

func runNums(fn func(b *testing.B)) benchNums {
	r := testing.Benchmark(fn)
	return benchNums{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func writeBenchJSON(path string) {
	report := benchReport{
		PR:            9,
		Title:         "Zone maps, lightweight column compression, and page-level data skipping on the cold scan path",
		GeneratedBy:   "cmd/dsbench -json (Zone*: baseline = SetForceNoSkip scan, after = zone-map pruned scan, shared 1M-row table with an unindexed clustered ts column, meta records pages read vs skipped and the worker count; DictVsPlainTextScan: baseline = plain-encoded high-NDV text column, after = dictionary-encoded low-NDV column, same shape; Par*: baseline = SetWorkers(1), after = morsel pool at the named worker count; WriterInterference*: snapshot-scan read latency against a churning writer, no baseline; MmapVsFile*: baseline = FileStore pread, after = MmapStore)",
		MmapSupported: pager.MmapSupported,
	}
	addMeta := func(name string, baseline *benchNums, after benchNums, meta map[string]int64) {
		e := benchEntry{Name: name, Baseline: baseline, After: after, Meta: meta}
		if baseline != nil && after.NsPerOp > 0 {
			e.Speedup = round2(baseline.NsPerOp / after.NsPerOp)
		}
		report.Benchmarks = append(report.Benchmarks, e)
		if baseline != nil {
			fmt.Printf("%-34s %12.0f ns/op (baseline %12.0f ns/op, %6.2fx)\n",
				name, after.NsPerOp, baseline.NsPerOp, e.Speedup)
		} else {
			fmt.Printf("%-34s %12.0f ns/op %10d B/op %8d allocs/op\n",
				name, after.NsPerOp, after.BytesPerOp, after.AllocsPerOp)
		}
	}
	add := func(name string, baseline *benchNums, after benchNums) {
		addMeta(name, baseline, after, nil)
	}

	// Zone-map pairs (PR 9): identical queries with pruning live (after) and
	// forced off (baseline). ts is clustered and unindexed, so every page
	// saved is the zone maps' doing; selectivity names the kept fraction.
	zonePairs := []struct {
		name     string
		query    string
		wantRows int
	}{
		{"ZoneSelectiveScan1M1pct", "SELECT id, qty FROM zb WHERE ts >= 990000", 10000},
		{"ZoneGroupBy1M1pct", "SELECT cat, COUNT(id), SUM(qty) FROM zb WHERE ts >= 990000 GROUP BY cat", 8},
		{"ZoneGroupBy1M10pct", "SELECT cat, COUNT(id), SUM(qty) FROM zb WHERE ts >= 900000 GROUP BY cat", 8},
		{"ZoneGroupBy1M100pct", "SELECT cat, COUNT(id), SUM(qty) FROM zb WHERE ts >= 0 GROUP BY cat", 8},
	}
	for _, w := range zonePairs {
		unskipped := runNums(benchZoneQuery(w.query, w.wantRows, true))
		skipped := runNums(benchZoneQuery(w.query, w.wantRows, false))
		addMeta(w.name, &unskipped, skipped, zoneScanMeta(w.query))
	}
	// Dictionary vs plain text scan: the same filtered aggregation over the
	// low-NDV (dictionary-encoded) and high-NDV (plain) text columns.
	plainText := runNums(benchZoneQuery("SELECT COUNT(id) FROM zb WHERE pad = 'p000042'", 1, true))
	dictText := runNums(benchZoneQuery("SELECT COUNT(id) FROM zb WHERE cat = 'c3'", 1, true))
	addMeta("DictVsPlainTextScan1M", &plainText, dictText, map[string]int64{"workers": zoneBenchWorkers})

	// Parallel-vs-serial pairs (PR 8): identical queries over the shared
	// 1M-row table, baseline forced serial, after run by the morsel pool at
	// the worker count in the name. Integer data keeps the parallel
	// aggregation's reassociated SUM/AVG exactly equal to the serial fold.
	parPairs := []struct {
		name     string
		query    string
		wantRows int
		workers  int
	}{
		{"ParFullScan1M8w", "SELECT id, grp, qty FROM big", parBenchRows, 8},
		{"ParPredScan1M8w", "SELECT id FROM big WHERE qty > 450", 0, 8},
		{"ParGroupBy1M2w", "SELECT grp, COUNT(*), SUM(qty), AVG(qty), MIN(id), MAX(id) FROM big GROUP BY grp", parBenchDims, 2},
		{"ParGroupBy1M4w", "SELECT grp, COUNT(*), SUM(qty), AVG(qty), MIN(id), MAX(id) FROM big GROUP BY grp", parBenchDims, 4},
		{"ParGroupBy1M8w", "SELECT grp, COUNT(*), SUM(qty), AVG(qty), MIN(id), MAX(id) FROM big GROUP BY grp", parBenchDims, 8},
		{"ParHashJoin1M8w", "SELECT d.name, COUNT(*) FROM big b JOIN dims d ON b.grp = d.gid AND b.qty > 0 GROUP BY d.name", parBenchDims, 8},
	}
	for _, w := range parPairs {
		serial := runNums(benchParQuery(w.query, w.wantRows, 1))
		par := runNums(benchParQuery(w.query, w.wantRows, w.workers))
		add(w.name, &serial, par)
	}

	// Writer-interference percentiles: read latency for a GROUP BY while a
	// writer churns the same table. One entry per percentile so the report
	// stays in ns_per_op terms; no baseline — every scan is a snapshot scan.
	p50, p99 := benchWriterInterference(20)
	add("WriterInterferenceReadP50", nil, benchNums{NsPerOp: p50})
	add("WriterInterferenceReadP99", nil, benchNums{NsPerOp: p99})

	// Prepared-vs-text point queries (PR 5): the same 50k-row pk point
	// lookup driven as (a) a fresh literal SQL text per call — every call a
	// plan-cache miss that re-lexes, re-parses and re-analyzes — versus (b)
	// one prepared `WHERE id = ?` statement whose plan-cache entry is hit on
	// every execution and whose pk point access path binds its key from the
	// per-execution argument. The streaming variant additionally returns
	// rows through the public iterator instead of materialising.
	textPoint := runNums(benchPointQuery(modeText))
	preparedPoint := runNums(benchPointQuery(modePrepared))
	add("PreparedVsTextPointQuery", &textPoint, preparedPoint)
	preparedStream := runNums(benchPointQuery(modePreparedStream))
	add("PreparedVsTextPointQueryStream", &textPoint, preparedStream)

	// FileStore-vs-MmapStore pairs over the PR 3 scan/point workloads.
	backendPairs := []struct {
		name     string
		query    string
		wantRows int
	}{
		{"MmapVsFilePKPoint", "SELECT v FROM big WHERE id = 10000", 1},
		{"MmapVsFilePKRange", "SELECT id, v FROM big WHERE id BETWEEN 12000 AND 12100", 101},
		{"MmapVsFileTopK", "SELECT id FROM big ORDER BY id DESC LIMIT 10", 10},
		{"MmapVsFileSecondaryLookup", "SELECT id FROM big WHERE g = 137 AND v > 0", 40},
		{"MmapVsFileFullScan", "SELECT COUNT(v) FROM big WHERE v >= 0", 1},
	}
	for _, w := range backendPairs {
		file := runNums(benchBackendQuery(w.query, w.wantRows, false))
		mm := runNums(benchBackendQuery(w.query, w.wantRows, true))
		add(w.name, &file, mm)
	}
	// D1 durable append, group commit 64, both backends.
	fileAppend := runNums(benchD1Append(false))
	mmapAppend := runNums(benchD1Append(true))
	add("MmapVsFileD1Append", &fileAppend, mmapAppend)

	// Cold-open scaling: time tracks the dirty tail, not the row count; the
	// replay-only entry is the pre-page-catalog behaviour.
	add("ColdOpenCheckpointed10kDirty0", nil, runNums(benchColdOpen(10000, 0)))
	add("ColdOpenCheckpointed10kDirty500", nil, runNums(benchColdOpen(10000, 500)))
	add("ColdOpenCheckpointed20kDirty500", nil, runNums(benchColdOpen(20000, 500)))
	add("ColdOpenReplayOnly10k", nil, runNums(benchColdOpen(0, 10000)))

	// Carried access-path pairs (index path vs forced full scan, in memory).
	carriedPairs := []struct {
		name     string
		query    string
		wantRows int
	}{
		{"PKPointLookup", "SELECT v FROM big WHERE id = 25000", 1},
		{"PKRangeScan", "SELECT id, v FROM big WHERE id BETWEEN 30000 AND 30100", 101},
		{"IndexOrderedTopK", "SELECT id FROM big ORDER BY id DESC LIMIT 10", 10},
		{"SecondaryIndexLookup", "SELECT id FROM big WHERE g = 137 AND v > 0", 100},
		{"PKInListProbes", "SELECT id, v FROM big WHERE id IN (11, 222, 3333, 44444)", 4},
	}
	for _, w := range carriedPairs {
		after := runNums(benchAccess(w.query, w.wantRows, false))
		baseline := runNums(benchAccess(w.query, w.wantRows, true))
		add(w.name, &baseline, after)
	}
	carried := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"M2FilterSQL", benchM2},
		{"M3JoinSQL", benchM3},
		{"A5SharedComputationDBSQL", benchA5},
		{"F2aDBSQLQuery", benchF2a},
	}
	for _, w := range carried {
		add(w.name, nil, runNums(w.fn))
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	check(err)
	blob = append(blob, '\n')
	check(os.WriteFile(path, blob, 0o644))
	fmt.Printf("wrote %s\n", path)
}

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }

// pointQueryMode selects how benchPointQuery drives the lookup.
type pointQueryMode int

const (
	modeText pointQueryMode = iota
	modePrepared
	modePreparedStream
)

// benchPointQuery times a pk point lookup over a 50k-row in-memory table,
// with a different key every iteration (the workload the plan cache's text
// keying punishes: each literal text is new, so the text mode re-plans every
// call while the prepared mode binds fresh arguments into one cached plan).
func benchPointQuery(mode pointQueryMode) func(b *testing.B) {
	return func(b *testing.B) {
		ds := core.New(core.Options{})
		defer ds.Close()
		if _, err := ds.Query("CREATE TABLE big (id INT PRIMARY KEY, v NUMERIC)"); err != nil {
			b.Fatal(err)
		}
		const n = 50000
		for i := 0; i < n; i++ {
			if _, err := ds.DB().Insert("big", []sheet.Value{
				sheet.Number(float64(i)), sheet.Number(float64(i) * 2),
			}); err != nil {
				b.Fatal(err)
			}
		}
		ctx := context.Background()
		conn := ds.NewConn()
		var p *sqlexec.Prepared
		if mode != modeText {
			var err error
			if p, err = conn.Prepare("SELECT v FROM big WHERE id = ?"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := (i * 7919) % n
			switch mode {
			case modeText:
				res, err := conn.QueryContext(ctx, fmt.Sprintf("SELECT v FROM big WHERE id = %d", id))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("got %d rows", len(res.Rows))
				}
			case modePrepared:
				res, err := conn.ExecutePrepared(ctx, p, sheet.Number(float64(id)))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("got %d rows", len(res.Rows))
				}
			case modePreparedStream:
				rows, err := conn.StreamPrepared(ctx, p, sheet.Number(float64(id)))
				if err != nil {
					b.Fatal(err)
				}
				got := 0
				for rows.Next() {
					got++
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
				rows.Close()
				if got != 1 {
					b.Fatalf("streamed %d rows", got)
				}
			}
		}
	}
}

// benchBackendQuery builds a durable 20k-row workbook over the chosen page
// backend with a small buffer pool (64 pages), checkpoints it so the table
// pages are on disk, and times one query — scans page in through the
// backend's read path, which is exactly what the FileStore/MmapStore pair
// compares.
func benchBackendQuery(query string, wantRows int, mmap bool) func(b *testing.B) {
	return func(b *testing.B) {
		pool := 64
		path := filepath.Join(b.TempDir(), "book.dsp")
		ds, err := core.OpenFile(path, core.Options{
			Mmap:               mmap,
			BufferPoolPages:    &pool,
			CheckpointWALBytes: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		if _, err := ds.QueryScript(`
			CREATE TABLE big (id INT PRIMARY KEY, g INT, v NUMERIC);
			CREATE INDEX big_g ON big (g);`); err != nil {
			b.Fatal(err)
		}
		const n = 20000
		for i := 0; i < n; i++ {
			if _, err := ds.DB().Insert("big", []sheet.Value{
				sheet.Number(float64(i)), sheet.Number(float64(i % 500)), sheet.Number(float64(i) * 2),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := ds.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ds.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if wantRows > 0 && len(res.Rows) != wantRows {
				b.Fatalf("query %q returned %d rows, want %d", query, len(res.Rows), wantRows)
			}
		}
	}
}

// benchD1Append times the durable append path (group commit 64) over the
// chosen backend.
func benchD1Append(mmap bool) func(b *testing.B) {
	return func(b *testing.B) {
		ds, err := core.OpenFile(filepath.Join(b.TempDir(), "book.dsp"), core.Options{Mmap: mmap})
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		ds.WAL().SetGroupCommit(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wait, err := ds.SetCell("Sheet1", fmt.Sprintf("A%d", i+1), fmt.Sprintf("%d", i))
			if err != nil {
				b.Fatal(err)
			}
			wait()
		}
	}
}

// benchColdOpen builds a workbook with `rows` checkpointed rows plus a
// `tail`-row WAL tail (rows == 0 means a replay-only history of `tail`
// rows), then times OpenFile; Close is excluded from the timing.
func benchColdOpen(rows, tail int) func(b *testing.B) {
	return func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "book.dsp")
		ds, err := core.OpenFile(path, core.Options{CheckpointWALBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ds.Query("CREATE TABLE seq (n INT PRIMARY KEY, v NUMERIC)"); err != nil {
			b.Fatal(err)
		}
		ds.WAL().SetGroupCommit(1 << 20) // build fast; this bench times the open
		for i := 1; i <= rows; i++ {
			if _, err := ds.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d, %d)", i, i*2)); err != nil {
				b.Fatal(err)
			}
		}
		if rows > 0 {
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
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			re, err := core.OpenFile(path, core.Options{CheckpointWALBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := re.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// benchAccess builds the access-path workload table — 50k rows, numeric PK,
// secondary index on g — and times one query, optionally forcing the
// full-scan path so the index speedup is measurable on identical data.
func benchAccess(query string, wantRows int, forceFullScan bool) func(b *testing.B) {
	return func(b *testing.B) {
		ds := core.New(core.Options{})
		if _, err := ds.QueryScript(`
			CREATE TABLE big (id INT PRIMARY KEY, g INT, v NUMERIC);
			CREATE INDEX big_g ON big (g);`); err != nil {
			b.Fatal(err)
		}
		const n = 50000
		for i := 0; i < n; i++ {
			if _, err := ds.DB().Insert("big", []sheet.Value{
				sheet.Number(float64(i)), sheet.Number(float64(i % 500)), sheet.Number(float64(i) * 2),
			}); err != nil {
				b.Fatal(err)
			}
		}
		ds.DB().SetForceFullScan(forceFullScan)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ds.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if wantRows > 0 && len(res.Rows) != wantRows {
				b.Fatalf("query %q returned %d rows, want %d", query, len(res.Rows), wantRows)
			}
		}
	}
}

func benchM2(b *testing.B) {
	ds := core.New(core.Options{})
	sh, _ := ds.Book().Sheet("Sheet1")
	sh.SetValues(sheet.Addr(0, 0), datagen.Gradebook(5000, 5, 1))
	rng := fmt.Sprintf("A1:G%d", 5001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ds.Query(fmt.Sprintf("SELECT student FROM RANGETABLE(%s) WHERE a1 > 90 OR a2 > 90 OR a3 > 90 OR a4 > 90 OR a5 > 90", rng))
		if err != nil || len(res.Rows) == 0 {
			b.Fatal(err)
		}
	}
}

func benchM3(b *testing.B) {
	ds := core.New(core.Options{})
	n := 5000
	sh, _ := ds.Book().Sheet("Sheet1")
	sh.SetValues(sheet.Addr(0, 0), datagen.Gradebook(n, 5, 1))
	_, _ = ds.AddSheet("Demo")
	dsh, _ := ds.Book().Sheet("Demo")
	dsh.SetValues(sheet.Addr(0, 0), datagen.Demographics(n, 2))
	q := fmt.Sprintf("SELECT grp, AVG(grade) FROM RANGETABLE(A1:G%d) NATURAL JOIN RANGETABLE(Demo!A1:C%d) GROUP BY grp", n+1, n+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ds.Query(q)
		if err != nil || len(res.Rows) != 3 {
			b.Fatalf("%v %v", res, err)
		}
	}
}

func benchA5(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait, err := ds.SetCell("Sheet1", "A1", `=DBSQL("SELECT v FROM vals ORDER BY id")`)
		if err != nil {
			b.Fatal(err)
		}
		wait()
	}
}

func benchF2a(b *testing.B) {
	ds := core.New(core.Options{})
	data := datagen.MoviesDataset(5000, 5, 1)
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
	setCell(ds, "Sheet1", "B1", "3")
	setCell(ds, "Sheet1", "B2", "1950")
	b.ReportAllocs()
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
