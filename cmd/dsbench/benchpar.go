package main

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// PR 8 workloads: paired serial-vs-parallel executions of the morsel-driven
// executor over one shared 1M-row table, plus a writer-interference latency
// probe for the snapshot-read path. The dataset is built once and reused;
// SetWorkers flips the execution mode between timings, so both
// sides of every pair see identical pages.

const (
	parBenchRows = 1_000_000
	parBenchDims = 256
)

var (
	parDBOnce sync.Once
	parDB     *sqlexec.Database
)

// parBenchDB lazily builds the shared dataset: big (1M rows, 256 groups,
// integer-valued qty so parallel SUM/AVG reassociation stays exact) and dims
// (one row per group).
func parBenchDB() *sqlexec.Database {
	parDBOnce.Do(func() {
		// The pool is sized to hold the whole working set: these pairs
		// measure executor differences, not buffer-pool eviction.
		pool := 1 << 16
		db := sqlexec.NewDatabase(sqlexec.Config{
			Layout: sqlexec.LayoutHybrid, Workers: 8, BufferPoolPages: &pool,
		})
		sess := db.NewSession(nil)
		mustQuery := func(q string) {
			_, err := sess.Query(q)
			check(err)
		}
		mustQuery(`CREATE TABLE big (id NUMBER PRIMARY KEY, grp NUMBER, qty NUMBER)`)
		mustQuery(`CREATE TABLE dims (gid NUMBER PRIMARY KEY, name STRING)`)
		for i := 0; i < parBenchRows; i++ {
			_, err := db.Insert("big", []sheet.Value{
				sheet.Number(float64(i)),
				sheet.Number(float64(i % parBenchDims)),
				sheet.Number(float64(i%1001 - 500)),
			})
			check(err)
		}
		for g := 0; g < parBenchDims; g++ {
			_, err := db.Insert("dims", []sheet.Value{
				sheet.Number(float64(g)), sheet.String_(fmt.Sprintf("dim-%d", g)),
			})
			check(err)
		}
		parDB = db
	})
	return parDB
}

// benchParQuery times one query over the shared dataset with the given
// execution mode: workers == 1 forces the serial executor, anything larger
// runs the morsel pool at that width.
func benchParQuery(query string, wantRows, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		db := parBenchDB()
		db.SetWorkers(workers)
		defer db.SetWorkers(0)
		sess := db.NewSession(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if wantRows > 0 && len(res.Rows) != wantRows {
				b.Fatalf("query %q returned %d rows, want %d", query, len(res.Rows), wantRows)
			}
		}
	}
}

// benchWriterInterference measures read latency percentiles while a writer
// churns rows on the same table. Every scan pins an epoch under a brief lock
// and reads frozen pages, so the writer's lock holds never land in the read
// path. Returns (p50, p99) in nanoseconds over `samples` aggregation queries
// at the configured worker count.
func benchWriterInterference(samples int) (p50, p99 float64) {
	db := parBenchDB()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := i % parBenchRows
			if err := db.Update("big", tablestore.RowID(n+1), []sheet.Value{
				sheet.Number(float64(n)),
				sheet.Number(float64(n % parBenchDims)),
				sheet.Number(float64(n%1001 - 500)),
			}); err != nil {
				check(err)
			}
		}
	}()

	sess := db.NewSession(nil)
	lat := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		start := time.Now()
		res, err := sess.Query(`SELECT grp, COUNT(*), SUM(qty) FROM big GROUP BY grp`)
		check(err)
		if len(res.Rows) != parBenchDims {
			check(fmt.Errorf("interference read returned %d groups, want %d", len(res.Rows), parBenchDims))
		}
		lat = append(lat, time.Since(start))
	}
	close(stop)
	writer.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds())
	}
	return pct(0.50), pct(0.99)
}
