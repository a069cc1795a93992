package sqlexec

import (
	"fmt"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// TestConcurrentFirstUseAfterReopen: right after a reopen every zone catalog
// is an undecoded payload and every index a bare fence list; the first
// bounded scan, bounded fetch, index seek or write decodes or builds them.
// Readers sharing the engine read lock race to that first use while one
// writer updates and inserts. Each reader must see exactly what a twin that
// was never reopened returns, and under -race no reader may write a field
// that another reader's snapshot copies. Every round reopens afresh, so the
// first use is raced more than once.
func TestConcurrentFirstUseAfterReopen(t *testing.T) {
	const n, rounds, writesPerRound, readers = 3000, 4, 20, 4
	// The writer only moves rows with ids near n past ts 100000 and adds
	// rows past ts 200000, so no read below changes its answer meanwhile.
	reads := []string{
		"SELECT id, v FROM ev WHERE ts BETWEEN 200 AND 260",
		"SELECT id, ts FROM ev WHERE v = 7 AND ts < 1000",
		"SELECT id, ts FROM ev WHERE id BETWEEN 1000 AND 1040",
		"SELECT id, v FROM ev WHERE v < 5 AND ts < 2000 ORDER BY v DESC LIMIT 5",
		"SELECT COUNT(*), SUM(v) FROM ev WHERE ts <= 1500",
	}
	final := append([]string{
		"SELECT * FROM ev ORDER BY id",
		"SELECT id, ts FROM ev WHERE ts > 100000",
		"SELECT id FROM ev WHERE v = 7 AND ts > 150000",
	}, reads...)
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			build := func() (*Database, *Session) {
				db := NewDatabase(Config{GroupSize: shape.GroupSize, Backend: pager.NewStore()})
				s := db.NewSession(newFakeSheets())
				mustExec(t, s, "CREATE TABLE ev (id INT PRIMARY KEY, ts NUMERIC, v NUMERIC)")
				mustExec(t, s, "CREATE INDEX ev_v ON ev (v)")
				for i := 1; i <= n; i++ {
					row := []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i)), sheet.Number(float64(i % 50))}
					if _, err := db.Insert("ev", row); err != nil {
						t.Fatal(err)
					}
				}
				return db, s
			}
			_, rs := build()
			want := make([]*Result, len(reads))
			for i, q := range reads {
				want[i] = mustExec(t, rs, q)
			}
			db, _ := build()
			for round := 0; round < rounds; round++ {
				db = reopenDB(t, db)
				var writes []string
				for j := 0; j < writesPerRound; j++ {
					k := round*writesPerRound + j
					writes = append(writes,
						fmt.Sprintf("UPDATE ev SET ts = ts + 100000, v = 7 WHERE id = %d", n-k),
						fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d)", n+1+k, 200000+k, k%50))
				}
				start := make(chan struct{})
				done := make(chan struct{})
				var wg, firstPass sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					if r%2 == 1 {
						firstPass.Add(1)
					}
					go func(r int) {
						defer wg.Done()
						s := db.NewSession(newFakeSheets())
						<-start
						if r%2 == 0 {
							// A bare COUNT(*) pins a snapshot, copying the
							// store's structure, and decodes nothing: spun
							// next to the first uses, it would overlap a
							// reader that wrote a store field.
							lo, hi := n+round*writesPerRound, n+(round+1)*writesPerRound
							for {
								got, err := s.Query("SELECT COUNT(*) FROM ev")
								if err != nil || got.Rows[0][0].Num < float64(lo) || got.Rows[0][0].Num > float64(hi) {
									t.Errorf("round %d reader %d: COUNT(*) = %v, %v; want %d..%d", round, r, got, err, lo, hi)
									return
								}
								select {
								case <-done:
									return
								default:
								}
							}
						}
						// The other readers start on different queries, so
						// the first uses collide.
						passed := sync.OnceFunc(firstPass.Done)
						defer passed()
						for i := 0; ; i++ {
							if i == len(reads) {
								passed()
							}
							q := (i + r/2) % len(reads)
							got, err := s.Query(reads[q])
							if err != nil {
								t.Errorf("round %d reader %d: %s: %v", round, r, reads[q], err)
								return
							}
							if diff := resultsEqual(want[q], got); diff != "" {
								t.Errorf("round %d reader %d: %s: %s", round, r, reads[q], diff)
								return
							}
							select {
							case <-done:
								if i >= len(reads) {
									return
								}
							default:
							}
						}
					}(r)
				}
				ws := db.NewSession(newFakeSheets())
				close(start)
				if round%2 == 1 {
					// Readers alone: a writer's lock cycles would order
					// their first uses and hide a reader's store write from
					// the race detector.
					firstPass.Wait()
				}
				for _, q := range writes {
					if _, err := ws.Query(q); err != nil {
						t.Errorf("round %d: %s: %v", round, q, err)
					}
				}
				close(done)
				wg.Wait()
				if t.Failed() {
					return
				}
				for _, q := range writes {
					mustExec(t, rs, q)
				}
			}
			s := db.NewSession(newFakeSheets())
			for _, q := range final {
				if diff := resultsEqual(mustExec(t, rs, q), mustExec(t, s, q)); diff != "" {
					t.Fatalf("%s: %s", q, diff)
				}
			}
			if err := db.ValidateZones(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
