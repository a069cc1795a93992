package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/dataspread/dataspread"
	"github.com/dataspread/dataspread/client"
)

// The shape of TestMultiTenantMixedLoad.
const (
	mixedTenants     = 4
	mixedSessions    = 2
	mixedOpsPerSess  = 150
	mixedSeedRows    = 200
	mixedBuckets     = 20
	mixedWriteEvery  = 5 // 1 write per 5 ops = 20% writes
	mixedSeedAmt     = 1
	mixedInsertAmt   = 2
	mixedUpdateDelta = 3
)

// TestMultiTenantMixedLoad drives one server the way a multi-tenant
// deployment does: four tenants, two concurrent sessions each, every session
// running a mixed statement stream against its own tenant's workbook — 80%
// selective SELECTs, 20% single-row INSERT/UPDATE. Every operation must
// succeed, each tenant's final COUNT/SUM must equal exactly what its
// sessions wrote, and no tenant may see another tenant's table. Run under
// -race (make servecheck).
func TestMultiTenantMixedLoad(t *testing.T) {
	tokens := make(map[string]string, mixedTenants)
	names := make([]string, mixedTenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant%d", i)
		tokens[names[i]] = fmt.Sprintf("token-%d", i)
	}
	_, addr := startServer(t, Config{Tenants: tokens})
	ctx := context.Background()
	table := func(tenant string) string { return "events_" + tenant }

	for _, name := range names {
		c := dialT(t, addr, name, tokens[name])
		if _, err := c.Exec(ctx, fmt.Sprintf("CREATE TABLE %s (id REAL, bucket REAL, amt REAL)", table(name))); err != nil {
			t.Fatal(err)
		}
		if err := c.Begin(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < mixedSeedRows; i++ {
			if _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO %s VALUES (?, ?, ?)", table(name)), i, i%mixedBuckets, mixedSeedAmt); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// written[tenant] accumulates what the tenant's sessions wrote.
	type tally struct{ inserts, updates int }
	var mu sync.Mutex
	written := make(map[string]tally, mixedTenants)
	errs := make(chan error, mixedTenants*mixedSessions)
	var wg sync.WaitGroup
	for ti, name := range names {
		for si := 0; si < mixedSessions; si++ {
			wg.Add(1)
			go func(tenant string, seed int) {
				defer wg.Done()
				errs <- runMixedSession(ctx, addr, tenant, tokens[tenant], table(tenant), seed, func(inserts, updates int) {
					mu.Lock()
					w := written[tenant]
					written[tenant] = tally{w.inserts + inserts, w.updates + updates}
					mu.Unlock()
				})
			}(name, ti*mixedSessions+si+1)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		return
	}

	for _, name := range names {
		w := written[name]
		if w.inserts+w.updates != mixedSessions*mixedOpsPerSess/mixedWriteEvery {
			t.Fatalf("%s: %d writes recorded, want %d", name, w.inserts+w.updates, mixedSessions*mixedOpsPerSess/mixedWriteEvery)
		}
		c := dialT(t, addr, name, tokens[name])
		rows, err := c.Query(ctx, fmt.Sprintf("SELECT COUNT(*), SUM(amt) FROM %s", table(name)))
		if err != nil {
			t.Fatal(err)
		}
		var count, sum float64
		if !rows.Next() {
			t.Fatalf("%s: no aggregate row: %v", name, rows.Err())
		}
		if err := rows.Scan(&count, &sum); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		wantCount := mixedSeedRows + w.inserts
		wantSum := mixedSeedRows*mixedSeedAmt + w.inserts*mixedInsertAmt + w.updates*mixedUpdateDelta
		if int(count) != wantCount || int(sum) != wantSum {
			t.Errorf("%s: COUNT=%v SUM=%v, want %d and %d", name, count, sum, wantCount, wantSum)
		}
		for _, other := range names {
			if other == name {
				continue
			}
			if _, err := c.Exec(ctx, "SELECT COUNT(*) FROM "+table(other)); !errors.Is(err, dataspread.ErrTableNotFound) {
				t.Errorf("%s sees %s's table: %v", name, other, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// runMixedSession is one session of TestMultiTenantMixedLoad:
// mixedOpsPerSess operations, every mixedWriteEvery-th a write alternating
// between an INSERT of a fresh row and an UPDATE adding mixedUpdateDelta to
// a seeded row's amt, the rest a selective per-bucket aggregate. It reports
// its writes through record and returns the first failed or wrong operation.
func runMixedSession(ctx context.Context, addr, tenant, token, table string, seed int, record func(inserts, updates int)) (err error) {
	c, err := client.Dial(addr, client.Config{Tenant: tenant, Token: token})
	if err != nil {
		return fmt.Errorf("%s: dial: %w", tenant, err)
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	sel, err := c.Prepare(fmt.Sprintf("SELECT COUNT(*), SUM(amt) FROM %s WHERE bucket = ?", table))
	if err != nil {
		return err
	}
	ins, err := c.Prepare(fmt.Sprintf("INSERT INTO %s VALUES (?, ?, ?)", table))
	if err != nil {
		return err
	}
	upd, err := c.Prepare(fmt.Sprintf("UPDATE %s SET amt = amt + %d WHERE id = ?", table, mixedUpdateDelta))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	nextID := seed * 1_000_000
	inserts, updates := 0, 0
	defer func() { record(inserts, updates) }()
	for n := 0; n < mixedOpsPerSess; n++ {
		switch {
		case n%mixedWriteEvery == mixedWriteEvery-1 && n/mixedWriteEvery%2 == 0:
			nextID++
			if _, err := ins.Exec(ctx, nextID, rng.Intn(mixedBuckets), mixedInsertAmt); err != nil {
				return fmt.Errorf("%s: insert: %w", tenant, err)
			}
			inserts++
		case n%mixedWriteEvery == mixedWriteEvery-1:
			res, err := upd.Exec(ctx, rng.Intn(mixedSeedRows))
			if err != nil {
				return fmt.Errorf("%s: update: %w", tenant, err)
			}
			if res.RowsAffected != 1 {
				return fmt.Errorf("%s: update touched %d rows, want 1", tenant, res.RowsAffected)
			}
			updates++
		default:
			rows, err := sel.Query(ctx, rng.Intn(mixedBuckets))
			if err != nil {
				return fmt.Errorf("%s: select: %w", tenant, err)
			}
			var count, sum float64
			ok := rows.Next()
			if ok {
				err = rows.Scan(&count, &sum)
			}
			err = errors.Join(err, rows.Err(), rows.Close())
			if err != nil {
				return fmt.Errorf("%s: select: %w", tenant, err)
			}
			// Every bucket holds its seeded rows, each with amt >= 1.
			if !ok || count < mixedSeedRows/mixedBuckets || sum < count {
				return fmt.Errorf("%s: select returned count=%v sum=%v", tenant, count, sum)
			}
		}
	}
	return nil
}
