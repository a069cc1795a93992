package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dataspread/dataspread"
	"github.com/dataspread/dataspread/client"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/wire"
)

// startServer launches a Server on a loopback listener and returns it with
// its address. The server is shut down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.DataRoot == "" {
		cfg.DataRoot = t.TempDir()
	}
	if cfg.Tenants == nil {
		cfg.Tenants = map[string]string{"t1": "secret1", "t2": "secret2"}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr, tenant, token string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Config{Tenant: tenant, Token: token})
	if err != nil {
		t.Fatalf("dial %s as %s: %v", addr, tenant, err)
	}
	return c
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServeEndToEnd(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialT(t, addr, "t1", "secret1")
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "CREATE TABLE kv (k TEXT, v REAL)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("INSERT INTO kv VALUES (:key, :val)")
	if err != nil {
		t.Fatal(err)
	}
	if got := ins.ParamNames(); len(got) != 2 || got[0] != "key" || got[1] != "val" {
		t.Fatalf("ParamNames = %v", got)
	}
	for i := 0; i < 10; i++ {
		res, err := ins.Exec(ctx, dataspread.Named("val", float64(i)), dataspread.Named("key", fmt.Sprintf("k%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("affected = %d", res.RowsAffected)
		}
	}
	// Positional binding of the same named statement over the wire.
	if _, err := ins.Exec(ctx, "k10", 10.0); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, "SELECT k, v FROM kv WHERE v >= :min ORDER BY k", dataspread.Named("min", 5))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var sum float64
	for rows.Next() {
		var k string
		var v float64
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		got = append(got, k)
		sum += v
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != "k05" || sum != 5+6+7+8+9+10 {
		t.Fatalf("rows = %v sum = %v", got, sum)
	}

	// Transactions: rollback undoes, commit persists.
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "DELETE FROM kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO kv VALUES ('tx', 99)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	var n int
	rows, err = c.Query(ctx, "SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		if err := rows.Scan(&n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("count = %d, want 12", n)
	}

	// Typed errors cross the wire.
	if _, err := c.Exec(ctx, "SELECT * FROM no_such_table"); !errors.Is(err, dataspread.ErrTableNotFound) {
		t.Fatalf("err = %v, want ErrTableNotFound", err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO kv VALUES (?)"); !errors.Is(err, dataspread.ErrParamCount) {
		t.Fatalf("err = %v, want ErrParamCount", err)
	}

	// A row count no int can hold is a typed error, not a panic that takes
	// every tenant down with the process; the largest one that fits
	// saturates OFFSET+LIMIT instead of wrapping. The server still answers.
	if _, err := c.Query(ctx, "SELECT k FROM kv ORDER BY k LIMIT 9223372036854775807"); !errors.Is(err, dberr.ErrSyntax) {
		t.Fatalf("err = %v, want a syntax error", err)
	}
	rows, err = c.Query(ctx, "SELECT k FROM kv ORDER BY k LIMIT 9223372036854774784 OFFSET 10")
	if err != nil {
		t.Fatal(err)
	}
	for n = 0; rows.Next(); n++ {
	}
	if err := rows.Close(); err != nil || n != 2 {
		t.Fatalf("huge LIMIT after OFFSET 10: %d rows, err %v; want 2", n, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Stats reflect the traffic.
	stats, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	tenants, ok := stats["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing tenants: %v", stats)
	}
	t1, ok := tenants["t1"].(map[string]any)
	if !ok || t1["execs"].(float64) < 10 || t1["queries"].(float64) < 2 {
		t.Fatalf("t1 stats = %v", t1)
	}
}

func TestAuth(t *testing.T) {
	_, addr := startServer(t, Config{})
	if _, err := client.Dial(addr, client.Config{Tenant: "t1", Token: "wrong"}); !errors.Is(err, dberr.ErrAuth) {
		t.Fatalf("bad token: %v, want ErrAuth", err)
	}
	if _, err := client.Dial(addr, client.Config{Tenant: "nobody", Token: "secret1"}); !errors.Is(err, dberr.ErrAuth) {
		t.Fatalf("unknown tenant: %v, want ErrAuth", err)
	}
	if _, err := client.Dial(addr, client.Config{Tenant: "../../etc/passwd", Token: "x"}); !errors.Is(err, dberr.ErrAuth) {
		t.Fatalf("path-metachar tenant: %v, want ErrAuth", err)
	}
}

// seedBig creates a table with enough bytes that streaming it fills socket
// buffers (so the producer genuinely blocks when the consumer stalls).
func seedBig(t *testing.T, c *client.Client, rows int) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE big (id REAL, pad TEXT)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 1024)
	ins, err := c.Prepare("INSERT INTO big VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(ctx, float64(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMidStreamErrorFrame is the regression test for the silent-truncation
// bug class: a query that fails after the row header has been delivered
// must terminate the stream with a typed error frame, never a clean DONE.
// Cancellation mid-stream is the deterministic way to inject such a fault.
func TestMidStreamErrorFrame(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialT(t, addr, "t1", "secret1")
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	seedBig(t, c, 8000)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Query(ctx, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if n++; n == 50 {
			// Stall so the 8 MB result jams the socket (the server cannot
			// finish), land the cancel mid-stream, give the server's reader
			// a beat to apply it, then drain what remains.
			cancel()
			time.Sleep(150 * time.Millisecond)
		}
	}
	err = rows.Err()
	if err == nil {
		t.Fatalf("stream ended cleanly after %d rows; want a typed mid-stream error", n)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream err = %v, want context.Canceled classification", err)
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("mid-stream err %v did not arrive as a typed error frame", err)
	}
	if err := rows.Close(); err == nil {
		t.Fatal("Close after mid-stream error lost the error")
	}
	// The session survives a canceled query.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectMidStreamCancels proves a vanished client cancels its query
// promptly: counters drain to zero instead of leaking a goroutine blocked
// on a dead socket.
func TestDisconnectMidStreamCancels(t *testing.T) {
	srv, addr := startServer(t, Config{})
	seeder := dialT(t, addr, "t1", "secret1")
	seedBig(t, seeder, 4000)
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	// Speak the protocol raw so the disconnect is abrupt: no goodbye, no
	// cancel, just a dead socket mid-stream.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var b wire.Buf
	b.Uvarint(wire.ProtocolVersion)
	b.String("t1")
	b.String("secret1")
	if err := wire.WriteFrame(conn, wire.MsgHello, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.MsgHelloOK {
		t.Fatalf("handshake: %v %v", typ, err)
	}
	b.Reset()
	b.Uvarint(1)
	b.String("SELECT id, pad FROM big")
	if err := wire.WriteFrame(conn, wire.MsgPrepare, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.MsgPrepareOK {
		t.Fatalf("prepare: %v %v", typ, err)
	}
	b.Reset()
	b.Uvarint(1)
	b.Byte(wire.ExecModeQuery)
	b.Uvarint(0)
	b.Uvarint(0)
	if err := wire.WriteFrame(conn, wire.MsgExecute, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.MsgRowHeader {
		t.Fatalf("row header: %v %v", typ, err)
	}
	waitFor(t, "query in flight", func() bool { return srv.ActiveQueries() == 1 })
	// Hang up without reading the stream.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "active queries to drain", func() bool { return srv.ActiveQueries() == 0 })
	waitFor(t, "active sessions to drain", func() bool { return srv.ActiveSessions() == 0 })
}

func TestIdleTimeoutReap(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	c := dialT(t, addr, "t1", "secret1")
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("active sessions = %d", got)
	}
	waitFor(t, "idle session reaped", func() bool { return srv.ActiveSessions() == 0 })
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded on a reaped session")
	}
	if got := srv.Stats().Tenants["t1"].IdleReaps; got != 1 {
		t.Fatalf("idle reaps = %d, want 1", got)
	}
	if err := c.Close(); err != nil {
		_ = err // socket already reaped server-side; close error is expected noise
	}
}

// TestLRUEvictionUnderStreams: with a one-handle pool, a second tenant's
// traffic runs over cap while the first streams (no eviction of a busy
// handle), then evicts the first tenant's handle once it drains — and the
// first tenant's session transparently reopens and re-prepares on its next
// command.
func TestLRUEvictionUnderStreams(t *testing.T) {
	srv, addr := startServer(t, Config{MaxOpenDBs: 1})
	c1 := dialT(t, addr, "t1", "secret1")
	defer func() {
		if err := c1.Close(); err != nil {
			t.Error(err)
		}
	}()
	seedBig(t, c1, 8000)
	q1, err := c1.Prepare("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}

	// t1 streams; its handle holds a reference for the whole stream.
	ctx := context.Background()
	rows, err := c1.Query(ctx, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	for read < 10 && rows.Next() {
		read++
	}
	if read != 10 {
		t.Fatalf("read %d rows before pause: %v", read, rows.Err())
	}

	// t2 works concurrently: the pool runs over cap rather than evicting
	// the busy t1 handle mid-stream.
	c2 := dialT(t, addr, "t2", "secret2")
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := c2.Exec(ctx, "CREATE TABLE other (x REAL)"); err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Tenants["t1"].Evictions != 0 {
		t.Fatal("busy t1 handle was evicted mid-stream")
	}

	// t1 finishes its stream; every delivered row must be intact.
	total := read
	for rows.Next() {
		total++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if total != 8000 {
		t.Fatalf("streamed %d rows, want 8000", total)
	}

	// Now t2's next command can evict t1's drained handle...
	if _, err := c2.Exec(ctx, "INSERT INTO other VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "t1 evicted", func() bool { return srv.Stats().Tenants["t1"].Evictions >= 1 })
	// ...and t1's prepared statement still works: the session rebinds and
	// re-prepares against the reopened workbook.
	rows, err = q1.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for rows.Next() {
		if err := rows.Scan(&n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("post-eviction count = %d, want 8000", n)
	}
}

// TestAdmissionRejection: with a single per-tenant slot and a stalled
// consumer holding it, further traffic for that tenant is rejected with
// ErrOverloaded after the bounded queue wait — while another tenant's lane
// stays open.
func TestAdmissionRejection(t *testing.T) {
	srv, addr := startServer(t, Config{
		TenantInflight: 1,
		TenantQueue:    1,
		QueueWait:      100 * time.Millisecond,
	})
	c1 := dialT(t, addr, "t1", "secret1")
	defer func() {
		if err := c1.Close(); err != nil {
			t.Error(err)
		}
	}()
	seedBig(t, c1, 8000)

	// Hold t1's only slot: start a stream and stop consuming. 8 MB of
	// rows cannot fit in socket buffers, so the server worker stays inside
	// streamQuery with the admission slot held.
	hold := dialT(t, addr, "t1", "secret1")
	rows, err := hold.Query(context.Background(), "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Rows holds the client's command slot: release it (cancel+drain)
		// before closing the connection, or Close would block on the lock.
		if err := rows.Close(); err != nil {
			_ = err // cancellation error is expected here
		}
		if err := hold.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	waitFor(t, "slot held", func() bool { return srv.ActiveQueries() == 1 })

	// t1's next query waits its bounded turn, then is rejected typed.
	c1b := dialT(t, addr, "t1", "secret1")
	defer func() {
		if err := c1b.Close(); err != nil {
			t.Error(err)
		}
	}()
	_, err = c1b.Exec(context.Background(), "INSERT INTO big VALUES (9999, 'y')")
	if !errors.Is(err, dataspread.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := srv.Stats().Tenants["t1"].AdmissionRejected; got < 1 {
		t.Fatalf("admission_rejected = %d", got)
	}

	// The noisy tenant saturated its own lane only: t2 proceeds.
	c2 := dialT(t, addr, "t2", "secret2")
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := c2.Exec(context.Background(), "CREATE TABLE t2ok (x REAL)"); err != nil {
		t.Fatalf("t2 blocked by t1's overload: %v", err)
	}
}

// TestGracefulShutdownDrain: Shutdown must let an in-flight stream finish —
// every row arrives, then the session ends.
func TestGracefulShutdownDrain(t *testing.T) {
	cfg := Config{DataRoot: t.TempDir(), Tenants: map[string]string{"t1": "secret1"}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c := dialT(t, ln.Addr().String(), "t1", "secret1")
	seedBig(t, c, 3000)
	rows, err := c.Query(context.Background(), "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// New connections are refused once draining...
	waitFor(t, "listener closed", func() bool {
		_, derr := client.Dial(ln.Addr().String(), client.Config{Tenant: "t1", Token: "secret1", DialTimeout: 200 * time.Millisecond})
		return derr != nil
	})
	// ...but the in-flight stream completes to the last row.
	total := 1
	for rows.Next() {
		total++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream truncated by shutdown: %v", err)
	}
	if total != 3000 {
		t.Fatalf("streamed %d rows through shutdown, want 3000", total)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := c.Close(); err != nil {
		_ = err // server already gone
	}
}

// TestReadOnlyOverTheWire: a degraded workbook flags read-only at handshake
// and rejects writes with a typed ErrReadOnly while reads keep working.
func TestReadOnlyOverTheWire(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dialT(t, addr, "t1", "secret1")
	if _, err := c.Exec(context.Background(), "CREATE TABLE r (x REAL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO r VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	if c.ReadOnly() {
		t.Fatal("healthy tenant flagged read-only")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Degrade the tenant's live handle through the pool.
	e, err := srv.pool.Acquire("t1")
	if err != nil {
		t.Fatal(err)
	}
	e.db.Degrade(fmt.Errorf("test: simulated torn WAL append: %w", dberr.ErrIO))
	srv.pool.Release(e)

	c = dialT(t, addr, "t1", "secret1")
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !c.ReadOnly() {
		t.Fatal("degraded tenant not flagged read-only at handshake")
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO r VALUES (8)"); !errors.Is(err, dataspread.ErrReadOnly) {
		t.Fatalf("write on degraded tenant: %v, want ErrReadOnly", err)
	}
	rows, err := c.Query(context.Background(), "SELECT COUNT(*) FROM r")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for rows.Next() {
		if err := rows.Scan(&n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("read on degraded tenant = %d rows, want 1", n)
	}
}

// TestTenantIsolation: two tenants never see each other's tables.
func TestTenantIsolation(t *testing.T) {
	_, addr := startServer(t, Config{})
	c1 := dialT(t, addr, "t1", "secret1")
	c2 := dialT(t, addr, "t2", "secret2")
	defer func() {
		if err := c1.Close(); err != nil {
			t.Error(err)
		}
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	if _, err := c1.Exec(ctx, "CREATE TABLE private1 (x REAL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec(ctx, "SELECT * FROM private1"); !errors.Is(err, dataspread.ErrTableNotFound) {
		t.Fatalf("t2 saw t1's table: %v", err)
	}
}

// TestDecodeArgsAllocationBoundedByFrame: an EXECUTE argument section of a
// few bytes that claims 16 Mi positional (or named) arguments is refused
// without allocating in proportion to the claim.
func TestDecodeArgsAllocationBoundedByFrame(t *testing.T) {
	for name, payload := range map[string][]byte{
		"positional": binary.AppendUvarint(nil, 16<<20),
		"named":      binary.AppendUvarint([]byte{0}, 16<<20),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeArgs(wire.NewReader(payload))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, dberr.ErrProtocol) {
			t.Fatalf("%s: err = %v, want ErrProtocol", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(payload), grew)
		}
	}
}
