package sqlexec

import (
	"context"
	"errors"
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// Streaming execution. StreamPrepared delivers a SELECT from its own goroutine
// and hands rows to the caller through a bounded channel. It is the same
// pipeline Query runs (openSelect) with a sink that parks: a statement whose
// result order is its input order (no grouping, ordering or DISTINCT)
// streams straight out of the scan — through join probes, whose build sides
// alone are materialised — without holding the result, stopping the scan as
// soon as the consumer goes away (Close / context cancellation) or the LIMIT
// is satisfied. Statements that need the whole input (GROUP BY, ORDER BY,
// DISTINCT) materialise internally — the iterator surface and the
// cancellation behaviour are identical, only the memory profile differs.

// streamBuffer is the row-channel capacity: small enough to keep a slow
// consumer from pinning many rows, large enough to decouple producer and
// consumer scheduling.
const streamBuffer = 64

// errStreamDone is the internal sentinel limitCut returns to stop the
// pipeline early (LIMIT satisfied); it never escapes resultStream.deliver.
var errStreamDone = errors.New("sqlexec: stream done")

// Rows is a streaming query result. It is not safe for concurrent use.
// Callers must exhaust it (Next returning false) or Close it; abandoning a
// Rows without either leaks the producer goroutine until the parent context
// fires.
type Rows struct {
	cols   []string
	ch     chan []sheet.Value
	cancel context.CancelFunc
	parent context.Context

	cur    []sheet.Value
	err    error // producer's terminal error; valid once ch is closed
	closed bool
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, reporting whether one is available. After
// Next returns false, Err distinguishes exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	row, ok := <-r.ch
	if !ok {
		r.cur = nil
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row (valid after a true Next; owned by the
// caller).
func (r *Rows) Row() []sheet.Value { return r.cur }

// Err returns the error that terminated iteration, if any. A Close before
// exhaustion is not an error; cancellation of the caller's context is.
func (r *Rows) Err() error {
	if r.err == nil {
		return nil
	}
	if r.closed && errors.Is(r.err, context.Canceled) && (r.parent == nil || r.parent.Err() == nil) {
		// The cancellation was our own Close, not the caller's context.
		return nil
	}
	return r.err
}

// Close stops the query, releases the producer goroutine and discards any
// unread rows. It is idempotent and safe after exhaustion.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancel()
	// Drain until the producer closes the channel, so Close never leaves a
	// goroutine parked on a send.
	for range r.ch {
	}
	r.cur = nil
	return nil
}

// StreamPrepared executes a prepared SELECT, returning a streaming row
// iterator. Planning and binding errors — and every error of a statement
// that materialises before its first row — surface here synchronously;
// row-production errors of a streamed statement surface through Rows.Err.
func (s *Session) StreamPrepared(ctx context.Context, p *Prepared, args ...sheet.Value) (*Rows, error) {
	sel, ok := p.stmt.(*sqlparser.SelectStmt)
	if !ok || p.sel == nil {
		return nil, fmt.Errorf("sqlexec: cannot stream %T (only SELECT): %w", p.stmt, dberr.ErrUnsupported)
	}
	env, err := s.execEnv(ctx, p, args)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	env.cancel = poller{ctx: cctx}
	// Planning, binding and — for statements that need all their input —
	// execution happen here, on the caller's goroutine; only delivery runs
	// beside the consumer.
	out, err := s.db.openSelect(sel, p.sel, env, true)
	if err != nil {
		cancel()
		return nil, err
	}
	r := &Rows{
		cols:   out.names,
		ch:     make(chan []sheet.Value, streamBuffer),
		cancel: cancel,
		parent: ctx,
	}
	go func() {
		defer close(r.ch)
		r.err = out.deliver(env, func(row []sheet.Value) error {
			select {
			case r.ch <- row:
				return nil
			case <-cctx.Done():
				return cctx.Err()
			}
		})
	}()
	return r, nil
}
