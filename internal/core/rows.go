package core

import (
	"context"
	"errors"
	"time"

	"datavirt/internal/obs"
	"datavirt/internal/schema"
	"datavirt/internal/table"
)

// rowsBuffer caps the rows one cursor batch carries. Producers hand
// the cursor whole batches — an extraction block's survivors, a
// decoded wire frame — and the cursor forwards each as one channel
// operation, splitting only batches larger than this, so the batch
// boundaries (and with them the time to first row) stay the
// producer's, while the rows in flight stay bounded.
const rowsBuffer = 256

// Rows is a streaming cursor over a query's result, in the spirit of
// database/sql.Rows: extraction runs concurrently and rows are pulled
// one at a time, so results of any size are consumed in constant
// memory. The iteration idiom:
//
//	rows, err := svc.QueryContext(ctx, sql)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is not safe for concurrent use. Abandoning a cursor without
// Close leaks the extraction goroutine until the parent context is
// cancelled; always defer Close.
type Rows struct {
	parent context.Context // the caller's ctx, to tell its cancellation from Close's
	cancel context.CancelFunc
	ch     chan rowBatch
	done   chan struct{} // closed after runErr and stats are written

	cols   []string
	batch  rowBatch // the batch Next is walking
	next   int      // index in batch of the row the next Next returns
	cur    table.Row
	err    error
	closed bool

	// Written by the extraction goroutine before done closes.
	runErr error
	stats  obs.QueryStats
}

// rowBatch is one handoff from producer to cursor: n rows of width
// values each, back to back in vals — one allocation per batch.
type rowBatch struct {
	vals     []schema.Value
	width, n int
}

// NewRows adapts a batch-emitting runner into a streaming cursor: run
// is started on its own goroutine with an emit function that hands a
// batch of rows to the cursor (blocking when the consumer lags), and
// the QueryStats it returns become the cursor's Stats. The runner must
// honour ctx cancellation — Close cancels it — and may reuse the rows
// after emit returns: the cursor copies each batch into one exactly
// sized value slab per run of equal-width rows. Runners should emit at
// their natural boundaries (an extraction block, a wire frame) rather
// than accumulate rows, so the first row is never held back for a row
// count. This is the bridge
// both the local service and the cluster coordinator use to present
// one cursor API over push-style execution engines.
func NewRows(ctx context.Context, cols []string, run func(ctx context.Context, emit func([]table.Row) error) (obs.QueryStats, error)) *Rows {
	runCtx, cancel := context.WithCancel(ctx)
	r := &Rows{
		parent: ctx,
		cancel: cancel,
		ch:     make(chan rowBatch, 1),
		done:   make(chan struct{}),
		cols:   cols,
	}
	go func() {
		defer close(r.done)
		defer close(r.ch)
		stats, err := run(runCtx, func(rows []table.Row) error {
			for len(rows) > 0 {
				w, n := len(rows[0]), 1
				for n < len(rows) && n < rowsBuffer && len(rows[n]) == w {
					n++
				}
				b := rowBatch{vals: make([]schema.Value, n*w), width: w, n: n}
				for i, row := range rows[:n] {
					copy(b.vals[i*w:], row)
				}
				select {
				case r.ch <- b:
				case <-runCtx.Done():
					return runCtx.Err()
				}
				rows = rows[n:]
			}
			return nil
		})
		r.stats = stats
		r.runErr = err
	}()
	return r
}

// QueryContext starts the prepared query and returns a streaming
// cursor over its rows. Extraction proceeds concurrently with
// iteration, each extraction block's surviving rows crossing to the
// cursor as one batch; Close cancels whatever is still in flight.
func (p *Prepared) QueryContext(ctx context.Context, opt Options) (*Rows, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return NewRows(ctx, p.Cols, func(runCtx context.Context, emit func([]table.Row) error) (obs.QueryStats, error) {
		start := time.Now()
		stats, err := p.run(runCtx, opt, emit)
		return p.queryStats(stats, time.Since(start)), err
	}), nil
}

// Columns returns the cursor's column names (the SELECT list, *
// expanded).
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, blocking until one is available or
// the query finishes. It returns false at the end of the result set,
// on error (see Err), or after Close.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for r.next == r.batch.n {
		batch, ok := <-r.ch
		if !ok {
			<-r.done // runErr and stats are now visible
			r.err = r.terminalErr()
			r.cur = nil
			return false
		}
		r.batch, r.next = batch, 0
	}
	// A full slice expression: appending to the row reallocates it
	// instead of overwriting the next one.
	lo, hi := r.next*r.batch.width, (r.next+1)*r.batch.width
	r.cur = r.batch.vals[lo:hi:hi]
	r.next++
	return true
}

// Row returns the current row. It is a copy owned by the caller: it
// remains valid across subsequent Next calls, and appending to it
// never modifies another row.
func (r *Rows) Row() table.Row { return r.cur }

// Err returns the error that terminated iteration, if any. It is nil
// while rows remain, after a complete iteration, and after a plain
// Close; it reports the context's error when the parent context was
// cancelled or timed out.
func (r *Rows) Err() error { return r.err }

// Close cancels any in-flight extraction, releases the cursor's
// resources and returns Err. Close is idempotent and safe to call at
// any point of the iteration.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.batch, r.next = rowBatch{}, 0
	r.cancel()
	for range r.ch { // unblock the producer and drain
	}
	<-r.done
	if r.err == nil {
		r.err = r.terminalErr()
	}
	return r.err
}

// terminalErr maps the run's error to the cursor error: cancellation
// triggered by our own Close is not an iteration error (mirroring
// database/sql), but a parent-context cancellation is.
func (r *Rows) terminalErr() error {
	err := r.runErr
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) && r.parent.Err() == nil {
		return nil
	}
	return err
}

// Stats returns the query's observability record: chunk, byte and row
// counters plus per-stage wall times. It is available once the query
// has finished — after Next returned false or Close was called — and
// returns nil while extraction is still running.
func (r *Rows) Stats() *obs.QueryStats {
	select {
	case <-r.done:
		s := r.stats
		return &s
	default:
		return nil
	}
}
