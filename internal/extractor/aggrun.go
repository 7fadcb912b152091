package extractor

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/query"
)

// RunAggregateContext extracts the AFCs, folding every row that
// survives the residual predicate into partial aggregates for the plan
// — no rows are materialized or emitted. The returned state holds
// un-finalized partials; the caller finalizes locally or merges states
// from several legs first. The plan must be bound against the same
// working layout as opt.Cols.
//
// AFCs are independent units of work (paper Fig. 5), so the fold runs
// on opt.Workers workers (default GOMAXPROCS capped at 8, never more
// than len(afcs)). Workers claim AFC indices from one shared counter,
// and the calling goroutine is one of them: a single worker is a plain
// inline loop. Each worker folds into a private AggState with its own
// block buffers and reader pool; the states merge once, after every
// worker has returned. Aggregation is exact and commutative (see
// internal/query), so the result does not depend on which worker
// claimed which AFC. The first error stops further claims and is
// returned; cancelling ctx returns ctx.Err().
func RunAggregateContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, plan *query.AggPlan) (*query.AggState, Stats, error) {
	start := time.Now()
	src, srcDone := runSource(opt)
	defer srcDone()

	type worker struct {
		state *query.AggState
		stats Stats
		busy  time.Duration
	}
	ws := make([]worker, workerCount(opt, len(afcs)))
	var next atomic.Int64
	var stop atomic.Bool
	var errOnce sync.Once
	var firstErr error
	fold := func(w *worker) {
		begin := time.Now()
		w.state = query.NewAggState(plan)
		pool := newSegPool(src, resolver)
		defer pool.release()
		bb := &blockBuf{}
		for !stop.Load() {
			i := next.Add(1) - 1
			if i >= int64(len(afcs)) {
				break
			}
			if err := extractOne(ctx, &afcs[i], pool, opt, bb, &w.stats, w.state, nil); err != nil {
				errOnce.Do(func() { firstErr = err })
				stop.Store(true)
			}
		}
		w.busy = time.Since(begin)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(ws); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fold(&ws[i])
		}()
	}
	fold(&ws[0])
	wg.Wait()

	state := ws[0].state
	var stats Stats
	var busy time.Duration
	for i := range ws {
		if i > 0 {
			state.Merge(ws[i].state)
		}
		stats.Add(ws[i].stats)
		busy += ws[i].busy
	}
	stats.fitWall(time.Since(start), busy)
	if firstErr != nil {
		return state, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return state, stats, err
	}
	stats.AggPushedQueries = 1
	stats.AggPartialGroups = int64(state.Groups())
	return state, stats, nil
}
