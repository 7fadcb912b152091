package main

import (
	"context"
	"fmt"
	"time"

	"datavirt/internal/cluster"
	"datavirt/internal/core"
	"datavirt/internal/metadata"
	"datavirt/internal/obs"
	"datavirt/internal/query"
	"datavirt/internal/sparse"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// outcome is one query execution as the client saw it.
type outcome struct {
	d       digest
	latency time.Duration // issue → drained cursor
	ttfr    time.Duration // issue → first Rows.Next returned
	stats   obs.QueryStats
	lt      layerTimes // per-layer times, when traced
}

// target is one deployment of the engine under test.
type target interface {
	// exec runs one query through the public API and drains it; traced
	// queries report stage spans to the target's traceStore.
	exec(ctx context.Context, q *stmt, traced bool) (outcome, error)
	// counters runs one query untraced and returns its counters and
	// the result bytes the cluster legs sent (0 locally).
	counters(ctx context.Context, q *stmt) (obs.QueryStats, int64, error)
	// cursorCost times a Prepared.QueryContext drain and a
	// Prepared.RunContext with a counting emit on the same prepared
	// query; ok is false where the cursor is not measured.
	cursorCost(ctx context.Context, q *stmt) (drain, run time.Duration, rows int64, ok bool, err error)
	// mergeCost times AggState.EncodeChunks + MergeEncoded on the
	// query's partial aggregates.
	mergeCost(ctx context.Context, q *stmt) (time.Duration, error)
	evictions() int64
	planCache() core.PlanCacheStats
	store() *traceStore
	close()
}

// setupTimes records one set-up of a target.
type setupTimes struct {
	parse, open, build, start, warm, total time.Duration
}

// drain consumes a cursor into a digest.
func drain(rows *core.Rows, start time.Time, o *outcome) error {
	first := true
	for rows.Next() {
		if first {
			o.ttfr = time.Since(start)
			first = false
		}
		o.d.addRow(rows.Row())
	}
	if first {
		o.ttfr = time.Since(start)
	}
	return rows.Close()
}

// localTarget is a core.Service in this process.
type localTarget struct {
	svc    *core.Service
	traces *traceStore
}

func setupLocal(ds datasetInfo, warm []string, traces *traceStore) (*localTarget, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	d, err := metadata.ParseFile(ds.desc)
	if err != nil {
		return nil, st, err
	}
	st.parse = time.Since(t0)
	t1 := time.Now()
	if _, err := sparse.BuildDataset(d, sparse.NodeResolver(ds.root), sparse.BuildOptions{}, nil); err != nil {
		return nil, st, err
	}
	st.build = time.Since(t1)
	t2 := time.Now()
	svc, err := core.Open(ds.desc, ds.root)
	if err != nil {
		return nil, st, err
	}
	st.open = time.Since(t2)
	l := &localTarget{svc: svc, traces: traces}
	t3 := time.Now()
	if err := warmUp(l, warm); err != nil {
		l.close()
		return nil, st, err
	}
	st.warm = time.Since(t3)
	st.total = time.Since(t0)
	return l, st, nil
}

// warmUp runs the warm pass: fills the block cache, loads sidecars and
// readies sessions before the first timed query.
func warmUp(t target, warm []string) error {
	for _, sql := range warm {
		if _, err := t.exec(context.Background(), &stmt{sql: sql}, false); err != nil {
			return fmt.Errorf("warm pass %q: %w", sql, err)
		}
	}
	return nil
}

func (l *localTarget) exec(ctx context.Context, q *stmt, traced bool) (outcome, error) {
	var o outcome
	start := time.Now()
	parsed, err := sqlparser.Parse(q.sql)
	if err != nil {
		return o, err
	}
	tParsed := time.Now()
	if traced {
		ctx = obs.WithTracer(ctx, stageTracer{store: l.traces, side: sideClient})
	}
	prep, err := l.svc.PrepareParsedContext(ctx, parsed)
	if err != nil {
		return o, err
	}
	tPrepared := time.Now()
	rows, err := prep.QueryContext(ctx, core.Options{})
	if err != nil {
		return o, err
	}
	err = drain(rows, start, &o)
	end := time.Now()
	o.latency = end.Sub(start)
	if s := rows.Stats(); s != nil {
		o.stats = *s
	}
	if err != nil || !traced {
		return o, err
	}
	st := l.traces.end(q)
	lt := &o.lt
	fillLayers(lt, q, &o, &st)
	lt.parse = tParsed.Sub(start)
	lt.prepare = tPrepared.Sub(tParsed)
	lt.drain = end.Sub(tPrepared)
	// The drain span is explained by extraction and the cursor handoff;
	// prepare only by its plan and index stages.
	lt.explained = lt.parse + lt.plan + lt.index + lt.drain
	return o, nil
}

// fillLayers sets the layer times common to both targets.
func fillLayers(lt *layerTimes, q *stmt, o *outcome, st *stageTimes) {
	lt.queries = 1
	lt.wall = o.latency
	lt.firstRow = o.ttfr
	lt.plan = st.sum(obs.StagePlan)
	lt.index = st.sum(obs.StageIndex)
	lt.filter = st.sum(obs.StageFilter)
	lt.agg = st.sum(obs.StageAggregate)
	lt.extractSelf = st.sum(obs.StageExtract) - lt.filter - lt.agg
	lt.rowsScanned = o.stats.RowsScanned
	if q.agg {
		lt.aggQueries = 1
		lt.aggRows = o.stats.RowsScanned
	}
	lt.queue = o.stats.QueueTime
	lt.net = o.stats.NetTime
	lt.redispatch = o.stats.LegRedispatches
	lt.shed = o.stats.ShedQueries
}

func (l *localTarget) counters(ctx context.Context, q *stmt) (obs.QueryStats, int64, error) {
	o, err := l.exec(ctx, q, false)
	return o.stats, 0, verify(q, &o, err)
}

func (l *localTarget) cursorCost(ctx context.Context, q *stmt) (drainD, runD time.Duration, rows int64, ok bool, err error) {
	prep, err := l.svc.PrepareContext(ctx, q.sql)
	if err != nil {
		return 0, 0, 0, false, err
	}
	drainD, runD = time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		rows = 0
		if _, err := prep.RunContext(ctx, core.Options{}, func(table.Row) error { rows++; return nil }); err != nil {
			return 0, 0, 0, false, err
		}
		runD = min(runD, time.Since(t0))
		t1 := time.Now()
		cur, err := prep.QueryContext(ctx, core.Options{})
		if err != nil {
			return 0, 0, 0, false, err
		}
		for cur.Next() {
		}
		if err := cur.Close(); err != nil {
			return 0, 0, 0, false, err
		}
		drainD = min(drainD, time.Since(t1))
	}
	return drainD, runD, rows, true, nil
}

func (l *localTarget) mergeCost(ctx context.Context, q *stmt) (time.Duration, error) {
	prep, err := l.svc.PrepareContext(ctx, q.sql)
	if err != nil || prep.Agg == nil {
		return 0, err
	}
	state, _, err := prep.RunAggPartialContext(ctx, core.Options{})
	if err != nil {
		return 0, err
	}
	return timeMerge(prep.Agg, state)
}

// timeMerge times encoding partial states into wire chunks and merging
// them into a fresh state, as a coordinator does with leg partials.
func timeMerge(plan *query.AggPlan, partials ...*query.AggState) (time.Duration, error) {
	t0 := time.Now()
	dst := query.NewAggState(plan)
	for _, p := range partials {
		for _, chunk := range p.EncodeChunks(0) {
			if err := dst.MergeEncoded(chunk); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

func (l *localTarget) evictions() int64               { return l.svc.CacheStats().Evictions }
func (l *localTarget) planCache() core.PlanCacheStats { return l.svc.PlanCacheStats() }
func (l *localTarget) store() *traceStore             { return l.traces }
func (l *localTarget) close()                         { l.svc.Close() } //nolint:errcheck — teardown

// clusterTarget is two in-process node servers on loopback behind one
// Coordinator.
type clusterTarget struct {
	nodes  []*cluster.Node
	svcs   []*core.Service
	names  []string
	coord  *cluster.Coordinator
	traces *traceStore
}

func setupCluster(ds datasetInfo, warm []string, traces *traceStore, traced bool) (*clusterTarget, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	d, err := metadata.ParseFile(ds.desc)
	if err != nil {
		return nil, st, err
	}
	st.parse = time.Since(t0)
	t1 := time.Now()
	if _, err := sparse.BuildDataset(d, sparse.NodeResolver(ds.root), sparse.BuildOptions{}, nil); err != nil {
		return nil, st, err
	}
	st.build = time.Since(t1)
	c := &clusterTarget{traces: traces}
	t2 := time.Now()
	addrs := map[string]string{}
	var names []string
	for i := 0; i == 0 || i < len(names); i++ {
		to := time.Now()
		svc, err := core.Open(ds.desc, ds.root)
		if err != nil {
			c.close()
			return nil, st, err
		}
		st.open += time.Since(to)
		if i == 0 {
			names = svc.AllNodes() // one server per node the descriptor names
		}
		name := names[i]
		node, err := cluster.StartNode(context.Background(), name, svc, "127.0.0.1:0")
		if err != nil {
			svc.Close() //nolint:errcheck — teardown after a failed start
			c.close()
			return nil, st, err
		}
		node.Logf = func(string, ...any) {}
		if traced {
			node.Tracer = stageTracer{store: traces, side: sideNode}
		}
		c.nodes, c.svcs, c.names = append(c.nodes, node), append(c.svcs, svc), append(c.names, name)
		addrs[name] = node.Addr()
	}
	c.coord, err = cluster.NewCoordinator(d, addrs)
	if err != nil {
		c.close()
		return nil, st, err
	}
	st.start = time.Since(t2) - st.open
	t3 := time.Now()
	if err := warmUp(c, warm); err != nil {
		c.close()
		return nil, st, err
	}
	st.warm = time.Since(t3)
	st.total = time.Since(t0)
	return c, st, nil
}

func (c *clusterTarget) exec(ctx context.Context, q *stmt, traced bool) (outcome, error) {
	var o outcome
	var parse time.Duration
	if traced {
		// The coordinator parses inside QueryContext; the parser's cost
		// is timed on its own, outside the query's wall time.
		p0 := time.Now()
		if _, err := sqlparser.Parse(q.sql); err != nil {
			return o, err
		}
		parse = time.Since(p0)
		ctx = obs.WithTracer(ctx, stageTracer{store: c.traces, side: sideClient})
	}
	start := time.Now()
	rows, err := c.coord.QueryContext(ctx, q.sql)
	if err != nil {
		return o, err
	}
	tIssued := time.Now()
	err = drain(rows, start, &o)
	end := time.Now()
	o.latency = end.Sub(start)
	if s := rows.Stats(); s != nil {
		o.stats = *s
	}
	if err != nil || !traced {
		return o, err
	}
	st := c.traces.end(q)
	lt := &o.lt
	fillLayers(lt, q, &o, &st)
	lt.parse = parse
	lt.prepare = tIssued.Sub(start)
	lt.drain = end.Sub(tIssued)
	// The coordinator's plan and index stages and its fan-out (net)
	// explain the client's wait; parse, merge and cursor glue do not.
	lt.explained = min(o.latency, st.get(sideClient, obs.StagePlan)+st.get(sideClient, obs.StageIndex)+o.stats.NetTime)
	return o, nil
}

func (c *clusterTarget) counters(ctx context.Context, q *stmt) (obs.QueryStats, int64, error) {
	rows, res, err := c.coord.CollectQueryContext(ctx, q.sql)
	if err != nil {
		return obs.QueryStats{}, 0, err
	}
	var o outcome
	for _, r := range rows {
		o.d.addRow(r)
	}
	return res.QueryStats, res.SentBytes, verify(q, &o, nil)
}

func (c *clusterTarget) cursorCost(context.Context, *stmt) (time.Duration, time.Duration, int64, bool, error) {
	return 0, 0, 0, false, nil
}

// mergeCost builds each node's partial the way its leg does (the AFCs
// homed on that node) and merges them as the coordinator does.
func (c *clusterTarget) mergeCost(ctx context.Context, q *stmt) (time.Duration, error) {
	var plan *query.AggPlan
	var partials []*query.AggState
	for i, svc := range c.svcs {
		prep, err := svc.PrepareContext(ctx, q.sql)
		if err != nil || prep.Agg == nil {
			return 0, err
		}
		state, _, err := prep.RunAggPartialContext(ctx, core.Options{NodeFilter: c.names[i]})
		if err != nil {
			return 0, err
		}
		plan = prep.Agg
		partials = append(partials, state)
	}
	return timeMerge(plan, partials...)
}

func (c *clusterTarget) evictions() int64 {
	var n int64
	for _, svc := range c.svcs {
		n += svc.CacheStats().Evictions
	}
	return n
}

func (c *clusterTarget) planCache() core.PlanCacheStats { return c.coord.PlanCacheStats() }
func (c *clusterTarget) store() *traceStore             { return c.traces }

func (c *clusterTarget) close() {
	if c.coord != nil {
		c.coord.Close() //nolint:errcheck — teardown
	}
	for _, n := range c.nodes {
		n.Close() //nolint:errcheck — teardown
	}
	for _, svc := range c.svcs {
		svc.Close() //nolint:errcheck — teardown
	}
}
