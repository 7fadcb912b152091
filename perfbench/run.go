package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/gen"
	"datavirt/internal/sqlparser"
)

// setupReps is how many times a run sets the deployment up from
// scratch; setup_s is the median of their times, and the last set-up
// serves the timed window.
const setupReps = 11

// phase is the length of one traced or untraced slice of a traced
// run; alternating them keeps drift out of the tracing overhead.
const phase = 500 * time.Millisecond

// maxSideQueries caps the pool prefix the cursor and merge passes of a
// traced run measure.
const maxSideQueries = 64

// run executes one benchmark invocation and returns its result line;
// the environment and a detail record are printed to out first.
func run(cfg config, out io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	ds, tb, err := prepareData(cfg, w)
	if err != nil {
		return nil, err
	}
	pool, err := preparePool(cfg, w, tb)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the oracle's tables are garbage from here on
	printLine(out, "env", environment(cfg, w, ds))

	traces := newTraceStore()
	var tgt target
	setups := make([]setupTimes, 0, setupReps)
	cpu0 := readHostCPU()
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t, st, err := setUp(w, ds, pool, traces, cfg.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
		if i < setupReps-1 {
			t.close()
		} else {
			tgt = t
		}
	}
	defer tgt.close()
	setupSteal := readHostCPU().stealSince(cpu0)

	r := &result{Metrics: map[string]metric{}}
	var detail map[string]any
	if cfg.trace {
		detail, err = traceRun(cfg, w, ds, pool, tgt, setups, r)
	} else {
		detail, err = endToEndRun(cfg, w, ds, pool, tgt, setups, r)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0
	detail["error_rate"] = metric{float64(r.Failed) / float64(max(r.Attempted, 1)), "fraction"}
	detail["setup_steal_frac"] = setupSteal
	printLine(out, "detail", detail)
	return r, nil
}

// prepareData ensures the workload's dataset exists and builds the
// oracle's copy of it.
func prepareData(cfg config, w *workload) (datasetInfo, *tables, error) {
	var ds datasetInfo
	tb := &tables{}
	var err error
	switch {
	case w.titan:
		spec := titanSpec(cfg.tiny)
		ds.desc, ds.root, err = ensureDataset(cfg.workdir, specKey("titan", spec), func(root string) (string, error) {
			return gen.WriteTitan(root, spec)
		})
		ds.rows = int64(spec.Points)
		tb.titan = newTitanTable(spec)
	default:
		parts, reps, layout := 1, 0, "I"
		if w.cluster {
			parts, reps, layout = 2, 2, "CLUSTER"
		}
		spec := iparsSpec(cfg.tiny, parts, reps)
		ds.desc, ds.root, err = ensureDataset(cfg.workdir, specKey("ipars"+layout, spec), func(root string) (string, error) {
			return gen.WriteIpars(root, spec, layout)
		})
		ds.rows = spec.IparsTotalRows()
		tb.ipars = newIparsTable(spec)
	}
	if err != nil {
		return ds, nil, err
	}
	b, err := storedBytes(ds.root)
	ds.bytes = b.raw
	ds.cacheBudget = defaultCacheBudget
	return ds, tb, err
}

// preparePool draws the query pool and runs the oracle on every
// distinct query, outside any timed window.
func preparePool(cfg config, w *workload, tb *tables) ([]*stmt, error) {
	pool := buildPool(w, cfg.seed, cfg.tiny, tb)
	for _, q := range pool {
		parsed, err := sqlparser.Parse(q.sql)
		if err != nil {
			return nil, fmt.Errorf("pool query %q: %w", q.sql, err)
		}
		q.text = parsed.String()
		q.want = q.oracle()
		q.oracle = nil
	}
	if cfg.corrupt {
		pool[0].want.Sum ^= 1
	}
	return pool, nil
}

// warmQueries are the warm pass: a full-table aggregate that reads
// every block once, then one query of each class.
func warmQueries(w *workload, pool []*stmt) []string {
	full := "SELECT COUNT(*), SUM(X), SUM(SOIL), SUM(SGAS), SUM(SWAT), SUM(POIL), SUM(PGAS) FROM IparsData"
	if w.titan {
		full = "SELECT COUNT(*), SUM(X), MAX(S1), MAX(S5) FROM TitanData"
	}
	out := []string{full}
	for _, q := range pool[:w.classes] {
		out = append(out, q.sql)
	}
	return out
}

func setUp(w *workload, ds datasetInfo, pool []*stmt, traces *traceStore, traced bool) (target, setupTimes, error) {
	if w.cluster {
		return setupCluster(ds, warmQueries(w, pool), traces, traced)
	}
	return setupLocal(ds, warmQueries(w, pool), traces)
}

// sample is one completed, correct query of a closed loop.
type sample struct {
	done    time.Duration // completion, since the loop started
	latency time.Duration
	ttfr    time.Duration
	q       *stmt
}

// loopResult is what a closed loop observed.
type loopResult struct {
	samples     []sample
	attempted   int64
	failed      int64
	wall        time.Duration
	rowsScanned int64
	lt          layerTimes
}

func (r *loopResult) add(o *loopResult) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wall += o.wall
	r.rowsScanned += o.rowsScanned
	r.lt.add(&o.lt)
}

// stream hands pool queries to clients in a fixed cyclic order and
// remembers which ones ran.
type stream struct {
	pool     []*stmt
	next     atomic.Int64
	executed []atomic.Bool
	errOnce  sync.Once
}

func newStream(pool []*stmt) *stream {
	return &stream{pool: pool, executed: make([]atomic.Bool, len(pool))}
}

// report prints the first failure of a run to stderr.
func (s *stream) report(q *stmt, err error) {
	s.errOnce.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: query %q: %v\n", q.sql, err) })
}

// verify compares one execution with the oracle.
func verify(q *stmt, o *outcome, err error) error {
	if err == nil && o.d != q.want {
		err = fmt.Errorf("result digest %+v, oracle %+v", o.d, q.want)
	}
	return err
}

// closedLoop runs clients that each issue their next query only after
// the previous one drained, until dur has elapsed.
func closedLoop(tgt target, s *stream, clients int, dur time.Duration, traced bool) loopResult {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	results := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(s.next.Add(1)-1) % len(s.pool)
				q := s.pool[i]
				if traced && !tgt.store().begin(q) {
					continue // its twin is still in flight
				}
				o, err := tgt.exec(ctx, q, traced)
				if traced && err != nil {
					tgt.store().end(q)
				}
				s.executed[i].Store(true)
				r.attempted++
				if err := verify(q, &o, err); err != nil {
					r.failed++
					s.report(q, err)
					continue
				}
				r.samples = append(r.samples, sample{done: time.Since(start), latency: o.latency, ttfr: o.ttfr, q: q})
				r.rowsScanned += o.stats.RowsScanned
				r.lt.add(&o.lt)
			}
		}(&results[c])
	}
	wg.Wait()
	var total loopResult
	for i := range results {
		total.add(&results[i])
	}
	total.wall = time.Since(start)
	return total
}

// checkRest runs, outside the timed window, every pool query the
// window did not reach, so each distinct query is checked once.
func checkRest(tgt target, s *stream, r *result) {
	for i, q := range s.pool {
		if s.executed[i].Load() {
			continue
		}
		o, err := tgt.exec(context.Background(), q, false)
		r.Attempted++
		if err := verify(q, &o, err); err != nil {
			r.Failed++
			s.report(q, err)
		}
	}
}

// heapSampler records the peak of live-and-unswept heap bytes.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	return float64(<-h.peak) / (1 << 20)
}

// subWindows is how many equal slices the timed window is cut into
// for the end-to-end metrics: each metric is computed per slice and
// the mean over slices reported. On a shared host the machine's speed
// switches between a fast and a slow state every few seconds; the mean
// moves in proportion to the share of slices in each state, where a
// median or quartile jumps from one state to the other.
const subWindows = 20

// windowStats are the end-to-end figures of one slice of the window.
type windowStats struct {
	p50, p90, ttfr time.Duration
	qps            float64
}

// sliceStats computes windowStats over the samples completed in
// [from, to). ttfr is taken over row-returning queries, whose first
// row can arrive before the last; an aggregate's first row waits for
// the whole fold, so all-aggregate workloads use every query.
func sliceStats(samples []sample, from, to time.Duration) (windowStats, bool) {
	var lat, ttfr, ttfrAgg []time.Duration
	for _, sm := range samples {
		if sm.done < from || sm.done >= to {
			continue
		}
		lat = append(lat, sm.latency)
		if sm.q.agg {
			ttfrAgg = append(ttfrAgg, sm.ttfr)
		} else {
			ttfr = append(ttfr, sm.ttfr)
		}
	}
	if len(lat) == 0 {
		return windowStats{}, false
	}
	if len(ttfr) == 0 {
		ttfr = ttfrAgg
	}
	return windowStats{
		p50:  percentile(lat, 50),
		p90:  percentile(lat, 90),
		ttfr: percentile(ttfr, 50),
		qps:  float64(len(lat)) / (to - from).Seconds(),
	}, true
}

func endToEndRun(cfg config, w *workload, ds datasetInfo, pool []*stmt, tgt target, setups []setupTimes, r *result) (map[string]any, error) {
	s := newStream(pool)
	runtime.GC()
	heap := startHeapSampler()
	cpu0 := readHostCPU()
	loop := closedLoop(tgt, s, w.clients, seconds(cfg.seconds), false)
	peak := heap.finish()
	windowSteal := readHostCPU().stealSince(cpu0)
	r.Attempted, r.Failed = loop.attempted, loop.failed
	checkRest(tgt, s, r)
	var slices []windowStats
	for k := 0; k < subWindows; k++ {
		from, to := loop.wall*time.Duration(k)/subWindows, loop.wall*time.Duration(k+1)/subWindows
		if ws, ok := sliceStats(loop.samples, from, to); ok {
			slices = append(slices, ws)
		}
	}
	if len(slices) == 0 {
		return nil, fmt.Errorf("no query completed in the timed window")
	}
	disk, err := storedBytes(ds.root)
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	mean := func(f func(windowStats) float64) float64 {
		var sum float64
		for _, ws := range slices {
			sum += f(ws)
		}
		return sum / float64(len(slices))
	}
	totals := make([]time.Duration, len(setups))
	for i, st := range setups {
		totals[i] = st.total
	}
	m := r.Metrics
	m["setup_s"] = metric{median(totals).Seconds(), "s"}
	m["latency_p50_ms"] = metric{mean(func(ws windowStats) float64 { return ms(ws.p50) }), "ms"}
	m["ttfr_p50_ms"] = metric{mean(func(ws windowStats) float64 { return ms(ws.ttfr) }), "ms"}
	m["qps"] = metric{mean(func(ws windowStats) float64 { return ws.qps }), "queries/s"}
	m["peak_heap_mb"] = metric{peak, "MiB"}
	m["stored_bytes_ratio"] = metric{float64(disk.stored) / float64(disk.raw), "ratio"}

	byClass := map[string][]time.Duration{}
	all := make([]time.Duration, len(loop.samples))
	for i, sm := range loop.samples {
		byClass[sm.q.class] = append(byClass[sm.q.class], sm.latency)
		all[i] = sm.latency
	}
	classP50 := map[string]float64{}
	for c, v := range byClass {
		classP50[c] = ms(median(v))
	}
	// The tail is reported here, not gated: on a shared host it is set
	// by interference from outside the process and does not repeat run
	// to run. latency_tail_ms is at the highest percentile with at
	// least ten samples beyond it.
	tailPct := max(50, 100*(1-10/float64(len(all))))
	return map[string]any{
		"latency_p90_ms":    metric{mean(func(ws windowStats) float64 { return ms(ws.p90) }), "ms"},
		"latency_tail_ms":   metric{ms(percentile(all, tailPct)), "ms"},
		"tail_percentile":   tailPct,
		"class_p50_ms":      classP50,
		"samples":           len(all),
		"latency_q1_ms":     ms(percentile(all, 25)),
		"latency_q3_ms":     ms(percentile(all, 75)),
		"slice_qps":         sliceValues(slices, func(ws windowStats) float64 { return ws.qps }),
		"slice_p50_ms":      sliceValues(slices, func(ws windowStats) float64 { return ms(ws.p50) }),
		"slice_ttfr_ms":     sliceValues(slices, func(ws windowStats) float64 { return ms(ws.ttfr) }),
		"slice_p90_ms":      sliceValues(slices, func(ws windowStats) float64 { return ms(ws.p90) }),
		"setup_totals_s":    durSeconds(totals),
		"window_steal_frac": windowSteal,
	}, nil
}

func sliceValues(slices []windowStats, f func(windowStats) float64) []float64 {
	out := make([]float64, len(slices))
	for i, ws := range slices {
		out[i] = f(ws)
	}
	return out
}

// runtimeCounters reads the runtime metrics a traced run reports.
func runtimeCounters() (allocs, allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64(), s[3].Value.Float64()
}

func traceRun(cfg config, w *workload, ds datasetInfo, pool []*stmt, tgt target, setups []setupTimes, r *result) (map[string]any, error) {
	ctx := context.Background()
	m := r.Metrics
	per := func(v float64, n int64) float64 { return v / float64(max(n, 1)) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := func(d time.Duration, n int64) float64 { return per(float64(d)/1e6, n) }
	us := func(d time.Duration, n int64) float64 { return per(float64(d)/1e3, n) }

	// Set-up layers: medians over the set-ups.
	pick := func(f func(setupTimes) time.Duration) time.Duration {
		v := make([]time.Duration, len(setups))
		for i, st := range setups {
			v[i] = f(st)
		}
		return median(v)
	}
	m["metadata.parse_ms"] = metric{ms(pick(func(s setupTimes) time.Duration { return s.parse }), 1), "ms"}
	m["core.open_ms"] = metric{ms(pick(func(s setupTimes) time.Duration { return s.open }), 1), "ms"}
	m["sparse.build_s"] = metric{pick(func(s setupTimes) time.Duration { return s.build }).Seconds(), "s"}
	disk, err := storedBytes(ds.root)
	if err != nil {
		return nil, err
	}
	m["sparse.sidecar_bytes"] = metric{float64(disk.sidecars), "bytes"}
	m["cluster.start_ms"] = metric{ms(pick(func(s setupTimes) time.Duration { return s.start }), 1), "ms"}
	m["setup.warm_s"] = metric{pick(func(s setupTimes) time.Duration { return s.warm }).Seconds(), "s"}

	// Counters pass: one sequential pass over the pool straight after
	// set-up, so the counts depend on the seed alone.
	var c struct {
		n, chunksPlanned, chunksRead, skipped, spHits, spMisses  int64
		hits, misses, fsBytes, bytesRead, scanned, emitted, vecs int64
		groups, sent                                             int64
	}
	pc0, ev0 := tgt.planCache(), tgt.evictions()
	for _, q := range pool {
		st, sent, err := tgt.counters(ctx, q)
		r.Attempted++
		if err != nil {
			r.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: counters pass %q: %v\n", q.sql, err)
			continue
		}
		c.n++
		c.chunksPlanned += int64(st.ChunksPlanned)
		c.chunksRead += int64(st.ChunksRead)
		c.skipped += st.BlocksSkipped
		c.spHits += st.SparseIndexHits
		c.spMisses += st.SparseIndexMisses
		c.hits += st.CacheHits
		c.misses += st.CacheMisses
		c.fsBytes += st.FSBytesRead
		c.bytesRead += st.BytesRead
		c.scanned += st.RowsScanned
		c.emitted += st.RowsEmitted
		c.vecs += st.VectorBatches
		c.groups += st.AggPartialGroups
		c.sent += sent
	}
	pc1, ev1 := tgt.planCache(), tgt.evictions()
	m["core.plancache_hit_ratio"] = metric{ratio(pc1.Hits-pc0.Hits, pc1.Hits-pc0.Hits+pc1.Misses-pc0.Misses), "ratio"}
	m["afc.chunks_planned_per_query"] = metric{per(float64(c.chunksPlanned), c.n), "count"}
	m["afc.chunks_read_per_query"] = metric{per(float64(c.chunksRead), c.n), "count"}
	m["sparse.blocks_skipped_per_query"] = metric{per(float64(c.skipped), c.n), "count"}
	m["sparse.hit_ratio"] = metric{ratio(c.spHits, c.spHits+c.spMisses), "ratio"}
	m["cache.hit_ratio"] = metric{ratio(c.hits, c.hits+c.misses), "ratio"}
	m["cache.fs_bytes_per_query"] = metric{per(float64(c.fsBytes), c.n), "bytes"}
	m["cache.evictions_per_query"] = metric{per(float64(ev1-ev0), c.n), "count"}
	m["extractor.bytes_read_per_query"] = metric{per(float64(c.bytesRead), c.n), "bytes"}
	m["extractor.rows_scanned_per_query"] = metric{per(float64(c.scanned), c.n), "count"}
	m["extractor.vector_batches_per_query"] = metric{per(float64(c.vecs), c.n), "count"}
	m["query.selectivity"] = metric{ratio(c.emitted, c.scanned), "ratio"}
	m["query.partial_groups_per_query"] = metric{per(float64(c.groups), c.n), "count"}
	m["cluster.sent_bytes_per_query"] = metric{per(float64(c.sent), c.n), "bytes"}

	// Cursor and merge passes over a prefix of the pool.
	var cursor time.Duration
	var cursorRows, cursorN, mergeN int64
	var merge time.Duration
	for _, q := range pool[:min(len(pool), maxSideQueries)] {
		d, run, rows, ok, err := tgt.cursorCost(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("cursor pass %q: %w", q.sql, err)
		}
		if ok {
			cursor += d - run
			cursorRows += rows
			cursorN++
		}
		if q.agg {
			d, err := tgt.mergeCost(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("merge pass %q: %w", q.sql, err)
			}
			merge += d
			mergeN++
		}
	}
	m["core.cursor_ms"] = metric{ms(cursor, cursorN), "ms"}
	m["core.cursor_ns_per_row"] = metric{ratio(int64(cursor), cursorRows), "ns"}
	m["query.merge_us"] = metric{us(merge, mergeN), "us"}

	// Timed window: untraced and traced phases alternate.
	s := newStream(pool)
	var plain, traced loopResult
	var rt [4]float64
	store := tgt.store()
	deadline := time.Now().Add(seconds(cfg.seconds))
	for i := 0; time.Now().Before(deadline); i++ {
		d := min(phase, time.Until(deadline))
		if i%2 == 0 {
			a0, b0, g0, t0 := runtimeCounters()
			l := closedLoop(tgt, s, w.clients, d, false)
			a1, b1, g1, t1 := runtimeCounters()
			rt[0], rt[1], rt[2], rt[3] = rt[0]+a1-a0, rt[1]+b1-b0, rt[2]+g1-g0, rt[3]+t1-t0
			plain.add(&l)
		} else {
			store.enabled.Store(true)
			l := closedLoop(tgt, s, w.clients, d, true)
			store.enabled.Store(false)
			traced.add(&l)
		}
	}
	r.Attempted += plain.attempted + traced.attempted
	r.Failed += plain.failed + traced.failed
	checkRest(tgt, s, r)

	lt := &traced.lt
	n := lt.queries
	m["sqlparser.parse_us"] = metric{us(lt.parse, n), "us"}
	m["core.prepare_us"] = metric{us(lt.prepare, n), "us"}
	m["core.plan_us"] = metric{us(lt.plan, n), "us"}
	m["afc.index_us"] = metric{us(lt.index, n), "us"}
	m["extractor.self_ms"] = metric{ms(lt.extractSelf, n), "ms"}
	m["extractor.ns_per_row"] = metric{ratio(int64(lt.extractSelf), lt.rowsScanned), "ns"}
	m["query.filter_self_ms"] = metric{ms(lt.filter, n), "ms"}
	m["query.agg_self_ms"] = metric{ms(lt.agg, n), "ms"}
	m["query.agg_ns_per_row"] = metric{ratio(int64(lt.agg), lt.aggRows), "ns"}
	var netMS, queueMS, firstMS, redis, shed float64
	if w.cluster {
		netMS, queueMS, firstMS = ms(lt.net, n), ms(lt.queue, n), ms(lt.firstRow, n)
		redis, shed = per(float64(lt.redispatch), n), per(float64(lt.shed), n)
	}
	m["cluster.net_ms"] = metric{netMS, "ms"}
	m["cluster.queue_ms"] = metric{queueMS, "ms"}
	m["cluster.first_frame_ms"] = metric{firstMS, "ms"}
	m["cluster.redispatches_per_query"] = metric{redis, "count"}
	m["cluster.shed_per_query"] = metric{shed, "count"}
	m["runtime.allocs_per_row"] = metric{rt[0] / float64(max(plain.rowsScanned, 1)), "count"}
	m["runtime.alloc_bytes_per_query"] = metric{rt[1] / float64(max(len(plain.samples), 1)), "bytes"}
	m["runtime.gc_cpu_frac"] = metric{rt[2] / math.Max(rt[3], 1e-9), "fraction"}
	var unattributed float64
	if lt.wall > 0 {
		unattributed = 1 - float64(lt.explained)/float64(lt.wall)
	}
	m["trace.unattributed_frac"] = metric{unattributed, "fraction"}
	qpsPlain := float64(len(plain.samples)) / plain.wall.Seconds()
	qpsTraced := float64(len(traced.samples)) / traced.wall.Seconds()
	m["trace.overhead_frac"] = metric{1 - qpsTraced/qpsPlain, "fraction"}

	store.mu.Lock()
	orphans := store.orphans
	store.mu.Unlock()
	return map[string]any{
		"counted_queries":  c.n,
		"traced_queries":   n,
		"untraced_queries": len(plain.samples),
		"qps_untraced":     qpsPlain,
		"qps_traced":       qpsTraced,
		"orphan_spans":     orphans,
		"cursor_queries":   cursorN,
		"merge_queries":    mergeN,
	}, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// percentile returns the nearest-rank p-th percentile.
func percentile(v []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(v []time.Duration) time.Duration { return percentile(v, 50) }

func durSeconds(v []time.Duration) []float64 {
	out := make([]float64, len(v))
	for i, d := range v {
		out[i] = d.Seconds()
	}
	return out
}

// hostCPU is the machine-wide CPU time split of /proc/stat, in ticks.
type hostCPU struct{ busy, steal int64 }

// readHostCPU reads /proc/stat; it returns zeros where that file is
// missing.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var user, nice, system, idle, iowait, irq, softirq, steal int64
	fmt.Sscanf(line, "cpu %d %d %d %d %d %d %d %d", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal) //nolint:errcheck — zeros on a short line
	return hostCPU{busy: user + nice + system + irq + softirq, steal: steal}
}

// stealSince returns the share of CPU time the hypervisor withheld
// from this machine's runnable work since c0: a reading of outside
// load that explains a slow run, reported beside the metrics.
func (c hostCPU) stealSince(c0 hostCPU) float64 {
	busy, steal := c.busy-c0.busy, c.steal-c0.steal
	if busy+steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}
