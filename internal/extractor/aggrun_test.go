package extractor

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/cache/cachetest"
	"datavirt/internal/filter"
	"datavirt/internal/gen"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
	"datavirt/internal/table"
)

// Tests of the work-claiming aggregate runner: whatever the worker
// count, RunAggregateContext must finalize to exactly the rows a
// single-worker fold and a per-row ObserveRow oracle produce, stop on
// the first error or cancellation, and leave no goroutine behind.

// aggAttrs is the working layout of the hand-built aggregate fixture:
// two AFC-implicit keys and three stored attributes.
var aggAttrs = []schema.Attribute{
	{Name: "REL", Kind: schema.Int},
	{Name: "TIME", Kind: schema.Int},
	{Name: "G", Kind: schema.Short},
	{Name: "V", Kind: schema.Double},
	{Name: "W", Kind: schema.Float},
}

func aggLookup(name string) (int, bool) {
	for i, a := range aggAttrs {
		if a.Name == name {
			return i, true
		}
	}
	return 0, false
}

// aggFixture is a randomized set of AFCs over in-memory files, plus
// every row they hold in working layout (the oracle's input).
type aggFixture struct {
	fs   *cachetest.FS
	afcs []afc.AFC
	rows []table.Row
}

// Adversarial stored values: signed zeros, NaNs, infinities and
// magnitudes whose sums cancel.
var (
	trickyDoubles = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e308, -1e308, 1e-300, 3, -3, 0.1}
	trickyFloats = []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 3.4e38, -3.4e38, 1.5, -2.25}
)

// newAggFixture builds nAFCs AFCs of up to maxRows rows each. Each AFC
// is laid out either row-interleaved (G, V, W in one segment, either
// byte order) or split (G and W in one file, V in another); AFCs share
// files, so workers' reader pools overlap.
func newAggFixture(rng *rand.Rand, nAFCs, maxRows int) *aggFixture {
	fx := &aggFixture{fs: cachetest.NewFS()}
	files := map[string][]byte{}
	for i := 0; i < nAFCs; i++ {
		n := int64(rng.Intn(maxRows + 1))
		rel, tm := int64(rng.Intn(3)), int64(rng.Intn(4))
		a := afc.AFC{
			NumRows: n, Node: "n",
			Implicits: []afc.Implicit{
				{Name: "REL", Value: schema.Value{Kind: schema.Int, Int: rel}},
				{Name: "TIME", Value: schema.Value{Kind: schema.Int, Int: tm}},
			},
		}
		layout := rng.Intn(3)
		big := layout == 1
		rowFile := "rows_le.bin"
		if big {
			rowFile = "rows_be.bin"
		}
		gwOff, vOff, rowOff := int64(len(files["gw.bin"])), int64(len(files["v.bin"])), int64(len(files[rowFile]))
		order := binary.ByteOrder(binary.LittleEndian)
		if big {
			order = binary.BigEndian
		}
		for r := int64(0); r < n; r++ {
			g := int16(rng.Intn(5) - 2)
			v := trickyDoubles[rng.Intn(len(trickyDoubles))]
			if rng.Intn(3) > 0 {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
			w := trickyFloats[rng.Intn(len(trickyFloats))]
			if rng.Intn(3) > 0 {
				w = float32(rng.Float64())
			}
			var rec [14]byte
			order.PutUint16(rec[0:], uint16(g))
			order.PutUint64(rec[2:], math.Float64bits(v))
			order.PutUint32(rec[10:], math.Float32bits(w))
			if layout < 2 {
				files[rowFile] = append(files[rowFile], rec[:]...)
			} else {
				files["gw.bin"] = append(files["gw.bin"], rec[0], rec[1], rec[10], rec[11], rec[12], rec[13])
				files["v.bin"] = append(files["v.bin"], rec[2:10]...)
			}
			fx.rows = append(fx.rows, table.Row{
				{Kind: schema.Int, Int: rel},
				{Kind: schema.Int, Int: tm},
				{Kind: schema.Short, Int: int64(g)},
				{Kind: schema.Double, Float: v},
				{Kind: schema.Float, Float: float64(w)},
			})
		}
		if layout < 2 {
			a.Segments = []afc.Segment{{
				Node: "n", File: rowFile, Offset: rowOff, RowStride: 14, RowBytes: 14, BigEndian: big,
				Attrs: []afc.SegAttr{
					{Name: "G", Kind: schema.Short, Off: 0},
					{Name: "V", Kind: schema.Double, Off: 2},
					{Name: "W", Kind: schema.Float, Off: 10},
				},
			}}
		} else {
			a.Segments = []afc.Segment{
				{Node: "n", File: "gw.bin", Offset: gwOff, RowStride: 6, RowBytes: 6, Attrs: []afc.SegAttr{
					{Name: "G", Kind: schema.Short, Off: 0},
					{Name: "W", Kind: schema.Float, Off: 2},
				}},
				{Node: "n", File: "v.bin", Offset: vOff, RowStride: 8, RowBytes: 8, Attrs: []afc.SegAttr{
					{Name: "V", Kind: schema.Double, Off: 0},
				}},
			}
		}
		fx.afcs = append(fx.afcs, a)
	}
	for name, data := range files {
		fx.fs.PutBytes(name, data)
	}
	// Every AFC's files exist even when no row landed in them.
	for _, name := range []string{"rows_le.bin", "rows_be.bin", "gw.bin", "v.bin"} {
		if _, ok := files[name]; !ok {
			fx.fs.PutBytes(name, nil)
		}
	}
	return fx
}

// source returns a block source over the fixture's files; disabled
// caches issue one physical read per block, which the fault tests
// count on.
func (fx *aggFixture) source(t testing.TB, disabled bool) cache.Source {
	c := cache.New(cache.Config{Disabled: disabled, MaxBytes: 8 << 20, BlockBytes: 4096, OpenFile: fx.fs.Open})
	t.Cleanup(func() { c.Close() })
	return c
}

// aggQuery is one compiled aggregate query over aggAttrs.
type aggQuery struct {
	plan *query.AggPlan
	pred query.Predicate // nil without a WHERE clause
	vec  *query.VectorPredicate
}

func compileAggQuery(t testing.TB, sql string) aggQuery {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	sch, err := schema.New("T", aggAttrs)
	if err != nil {
		t.Fatal(err)
	}
	var aq aggQuery
	if aq.plan, err = query.BuildAggPlan(q, sch); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if err := aq.plan.Bind(aggLookup); err != nil {
		t.Fatal(err)
	}
	if q.Where != nil {
		reg := filter.NewRegistry()
		if aq.pred, err = query.CompilePredicate(q.Where, aggLookup, reg); err != nil {
			t.Fatal(err)
		}
		if aq.vec, err = query.CompileVectorPredicate(q.Where, aggLookup, reg); err != nil {
			t.Fatal(err)
		}
	}
	return aq
}

// oracle folds the fixture's rows one at a time, in AFC order.
func (aq aggQuery) oracle(rows []table.Row) [][]schema.Value {
	st := query.NewAggState(aq.plan)
	for _, r := range rows {
		if aq.pred == nil || aq.pred(r) {
			st.ObserveRow(r)
		}
	}
	return st.Finalize()
}

var allAggs = "COUNT(*), SUM(V), MIN(V), MAX(V), AVG(V), SUM(W), MIN(W), MAX(W), AVG(W), SUM(G), MIN(G), MAX(G), AVG(G)"

var aggDiffQueries = []string{
	"SELECT " + allAggs + " FROM T",
	"SELECT REL, " + allAggs + " FROM T GROUP BY REL",
	"SELECT REL, TIME, " + allAggs + " FROM T GROUP BY REL, TIME",
	"SELECT G, COUNT(*), SUM(V), MIN(W), AVG(W) FROM T GROUP BY G",
	"SELECT V, COUNT(*), SUM(W), MAX(G) FROM T GROUP BY V",
	"SELECT TIME, W, COUNT(*), AVG(V), MIN(V) FROM T WHERE G >= 0 GROUP BY TIME, W",
	"SELECT COUNT(*), SUM(V), MAX(W) FROM T WHERE V > 0 AND TIME < 3",
}

// sameAggRows asserts identical finalized rows: kinds, integers and
// float bit patterns.
func sameAggRows(t *testing.T, label string, want, got [][]schema.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Kind != b.Kind || a.Int != b.Int || math.Float64bits(a.Float) != math.Float64bits(b.Float) {
				t.Fatalf("%s: row %d col %d = %+v, want %+v", label, i, j, b, a)
			}
		}
	}
}

// TestRunAggregateWorkersDifferential runs every query over randomized
// fixtures with 1, 2, 3, 8 and more-than-AFCs workers, on both filter
// paths, and demands the oracle's rows from each run.
func TestRunAggregateWorkersDifferential(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		fx := newAggFixture(rng, 1+rng.Intn(24), 300)
		src := fx.source(t, rng.Intn(2) == 0)
		blockBytes := 16 << rng.Intn(9)
		for _, sql := range aggDiffQueries {
			aq := compileAggQuery(t, sql)
			want := aq.oracle(fx.rows)
			for _, scalar := range []bool{false, true} {
				opt := Options{Cols: aggAttrs, Pred: aq.pred, VecPred: aq.vec, ScalarFilter: scalar,
					BlockBytes: blockBytes, Source: src}
				for _, workers := range []int{1, 2, 3, 8, len(fx.afcs) + 3} {
					opt.Workers = workers
					label := fmt.Sprintf("seed %d, %d AFCs, scalar=%v, workers=%d: %s", seed, len(fx.afcs), scalar, workers, sql)
					st, stats, err := RunAggregateContext(context.Background(), fx.afcs, DirResolver(""), opt, aq.plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameAggRows(t, label, want, st.Finalize())
					if stats.AFCs != len(fx.afcs) || stats.AggPushedQueries != 1 || stats.AggPartialGroups != int64(st.Groups()) {
						t.Fatalf("%s: stats %+v", label, stats)
					}
				}
			}
		}
	}
}

// TestRunAggregateEmpty folds zero AFCs into an empty state.
func TestRunAggregateEmpty(t *testing.T) {
	aq := compileAggQuery(t, "SELECT COUNT(*) FROM T")
	st, stats, err := RunAggregateContext(context.Background(), nil, DirResolver(""), Options{Cols: aggAttrs}, aq.plan)
	if err != nil || st.Groups() != 0 || stats.AggPushedQueries != 1 {
		t.Fatalf("empty run: groups %d, stats %+v, err %v", st.Groups(), stats, err)
	}
}

// hookSource wraps a Source so every ReadAt first calls hook (the
// wrapper hides cache.Viewer, so every span goes through ReadAt).
type hookSource struct {
	cache.Source
	hook func()
}

type hookReader struct {
	cache.Reader
	hook func()
}

func (s hookSource) Open(path string) (cache.Reader, error) {
	r, err := s.Source.Open(path)
	if err != nil {
		return nil, err
	}
	return hookReader{Reader: r, hook: s.hook}, nil
}

func (r hookReader) ReadAt(p []byte, off int64) (int, error) {
	r.hook()
	return r.Reader.ReadAt(p, off)
}

// waitGoroutines waits for the goroutine count to fall back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after the run", before, g)
	}
}

// TestRunAggregateCancelled cancels the run from inside a worker's
// read: the run returns ctx.Err(), claims no further AFCs and leaves
// no goroutine behind.
func TestRunAggregateCancelled(t *testing.T) {
	fx := newAggFixture(rand.New(rand.NewSource(7)), 120, 64)
	aq := compileAggQuery(t, "SELECT REL, COUNT(*), SUM(V) FROM T GROUP BY REL")
	base := fx.source(t, true)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reads atomic.Int64
	src := hookSource{Source: base, hook: func() {
		if reads.Add(1) == 10 {
			cancel()
		}
	}}
	_, stats, err := RunAggregateContext(ctx, fx.afcs, DirResolver(""),
		Options{Cols: aggAttrs, Workers: 4, BlockBytes: 64, Source: src}, aq.plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.AFCs >= len(fx.afcs) {
		t.Errorf("cancelled run still claimed all %d AFCs", stats.AFCs)
	}
	waitGoroutines(t, before)

	// A context cancelled before the run starts fails it too.
	_, _, err = RunAggregateContext(ctx, fx.afcs, DirResolver(""), Options{Cols: aggAttrs, Source: base}, aq.plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v", err)
	}
}

// TestRunAggregateReadFault injects an I/O error into one physical
// read: that error is the run's error, and the remaining workers stop
// claiming AFCs instead of draining the list.
func TestRunAggregateReadFault(t *testing.T) {
	fx := newAggFixture(rand.New(rand.NewSource(8)), 400, 32)
	aq := compileAggQuery(t, "SELECT TIME, AVG(W) FROM T GROUP BY TIME")
	src := fx.source(t, true)
	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		fx.fs.Reads.Store(0)
		fx.fs.FailReadNumber(6)
		_, stats, err := RunAggregateContext(context.Background(), fx.afcs, DirResolver(""),
			Options{Cols: aggAttrs, Workers: workers, Source: src}, aq.plan)
		fx.fs.FailReadNumber(0)
		if !errors.Is(err, cachetest.ErrIO) {
			t.Fatalf("workers=%d: err = %v, want the injected read error", workers, err)
		}
		if stats.AFCs > len(fx.afcs)/2 {
			t.Errorf("workers=%d: %d of %d AFCs claimed after the fault", workers, stats.AFCs, len(fx.afcs))
		}
		waitGoroutines(t, before)
	}
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestRunAggregateSingleAFCInline checks that a one-AFC query, under
// the default and an oversized worker count, is folded on the calling
// goroutine: every read happens there.
func TestRunAggregateSingleAFCInline(t *testing.T) {
	var fx *aggFixture
	for seed := int64(9); fx == nil || len(fx.rows) < 100; seed++ {
		fx = newAggFixture(rand.New(rand.NewSource(seed)), 1, 300)
	}
	aq := compileAggQuery(t, "SELECT COUNT(*), SUM(V) FROM T")
	caller := goroutineID()
	var reads, foreign atomic.Int64
	src := hookSource{Source: fx.source(t, true), hook: func() {
		reads.Add(1)
		if goroutineID() != caller {
			foreign.Add(1)
		}
	}}
	for _, workers := range []int{0, 8} {
		st, _, err := RunAggregateContext(context.Background(), fx.afcs, DirResolver(""),
			Options{Cols: aggAttrs, Workers: workers, BlockBytes: 256, Source: src}, aq.plan)
		if err != nil {
			t.Fatal(err)
		}
		sameAggRows(t, "single AFC", aq.oracle(fx.rows), st.Finalize())
	}
	if reads.Load() == 0 || foreign.Load() != 0 {
		t.Fatalf("%d of %d reads ran off the calling goroutine", foreign.Load(), reads.Load())
	}
}

// TestParallelStageTimesFitWall checks that multi-worker runs report
// filter and aggregate times that fit within the call's wall time, so
// the extract stage's self time (extract − filter − aggregate) stays
// non-negative.
func TestParallelStageTimesFitWall(t *testing.T) {
	fx := newAggFixture(rand.New(rand.NewSource(10)), 64, 2000)
	aq := compileAggQuery(t, "SELECT REL, TIME, COUNT(*), SUM(V), AVG(W), MIN(V) FROM T WHERE G > -2 GROUP BY REL, TIME")
	opt := Options{Cols: aggAttrs, Pred: aq.pred, VecPred: aq.vec, Workers: 4, BlockBytes: 512, Source: fx.source(t, false)}
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, stats, err := RunAggregateContext(context.Background(), fx.afcs, DirResolver(""), opt, aq.plan)
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.FilterNS + stats.AggNS; got > wall || stats.FilterNS <= 0 || stats.AggNS <= 0 {
			t.Fatalf("aggregate run: filter %d + agg %d ns against %d ns wall", stats.FilterNS, stats.AggNS, wall)
		}

		start = time.Now()
		stats, err = RunParallelContext(context.Background(), fx.afcs, DirResolver(""), opt,
			func([]table.Row) error { return nil })
		wall = time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatal(err)
		}
		if stats.FilterNS > wall || stats.FilterNS <= 0 {
			t.Fatalf("row run: filter %d ns against %d ns wall", stats.FilterNS, wall)
		}
	}
}

// BenchmarkRunAggregate folds a grouped aggregate over a generated
// 65,536-row IPARS dataset (layout I, warm block cache) with one
// worker and with the default worker count. Bytes per op are the
// logical payload bytes the fold reads.
func BenchmarkRunAggregate(b *testing.B) {
	s := gen.IparsSpec{Realizations: 4, TimeSteps: 8, GridPoints: 2048, Partitions: 1, Attrs: 5, Seed: 3}
	p, root := setupIpars(b, s, "I")
	q := sqlparser.MustParse("SELECT REL, TIME, COUNT(*), AVG(SOIL), MIN(SGAS) FROM IparsData WHERE SOIL > 0.2 GROUP BY REL, TIME")
	var work []schema.Attribute
	var names []string
	for _, a := range p.Schema.Attrs() {
		switch a.Name {
		case "REL", "TIME", "SOIL", "SGAS":
			work = append(work, a)
			names = append(names, a.Name)
		}
	}
	lookup := func(name string) (int, bool) {
		for i, a := range work {
			if a.Name == name {
				return i, true
			}
		}
		return 0, false
	}
	plan, err := query.BuildAggPlan(q, p.Schema)
	if err != nil {
		b.Fatal(err)
	}
	if err := plan.Bind(lookup); err != nil {
		b.Fatal(err)
	}
	reg := filter.NewRegistry()
	pred, err := query.CompilePredicate(q.Where, lookup, reg)
	if err != nil {
		b.Fatal(err)
	}
	vec, err := query.CompileVectorPredicate(q.Where, lookup, reg)
	if err != nil {
		b.Fatal(err)
	}
	afcs, err := p.Generate(query.ExtractRanges(q.Where), names, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := cache.New(cache.Config{MaxBytes: 64 << 20})
	defer src.Close()
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			opt := Options{Cols: work, Pred: pred, VecPred: vec, Workers: bc.workers, Source: src}
			_, stats, err := RunAggregateContext(context.Background(), afcs, nodeResolver(root), opt, plan)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(stats.BytesRead)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RunAggregateContext(context.Background(), afcs, nodeResolver(root), opt, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
