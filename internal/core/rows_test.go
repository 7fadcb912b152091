package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"datavirt/internal/gen"
	"datavirt/internal/obs"
	"datavirt/internal/schema"
	"datavirt/internal/table"
)

func TestRowsIterationMatchesCollect(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	sql := "SELECT SOIL, TIME FROM IparsData WHERE TIME >= 2"
	p, err := svc.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Collect(Options{})
	if err != nil {
		t.Fatal(err)
	}

	rows, err := svc.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "SOIL" || cols[1] != "TIME" {
		t.Errorf("Columns = %v", cols)
	}
	var got []table.Row
	for rows.Next() {
		got = append(got, rows.Row()) // rows are copies: retaining is safe
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor produced %d rows, Collect %d", len(got), len(want))
	}
	for i := range want {
		if table.FormatRow(got[i]) != table.FormatRow(want[i]) {
			t.Fatalf("row %d: %s != %s", i, table.FormatRow(got[i]), table.FormatRow(want[i]))
		}
	}
	// After exhaustion the stats are available and Close stays clean.
	if rows.Stats() == nil {
		t.Fatal("Stats nil after exhaustion")
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close after exhaustion: %v", err)
	}
}

// TestRowsCloseCancelsExtraction closes the cursor mid-iteration and
// asserts the extraction goroutine exits without being drained by the
// consumer, with no goroutine leak (ISSUE 1 acceptance criterion).
func TestRowsCloseCancelsExtraction(t *testing.T) {
	svc, _ := bigIparsService(t)
	before := runtime.NumGoroutine()

	rows, err := svc.QueryContextOptions(context.Background(),
		"SELECT * FROM IparsData", Options{Parallel: true, Workers: 4, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close mid-iteration: %v", err) // own cancellation is not an error
	}
	if rows.Next() {
		t.Error("Next true after Close")
	}
	if rows.Stats() == nil {
		t.Error("Stats nil after Close")
	}
	assertNoGoroutineLeak(t, before)
}

// TestRowsParentContextCancelled cancels the caller's context during
// parallel extraction: Next must stop promptly and Err report
// context.Canceled, with all workers gone.
func TestRowsParentContextCancelled(t *testing.T) {
	svc, _ := bigIparsService(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := svc.QueryContextOptions(ctx,
		"SELECT * FROM IparsData", Options{Parallel: true, Workers: 4, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if n++; n == 5 {
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after parent cancel = %v", err)
	}
	rows.Close()
	assertNoGoroutineLeak(t, before)
}

func TestRowsDeadline(t *testing.T) {
	svc, _ := bigIparsService(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	rows, err := svc.QueryContextOptions(ctx, "SELECT * FROM IparsData",
		Options{BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() { // slow consumer guarantees the deadline fires mid-query
		time.Sleep(50 * time.Microsecond)
	}
	if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after deadline = %v", err)
	}
}

// memRunner returns a NewRows runner that emits n rows of width cols
// in batches of block rows, the way the extractor does: every batch
// lives in one buffer the runner overwrites for the next batch, so a
// cursor that failed to copy would hand out clobbered rows. The value
// of column c of row i is i*cols+c. After the rows it returns fail.
func memRunner(n, cols, block int, fail error) func(context.Context, func([]table.Row) error) (obs.QueryStats, error) {
	flat := make([]schema.Value, block*cols)
	buf := make([]table.Row, block)
	for i := range buf {
		buf[i] = flat[i*cols : (i+1)*cols]
	}
	return func(ctx context.Context, emit func([]table.Row) error) (obs.QueryStats, error) {
		for base := 0; base < n; base += block {
			m := min(block, n-base)
			for i := 0; i < m; i++ {
				for c := 0; c < cols; c++ {
					buf[i][c] = schema.LongValue(int64((base+i)*cols + c))
				}
			}
			if err := emit(buf[:m]); err != nil {
				return obs.QueryStats{}, err
			}
		}
		return obs.QueryStats{RowsEmitted: int64(n)}, fail
	}
}

// checkRow reports whether row holds the values memRunner gives row i.
func checkRow(row table.Row, i, cols int) bool {
	if len(row) != cols {
		return false
	}
	for c, v := range row {
		if v.Int != int64(i*cols+c) {
			return false
		}
	}
	return true
}

// TestRowsDeliversRowsBeforeRunError has the runner emit k rows and
// then fail: all k rows come out of Next before Err reports the
// failure.
func TestRowsDeliversRowsBeforeRunError(t *testing.T) {
	boom := errors.New("boom")
	const k = 700 // two full cursor batches and a partial one
	rows := NewRows(context.Background(), []string{"A", "B"}, memRunner(k, 2, 300, boom))
	defer rows.Close()
	n := 0
	for rows.Next() {
		if !checkRow(rows.Row(), n, 2) {
			t.Fatalf("row %d = %v", n, rows.Row())
		}
		n++
	}
	if n != k {
		t.Errorf("Next delivered %d rows before the error, want %d", n, k)
	}
	if err := rows.Err(); !errors.Is(err, boom) {
		t.Errorf("Err = %v, want %v", err, boom)
	}
}

// TestRowsRetainedRowsStayValid keeps every row the cursor hands out:
// none changes as iteration moves on, and appending to one leaves the
// next row alone.
func TestRowsRetainedRowsStayValid(t *testing.T) {
	const n, cols = 1000, 3
	rows := NewRows(context.Background(), nil, memRunner(n, cols, 128, nil))
	defer rows.Close()
	var kept []table.Row
	for rows.Next() {
		if len(kept) > 0 {
			prev := kept[len(kept)-1]
			_ = append(prev, schema.LongValue(-1)) // must not write into this row
			if !checkRow(rows.Row(), len(kept), cols) {
				t.Fatalf("row %d = %v after appending to row %d", len(kept), rows.Row(), len(kept)-1)
			}
		}
		kept = append(kept, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != n {
		t.Fatalf("got %d rows, want %d", len(kept), n)
	}
	for i, row := range kept {
		if !checkRow(row, i, cols) {
			t.Fatalf("retained row %d = %v", i, row)
		}
	}
}

// TestRowsCloseMidBatch closes the cursor part-way through a batch of
// an endless runner: Close returns cleanly and the runner's goroutine
// exits.
func TestRowsCloseMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	rows := NewRows(context.Background(), nil, memRunner(1<<30, 2, rowsBuffer, nil))
	for i := 0; i < rowsBuffer+rowsBuffer/2 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close mid-batch: %v", err)
	}
	if rows.Next() {
		t.Error("Next true after Close")
	}
	if rows.Stats() == nil {
		t.Error("Stats nil after Close")
	}
	assertNoGoroutineLeak(t, before)
}

// TestRowsHandoffAllocs gates the cursor's handoff cost: draining a
// 4,096-row in-memory runner through NewRows, set-up included, may
// allocate at most once per 64 rows.
func TestRowsHandoffAllocs(t *testing.T) {
	const n = 4096
	run := memRunner(n, 4, 512, nil)
	allocs := testing.AllocsPerRun(20, func() {
		rows := NewRows(context.Background(), nil, run)
		for rows.Next() {
		}
		rows.Close()
	})
	if limit := float64(n / 64); allocs > limit {
		t.Errorf("cursor allocated %.0f times for %d rows, want at most %.0f (1 per 64 rows)", allocs, n, limit)
	}
}

// BenchmarkRowsCursor measures the cursor handoff alone: a 4,096-row,
// 4-column in-memory runner drained through NewRows, emitting in
// 512-row blocks like the extractor.
func BenchmarkRowsCursor(b *testing.B) {
	const n, cols = 4096, 4
	run := memRunner(n, cols, 512, nil)
	b.ReportAllocs()
	b.SetBytes(int64(n * cols * int(unsafe.Sizeof(schema.Value{}))))
	for i := 0; i < b.N; i++ {
		rows := NewRows(context.Background(), nil, run)
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQueryStatsGolden pins the deterministic QueryStats counters of a
// known query over the quickstart dataset.
func TestQueryStatsGolden(t *testing.T) {
	s := gen.IparsSpec{
		Realizations: 2, TimeSteps: 50, GridPoints: 200, Partitions: 4,
		Attrs: 17, Seed: 1, // the examples/quickstart spec
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := svc.QueryContext(context.Background(),
		"SELECT X, Y, Z, SOIL FROM IparsData WHERE REL = 0 AND TIME = 25")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	const want = `chunks planned: 4
chunks read: 4
bytes read: 3200
rows scanned: 200
rows emitted: 200
rows filtered: 0`
	if got := st.Counters(); got != want {
		t.Errorf("QueryStats counters:\n%s\nwant:\n%s", got, want)
	}
	if st.PlanTime <= 0 || st.IndexTime <= 0 || st.ExtractTime <= 0 {
		t.Errorf("stage times not recorded: %+v", st)
	}
	if st.NetTime != 0 {
		t.Errorf("local query recorded net time %v", st.NetTime)
	}
}

func TestOptionsValidate(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	p, err := svc.Prepare("SELECT TIME FROM IparsData")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Workers: -1}, {BlockBytes: -4096}} {
		if _, err := p.Run(opt, func(table.Row) error { return nil }); err == nil {
			t.Errorf("Options %+v accepted", opt)
		} else if !strings.Contains(err.Error(), "negative") {
			t.Errorf("Options %+v: unhelpful error %v", opt, err)
		}
		if _, err := p.QueryContext(context.Background(), opt); err == nil {
			t.Errorf("QueryContext accepted %+v", opt)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
}

// TestTracerSeesAllLocalStages runs a query under a recording tracer
// and checks the plan, index, extract and filter stages all report.
func TestTracerSeesAllLocalStages(t *testing.T) {
	svc, _ := iparsService(t, "CLUSTER")
	rec := &stageRecorder{}
	ctx := obs.WithTracer(context.Background(), rec)
	rows, err := svc.QueryContext(ctx, "SELECT TIME FROM IparsData WHERE TIME = 1")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	for _, stage := range []obs.Stage{obs.StagePlan, obs.StageIndex, obs.StageExtract, obs.StageFilter} {
		if !rec.saw(stage) {
			t.Errorf("tracer never saw stage %s (got %v)", stage, rec.stages())
		}
	}
}

// bigIparsService opens a dataset large enough that full scans take
// many block reads, so cancellation reliably lands mid-extraction.
func bigIparsService(t *testing.T) (*Service, gen.IparsSpec) {
	t.Helper()
	s := gen.IparsSpec{
		Realizations: 2, TimeSteps: 30, GridPoints: 300, Partitions: 4,
		Attrs: 6, Seed: 7,
	}
	root := t.TempDir()
	descPath, err := gen.WriteIpars(root, s, "CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(descPath, root)
	if err != nil {
		t.Fatal(err)
	}
	return svc, s
}

func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, g, buf[:runtime.Stack(buf, true)])
	}
}

type stageRecorder struct {
	mu   sync.Mutex
	ends []obs.Stage
}

func (r *stageRecorder) StageStart(string, obs.Stage) {}

func (r *stageRecorder) StageEnd(q string, s obs.Stage, d time.Duration, err error) {
	r.mu.Lock()
	r.ends = append(r.ends, s)
	r.mu.Unlock()
}

func (r *stageRecorder) saw(s obs.Stage) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.ends {
		if e == s {
			return true
		}
	}
	return false
}

func (r *stageRecorder) stages() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := make([]string, len(r.ends))
	for i, e := range r.ends {
		parts[i] = string(e)
	}
	return fmt.Sprint(parts)
}
