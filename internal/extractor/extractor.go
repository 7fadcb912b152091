// Package extractor implements the runtime half of the generated
// extraction functions: given the aligned file chunks computed by
// internal/afc, it reads the named byte regions, assembles rows of the
// virtual table (payload attributes decoded from file bytes, implicit
// attributes supplied from the AFC, row-axis attributes synthesized),
// applies the residual WHERE predicate, and emits the surviving rows.
//
// "By reading the m files simultaneously, with Num_Bytes_i bytes from
// the file File_i, we create one row of the table." (paper §4)
package extractor

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/afc"
	"datavirt/internal/cache"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sparse"
	"datavirt/internal/table"
)

// Resolver maps a (node, file) pair from an AFC segment to a local
// filesystem path. Single-node deployments ignore node; the cluster
// node server restricts it to its own name.
type Resolver func(node, file string) (string, error)

// SafeJoin joins name under root, rejecting absolute names and names
// whose cleaned form escapes the root (a leading ".."): descriptor
// file names are data, and data must not address files outside the
// data directory.
func SafeJoin(root, name string) (string, error) {
	rel := filepath.FromSlash(name)
	if rel == "" || filepath.IsAbs(rel) {
		return "", fmt.Errorf("extractor: file name %q is not relative", name)
	}
	rel = filepath.Clean(rel)
	if rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("extractor: file name %q escapes the data root", name)
	}
	return filepath.Join(root, rel), nil
}

// DirResolver resolves every file under a single root directory,
// ignoring the node name. Names that would escape the root are
// rejected.
func DirResolver(root string) Resolver {
	return func(node, file string) (string, error) {
		return SafeJoin(root, file)
	}
}

// Stats accumulates extraction counters.
type Stats struct {
	AFCs        int
	RowsScanned int64
	RowsEmitted int64
	BytesRead   int64
	// FilterNS is the time spent evaluating the residual predicate and
	// delivering rows, in nanoseconds. A multi-worker run sums it across
	// workers, then scales it (with AggNS) by wall/Σbusy when the
	// workers' busy spans overlap, so FilterNS + AggNS never exceeds the
	// run's wall time and each stage's self time stays non-negative.
	FilterNS int64

	// CacheHits and CacheMisses count block-cache lookups made by this
	// run's segment reads (zero when the run reads through a disabled
	// cache).
	CacheHits   int64
	CacheMisses int64
	// FSBytesRead is the bytes physically read from the filesystem by
	// this run's demand reads; a warm cache drives it toward zero while
	// BytesRead (the logical payload bytes, above) stays constant.
	// Readahead I/O is accounted on the cache's global Stats, not here.
	FSBytesRead int64
	// CacheBytesServed is the bytes delivered through the cache layer
	// (hits and misses combined, including stride gaps within spans).
	CacheBytesServed int64
	// MmapBlocksServed counts block lookups served zero-copy from a
	// file mapping by this run's demand reads (such blocks add nothing
	// to FSBytesRead); MmapRemaps counts mapping windows those reads
	// created beyond each file's first. Both stay zero under the pread
	// cache backend.
	MmapBlocksServed int64
	MmapRemaps       int64

	// BlocksSkipped counts extraction blocks proven row-free by a sparse
	// sidecar and never read (whole-AFC grid skips count as their
	// block-equivalents). SparseIndexHits and SparseIndexMisses count
	// sidecar lookups per (AFC, file) with constrained stored attributes:
	// a hit found a usable sidecar, a miss fell back to a full scan.
	BlocksSkipped     int64
	SparseIndexHits   int64
	SparseIndexMisses int64

	// VectorBatches counts blocks whose residual predicate ran through
	// the vectorized (batch/columnar) evaluator instead of per-row
	// Pred calls.
	VectorBatches int64
	// AggNS is the time spent folding selected rows into partial
	// aggregates, in nanoseconds; multi-worker runs scale it to the
	// wall time as described on FilterNS.
	AggNS int64
	// AggPushedQueries counts aggregate runs evaluated push-down style
	// (no row materialization); AggPartialGroups is the number of
	// partial groups those runs produced before any coordinator merge.
	// Both are set once per RunAggregateContext call, not per AFC.
	AggPushedQueries int64
	AggPartialGroups int64
}

// Add merges other run's counters into s.
func (s *Stats) Add(o Stats) {
	s.AFCs += o.AFCs
	s.RowsScanned += o.RowsScanned
	s.RowsEmitted += o.RowsEmitted
	s.BytesRead += o.BytesRead
	s.FilterNS += o.FilterNS
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.FSBytesRead += o.FSBytesRead
	s.CacheBytesServed += o.CacheBytesServed
	s.MmapBlocksServed += o.MmapBlocksServed
	s.MmapRemaps += o.MmapRemaps
	s.BlocksSkipped += o.BlocksSkipped
	s.SparseIndexHits += o.SparseIndexHits
	s.SparseIndexMisses += o.SparseIndexMisses
	s.VectorBatches += o.VectorBatches
	s.AggNS += o.AggNS
	s.AggPushedQueries += o.AggPushedQueries
	s.AggPartialGroups += o.AggPartialGroups
}

// fitWall scales the worker-summed FilterNS and AggNS of a
// multi-worker run down to its wall time. Each worker's stage times
// lie inside that worker's busy span, so when the spans overlap
// (Σbusy > wall) the factor wall/Σbusy turns the sums into each
// stage's share of the wall time: the shares never exceed it, and the
// enclosing extract stage keeps a non-negative self time.
func (s *Stats) fitWall(wall, busy time.Duration) {
	if busy <= wall {
		return
	}
	f := float64(wall) / float64(busy)
	s.FilterNS = int64(float64(s.FilterNS) * f)
	s.AggNS = int64(float64(s.AggNS) * f)
}

// EmitFunc receives the surviving rows of one extraction block (one
// call per block with at least one survivor), so consumers such as the
// core.Rows cursor hand rows across at the producer's natural batch
// boundary. EachRow adapts a per-row callback.
//
// Row reuse contract (the one canonical statement; every emitting API
// in this module — extractor.Run*, core.Prepared.Run*, the cluster
// coordinator's emit callbacks, and storm.Sink.Send — follows it): the
// batch, its row slices and their backing arrays are owned by the
// producer and reused for the next block; an implementation that
// retains rows beyond the call must copy them (table.CopyRows). The
// core.Rows cursor performs this copy for its caller.
type EmitFunc func(rows []table.Row) error

// EachRow adapts a per-row callback to an EmitFunc: fn sees the rows
// of each batch in order, and its first error stops the run.
func EachRow(fn func(row table.Row) error) EmitFunc {
	return func(rows []table.Row) error {
		for _, row := range rows {
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	}
}

// Options configure an extraction run. Rows are delivered under the
// reuse contract documented on EmitFunc.
type Options struct {
	// Cols is the working row layout: every attribute the predicate or
	// the final projection needs, in output order.
	Cols []schema.Attribute
	// Pred filters rows; nil accepts everything.
	Pred query.Predicate
	// VecPred is the same WHERE clause compiled for vectorized (batch)
	// evaluation. When set (and ScalarFilter is off), blocks are decoded
	// into column vectors, the predicate narrows a selection vector, and
	// only surviving rows are materialized — identical row sets to Pred,
	// asserted by a differential fuzz test.
	VecPred *query.VectorPredicate
	// ScalarFilter forces the per-row Pred path even when VecPred is
	// set — the oracle in differential tests and the baseline in
	// benchmarks.
	ScalarFilter bool
	// BlockBytes bounds the I/O buffer per segment (default 1 MiB).
	BlockBytes int
	// Workers sets the parallelism of RunParallel and
	// RunAggregateContext (default GOMAXPROCS capped at 8); 1 runs
	// sequentially on the calling goroutine.
	Workers int
	// Source supplies byte readers for segment files — typically the
	// node's shared block cache (*cache.Cache, see internal/cache), so
	// repeated and overlapping queries reuse resident blocks. nil uses
	// a run-scoped passthrough source: direct reads, but open handles
	// are still pooled across the run's AFCs instead of reopening the
	// file per chunk.
	Source cache.Source

	// Ranges is the query's canonical per-attribute constraint sets
	// (conservatively over-approximating the WHERE clause). Together
	// with Sparse it enables data skipping: blocks whose sidecar zone
	// maps cannot intersect the ranges are never read.
	Ranges query.Ranges
	// Sparse returns the sparse sidecar for a (node, file) pair, or nil
	// when the file has none. nil disables data skipping entirely;
	// pruning is always a pure optimization — rows are identical with
	// and without it.
	Sparse func(node, file string) *sparse.Sidecar
}

const defaultBlockBytes = 1 << 20

// runSource resolves opt.Source for one run; the cleanup closes the
// fallback source (a no-op closure when the caller supplied one, whose
// lifetime the caller owns).
func runSource(opt Options) (cache.Source, func()) {
	if opt.Source != nil {
		return opt.Source, func() {}
	}
	local := cache.New(cache.Config{Disabled: true})
	return local, func() { local.Close() }
}

// segKey identifies one pooled segment reader. dup distinguishes
// multiple segments of a single AFC that reference the same file, so
// each keeps its own reader — its own block memo and its own forward
// scan as seen by the cache's readahead.
type segKey struct {
	node, file string
	dup        int
}

// segPool caches resolved paths and open readers across the AFCs of
// one extraction goroutine. Datasets with thousands of chunk-sized
// AFCs over a handful of files would otherwise pay a resolver call
// and a reader allocation per segment per AFC — enough garbage that
// GC frequency, not the serve path, dominates warm-scan timing.
// Pooling opens each (node, file, dup) once and releases it when the
// run (or worker) finishes. Demand counters are delta-folded into
// Stats after each AFC, so totals match the unpooled accounting.
type segPool struct {
	src     cache.Source
	resolve Resolver
	readers map[segKey]*poolEntry
	scratch []cache.Reader // per-AFC reader slice, reused across open calls
	dups    map[segKey]int // per-AFC occurrence counts, reused (dup field zero)
}

type poolEntry struct {
	r      cache.Reader
	folded cache.Counters // counter values already folded into Stats
}

func newSegPool(src cache.Source, resolve Resolver) *segPool {
	return &segPool{
		src:     src,
		resolve: resolve,
		readers: make(map[segKey]*poolEntry),
		dups:    make(map[segKey]int),
	}
}

// open returns one reader per segment of the AFC, opening only
// segments not seen before. The returned slice is valid until the
// next open call. On error, already-pooled readers stay open for the
// pool's release to reclaim.
func (p *segPool) open(a *afc.AFC) ([]cache.Reader, error) {
	if cap(p.scratch) < len(a.Segments) {
		p.scratch = make([]cache.Reader, len(a.Segments))
	}
	readers := p.scratch[:len(a.Segments)]
	clear(p.dups)
	for i, s := range a.Segments {
		base := segKey{node: s.Node, file: s.File}
		k := base
		k.dup = p.dups[base]
		p.dups[base] = k.dup + 1
		e, ok := p.readers[k]
		if !ok {
			path, err := p.resolve(s.Node, s.File)
			if err != nil {
				return nil, fmt.Errorf("extractor: %s:%s: %w", s.Node, s.File, err)
			}
			r, err := p.src.Open(path)
			if err != nil {
				return nil, fmt.Errorf("extractor: %s:%s: %w", s.Node, s.File, err)
			}
			e = &poolEntry{r: r}
			p.readers[k] = e
		}
		readers[i] = e.r
	}
	return readers, nil
}

// fold adds every pooled reader's demand-counter growth since the
// last fold into stats, keeping per-run totals exact while readers
// stay open across AFCs.
func (p *segPool) fold(stats *Stats) {
	for _, e := range p.readers {
		c := e.r.Counters()
		stats.CacheHits += c.Hits - e.folded.Hits
		stats.CacheMisses += c.Misses - e.folded.Misses
		stats.FSBytesRead += c.BytesRead - e.folded.BytesRead
		stats.CacheBytesServed += c.BytesServed - e.folded.BytesServed
		stats.MmapBlocksServed += c.MmapBlocksServed - e.folded.MmapBlocksServed
		stats.MmapRemaps += c.MmapRemaps - e.folded.MmapRemaps
		e.folded = c
	}
}

// release returns every pooled reader to the source. Counters were
// folded after each AFC, so no stats are lost here.
func (p *segPool) release() {
	for _, e := range p.readers {
		e.r.Release()
	}
	clear(p.readers)
}

// Run extracts the AFCs sequentially with a background context; it is
// the convenience form of RunContext.
func Run(afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (Stats, error) {
	return RunContext(context.Background(), afcs, resolver, opt, emit)
}

// RunContext extracts the AFCs sequentially, calling emit with each
// block's surviving rows, and returns run statistics. Cancelling ctx
// stops the run between block reads; the context's error is returned.
func RunContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (Stats, error) {
	src, done := runSource(opt)
	defer done()
	var stats Stats
	pool := newSegPool(src, resolver)
	defer pool.release()
	bb := &blockBuf{}
	for i := range afcs {
		if err := extractOne(ctx, &afcs[i], pool, opt, bb, &stats, nil, emit); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// RunParallel extracts AFCs with a bounded worker pool and a background
// context; it is the convenience form of RunParallelContext.
func RunParallel(afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (Stats, error) {
	return RunParallelContext(context.Background(), afcs, resolver, opt, emit)
}

// RunParallelContext extracts AFCs with a bounded worker pool. Each
// worker copies its blocks' survivors; the batches are delivered to
// emit from a single collector goroutine, so emit needs no locking;
// row order across AFCs is unspecified (as in the paper's
// middleware, which partitions and ships tuples as they are produced).
// Cancelling ctx stops the feeder and every worker between block reads;
// all goroutines have exited by the time the call returns.
func RunParallelContext(ctx context.Context, afcs []afc.AFC, resolver Resolver, opt Options, emit EmitFunc) (Stats, error) {
	workers := workerCount(opt, len(afcs))
	if workers == 1 {
		return RunContext(ctx, afcs, resolver, opt, emit)
	}
	start := time.Now()

	src, srcDone := runSource(opt)
	defer srcDone()

	type batch struct {
		blocks [][]table.Row
		stats  Stats
	}
	work := make(chan *afc.AFC)
	results := make(chan batch, workers)
	done := make(chan struct{})
	var once sync.Once
	var workerErr error
	fail := func(err error) {
		once.Do(func() {
			workerErr = err
			close(done)
		})
	}
	var wg sync.WaitGroup
	var busyNS atomic.Int64 // Σ worker busy spans, read after the join

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := time.Now()
			bb := &blockBuf{}
			pool := newSegPool(src, resolver)
			defer pool.release()
			defer func() { busyNS.Add(int64(time.Since(begin))) }()
			for a := range work {
				var b batch
				collect := func(rows []table.Row) error {
					b.blocks = append(b.blocks, table.CopyRows(rows))
					return nil
				}
				if err := extractOne(ctx, a, pool, opt, bb, &b.stats, nil, collect); err != nil {
					fail(err)
					return
				}
				select {
				case results <- b:
				case <-done:
					return
				case <-ctx.Done():
					fail(ctx.Err())
					return
				}
			}
		}()
	}

	// Feeder: stops early when any worker fails or ctx is cancelled.
	go func() {
		defer close(work)
		for i := range afcs {
			select {
			case work <- &afcs[i]:
			case <-done:
				return
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
		}
	}()

	// Close results when all workers exit.
	go func() {
		wg.Wait()
		close(results)
	}()

	var stats Stats
	var emitErr error
	for b := range results {
		stats.Add(b.stats)
		if emitErr != nil {
			continue // drain
		}
		for _, rows := range b.blocks {
			if err := emit(rows); err != nil {
				emitErr = err
				fail(err)
				break
			}
		}
	}
	// results closes only after every worker has returned.
	stats.fitWall(time.Since(start), time.Duration(busyNS.Load()))
	if workerErr != nil {
		return stats, workerErr
	}
	return stats, emitErr
}

// workerCount is the worker-pool size of a run over n AFCs:
// opt.Workers, else defaultWorkers, capped at n and at least 1.
func workerCount(opt Options, n int) int {
	w := opt.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	return max(1, min(w, n))
}

func defaultWorkers() int {
	return min(runtime.GOMAXPROCS(0), 8)
}

// colSource binds one output column to its value source within an AFC.
type colSource struct {
	// seg >= 0: decode from segment seg at attrOff within the row run.
	seg     int
	attrOff int64
	kind    schema.Kind
	// implicit: constant value (seg < 0, rowDim == nil).
	implicit schema.Value
	// rowDim: synthesized from the row index (seg < 0).
	rowDim *afc.RowDim
}

// bind resolves each working column to a source in the AFC, filling
// scratch when it has the capacity (the extraction loop re-binds per
// AFC; reusing the slice keeps the warm path allocation-free).
func bind(a *afc.AFC, cols []schema.Attribute, scratch []colSource) ([]colSource, error) {
	out := scratch
	if cap(out) < len(cols) {
		out = make([]colSource, len(cols))
	}
	out = out[:len(cols)]
Cols:
	for i, c := range cols {
		for si := range a.Segments {
			for _, at := range a.Segments[si].Attrs {
				if at.Name == c.Name {
					out[i] = colSource{seg: si, attrOff: at.Off, kind: at.Kind}
					continue Cols
				}
			}
		}
		for _, im := range a.Implicits {
			if im.Name == c.Name {
				out[i] = colSource{seg: -1, implicit: im.Value}
				continue Cols
			}
		}
		for ri := range a.RowDims {
			if a.RowDims[ri].Name == c.Name {
				out[i] = colSource{seg: -1, rowDim: &a.RowDims[ri]}
				continue Cols
			}
		}
		return nil, fmt.Errorf("extractor: AFC provides no source for attribute %q", c.Name)
	}
	return out, nil
}

// maxBlockRows caps the block materialization buffer.
const maxBlockRows = 512

// blockBuf holds the reusable block-materialization state of one
// extraction goroutine: a column-major-filled matrix of rows plus the
// per-segment byte buffers.
//
// Buffer-ownership discipline (checked by the cross-backend
// conformance tests): spans holds the bytes each decode loop reads
// from, and may alias cache-owned memory — a block buffer or, under
// the mmap backend, a file mapping — borrowed through
// cache.Viewer.ViewAt. Borrowed spans are only valid while the
// extraction's readers are open, so extractOne clears every spans slot
// before it releases them; nothing may write into spans or retain one
// across extractOne calls. own holds the goroutine-owned scratch
// buffers the copying ReadAt path reuses — writes go there and nowhere
// else.
type blockBuf struct {
	flat  []schema.Value
	rows  []table.Row
	spans [][]byte
	own   [][]byte
	srcs  []colSource // bind scratch, reused across AFCs
	prune []segPrune  // sparse-pruning scratch, reused across AFCs
	files []fileSidecar
	grid  []gridVerdict // per-run memo of gridMayMatch's sidecar verdicts

	// Vectorized-filter state: the column-vector batch, the selection
	// index vector, and the evaluator's scratch buffers — all reused
	// across blocks so the hot loop stays allocation-free.
	batch query.Batch
	sel   []int32
	vscr  query.VectorScratch
}

// segPrune is the per-segment data-skipping state of one AFC: the
// file's sidecar (nil disables pruning for the segment) and the
// constrained attributes the segment stores.
type segPrune struct {
	sc    *sparse.Sidecar
	attrs []pruneAttr
}

type pruneAttr struct {
	name string
	set  query.Set
}

// fileSidecar memoizes one sidecar lookup within an AFC.
type fileSidecar struct {
	node, file string
	sc         *sparse.Sidecar
}

// gridVerdict memoizes one Sidecar.GridMayMatch answer. Within a run
// the ranges are fixed, so the answer depends only on the sidecar and
// on which of its constrained grid attributes (bit i = GridAttrs()[i])
// the AFC's segments store from that file. A blockBuf lives for one
// run, so the memo never outlives the ranges it was computed for.
type gridVerdict struct {
	sc    *sparse.Sidecar
	mask  uint64
	match bool
}

func (bb *blockBuf) shape(rows, cols, segs int) {
	// cols can be zero (a bare COUNT(*) reads no attributes); the row
	// slice must still exist for the scalar delivery path.
	if cap(bb.flat) < rows*cols || len(bb.rows) < rows || (len(bb.rows) > 0 && len(bb.rows[0]) != cols) {
		bb.flat = make([]schema.Value, rows*cols)
		bb.rows = make([]table.Row, rows)
		for i := range bb.rows {
			bb.rows[i] = bb.flat[i*cols : (i+1)*cols]
		}
	}
	if len(bb.spans) < segs {
		bb.spans = make([][]byte, segs)
	}
	if len(bb.own) < segs {
		bb.own = make([][]byte, segs)
	}
}

// dropSpans forgets every borrowed span; it runs before the segment
// readers are released so no view outlives the mapping pinning it.
func (bb *blockBuf) dropSpans() {
	for i := range bb.spans {
		bb.spans[i] = nil
	}
}

// extractOne streams one AFC: it reads the block's byte spans through
// the segment readers (cache-backed or passthrough), fills the block
// column by column with kind-specialized tight loops (the run-time
// counterpart of the generated extraction code's straight-line
// decoding), then filters and delivers rows. The context is checked
// between blocks, bounding cancellation latency to one block read
// (≤ maxBlockRows rows). One reader per segment means the cache's
// readahead sees each segment as its own forward scan.
//
// Delivery has three modes. With a vectorized predicate the block is
// decoded into column vectors, the predicate narrows a selection index
// vector, and only surviving rows are materialized and emitted. With
// agg set, selected rows are folded straight into the partial-aggregate
// state and never materialized at all. Otherwise (or under
// Options.ScalarFilter) the original fill-every-row, per-row-Pred path
// runs.
func extractOne(ctx context.Context, a *afc.AFC, pool *segPool, opt Options, bb *blockBuf, stats *Stats, agg *query.AggState, emit EmitFunc) error {
	stats.AFCs++
	if a.NumRows == 0 {
		return nil
	}
	sources, err := bind(a, opt.Cols, bb.srcs)
	if err != nil {
		return err
	}
	bb.srcs = sources

	blockBytes := opt.BlockBytes
	if blockBytes <= 0 {
		blockBytes = defaultBlockBytes
	}
	// Rows per block: bounded by the widest segment stride.
	maxStride := int64(1)
	for _, s := range a.Segments {
		st := s.RowStride
		if st == 0 {
			st = s.RowBytes
		}
		if st > maxStride {
			maxStride = st
		}
	}
	rowsPerBlock := int64(blockBytes) / maxStride
	if rowsPerBlock < 1 {
		rowsPerBlock = 1
	}
	if rowsPerBlock > maxBlockRows {
		rowsPerBlock = maxBlockRows
	}

	// Sparse data skipping: resolved before any file is opened, so an
	// AFC pruned whole by the grid summary costs zero I/O.
	pruning := bb.setupPrune(a, opt, stats)
	if pruning && !gridMayMatch(a, opt.Ranges, bb) {
		stats.BlocksSkipped += (a.NumRows + rowsPerBlock - 1) / rowsPerBlock
		return nil
	}

	files, err := pool.open(a)
	if err != nil {
		return err
	}
	defer pool.fold(stats)
	defer bb.dropSpans() // borrowed views must not be retained past this AFC

	bb.shape(int(rowsPerBlock), len(opt.Cols), len(a.Segments))
	spans := bb.spans
	pred := opt.Pred
	// The batch path needs the predicate in vectorized form (or no
	// predicate at all); otherwise fall back to per-row evaluation.
	vectorized := !opt.ScalarFilter && (opt.VecPred != nil || (agg != nil && pred == nil))
	constRead := false
	var rowsSkipped int64
	for base := int64(0); base < a.NumRows; base += rowsPerBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := rowsPerBlock
		if base+n > a.NumRows {
			n = a.NumRows - base
		}
		if pruning && blockPrunable(a, bb.prune, base, n) {
			stats.BlocksSkipped++
			rowsSkipped += n
			continue
		}
		// Read each segment's span for this block.
		for si := range a.Segments {
			s := &a.Segments[si]
			var span, off int64
			if s.RowStride == 0 {
				if constRead {
					continue // constant segment already read for this AFC
				}
				span = s.RowBytes
				off = s.Offset
			} else {
				span = (n-1)*s.RowStride + s.RowBytes
				off = s.Offset + base*s.RowStride
			}
			// Zero-copy fast path: borrow the span straight from the
			// cache (block buffer or file mapping) when it lies within
			// one cache block. Borrowed spans are read-only and dropped
			// before the readers are released.
			if v, ok := files[si].(cache.Viewer); ok {
				if data, ok := v.ViewAt(off, int(span)); ok {
					spans[si] = data
					continue
				}
			}
			if cap(bb.own[si]) < int(span) {
				bb.own[si] = make([]byte, span)
			}
			buf := bb.own[si][:span]
			if _, err := files[si].ReadAt(buf, off); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return fmt.Errorf("extractor: %s:%s: file shorter than layout requires (need %d bytes at offset %d)",
						s.Node, s.File, span, off)
				}
				return fmt.Errorf("extractor: reading %s:%s: %w", s.Node, s.File, err)
			}
			bb.own[si] = buf
			spans[si] = buf
		}
		constRead = true
		stats.RowsScanned += n

		if vectorized {
			// Decode the block into column vectors, narrow the selection
			// with the vectorized predicate, then deliver only survivors:
			// folded into the partial aggregates, or gather-materialized
			// into rows for emit.
			bb.fillBatch(a, sources, spans, base, int(n))
			filterStart := time.Now()
			sel := query.Identity(bb.sel, int(n))
			if opt.VecPred != nil {
				sel = opt.VecPred.Eval(&bb.batch, sel, &bb.vscr)
			}
			bb.sel = sel
			stats.VectorBatches++
			stats.FilterNS += time.Since(filterStart).Nanoseconds()
			stats.RowsEmitted += int64(len(sel))
			if agg != nil {
				aggStart := time.Now()
				agg.ObserveBatch(&bb.batch, sel)
				stats.AggNS += time.Since(aggStart).Nanoseconds()
				continue
			}
			if len(sel) == 0 {
				continue
			}
			emitStart := time.Now()
			rows := bb.rows[:len(sel)]
			gatherRows(rows, &bb.batch, sel, opt.Cols)
			err := emit(rows)
			stats.FilterNS += time.Since(emitStart).Nanoseconds()
			if err != nil {
				return err
			}
			continue
		}

		// Scalar path: fill the block column-major with kind-specialized
		// loops, then filter and deliver row-wise.
		rows := bb.rows[:n]
		for ci := range sources {
			src := &sources[ci]
			switch {
			case src.seg >= 0:
				seg := &a.Segments[src.seg]
				if seg.BigEndian {
					fillColumnBE(rows, ci, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
				} else {
					fillColumn(rows, ci, src.kind, spans[src.seg], src.attrOff, seg.RowStride)
				}
			case src.rowDim != nil:
				rd := src.rowDim
				if rd.Kind.Integral() {
					for r := range rows {
						rows[r][ci] = schema.Value{Kind: rd.Kind, Int: rd.ValueAt(base + int64(r))}
					}
				} else {
					for r := range rows {
						rows[r][ci] = schema.Value{Kind: rd.Kind, Float: float64(rd.ValueAt(base + int64(r)))}
					}
				}
			default:
				for r := range rows {
					rows[r][ci] = src.implicit
				}
			}
		}

		// Survivors are compacted to the front of the block by swapping
		// row headers (each still owns its own slice of bb.flat), then
		// emitted as one batch.
		filterStart := time.Now()
		aggNS0 := stats.AggNS
		kept := 0
		for r := range rows {
			if pred != nil && !pred(rows[r]) {
				continue
			}
			stats.RowsEmitted++
			if agg != nil {
				aggStart := time.Now()
				agg.ObserveRow(rows[r])
				stats.AggNS += time.Since(aggStart).Nanoseconds()
				continue
			}
			rows[kept], rows[r] = rows[r], rows[kept]
			kept++
		}
		var err error
		if kept > 0 {
			err = emit(rows[:kept])
		}
		// Aggregation time is attributed to its own stage, not filter.
		stats.FilterNS += time.Since(filterStart).Nanoseconds() - (stats.AggNS - aggNS0)
		if err != nil {
			return err
		}
	}
	for _, s := range a.Segments {
		if s.RowStride == 0 {
			if constRead {
				stats.BytesRead += s.RowBytes
			}
		} else {
			stats.BytesRead += s.RowBytes * (a.NumRows - rowsSkipped)
		}
	}
	return nil
}

// setupPrune resolves the AFC's sidecars and constrained stored
// attributes into bb.prune, counting one sidecar hit or miss per
// distinct file that stores at least one constrained attribute. It
// reports whether any pruning state is active for this AFC.
func (bb *blockBuf) setupPrune(a *afc.AFC, opt Options, stats *Stats) bool {
	if opt.Sparse == nil || len(opt.Ranges) == 0 {
		return false
	}
	if cap(bb.prune) < len(a.Segments) {
		next := make([]segPrune, len(a.Segments))
		copy(next, bb.prune)
		bb.prune = next
	}
	bb.prune = bb.prune[:len(a.Segments)]
	bb.files = bb.files[:0]
	active := false
	for si := range a.Segments {
		s := &a.Segments[si]
		p := &bb.prune[si]
		p.sc = nil
		p.attrs = p.attrs[:0]
		for _, at := range s.Attrs {
			if set := opt.Ranges.Get(at.Name); !set.IsFull() {
				p.attrs = append(p.attrs, pruneAttr{name: at.Name, set: set})
			}
		}
		if len(p.attrs) == 0 {
			continue
		}
		found := false
		for i := range bb.files {
			if bb.files[i].node == s.Node && bb.files[i].file == s.File {
				p.sc = bb.files[i].sc
				found = true
				break
			}
		}
		if !found {
			sc := opt.Sparse(s.Node, s.File)
			bb.files = append(bb.files, fileSidecar{node: s.Node, file: s.File, sc: sc})
			p.sc = sc
			if sc != nil {
				stats.SparseIndexHits++
			} else {
				stats.SparseIndexMisses++
			}
		}
		if p.sc != nil {
			active = true
		}
	}
	return active
}

// gridMayMatch consults each sidecar's multidimensional grid summary
// for the whole AFC. Soundness: a grid records the file's joint value
// tuples at common dimension coordinates, and an AFC row pairs
// attribute values at common dimension coordinates too, so constraining
// only the grid attributes this file's segments actually store in this
// AFC can never prune a surviving row. It returns false when some grid
// proves no row of the AFC can match. Verdicts are memoized in bb.grid
// (see gridVerdict), so each distinct (sidecar, stored-attribute set)
// pair is evaluated once per run.
func gridMayMatch(a *afc.AFC, ranges query.Ranges, bb *blockBuf) bool {
	for i := range bb.files {
		f := &bb.files[i]
		if f.sc == nil || f.sc.Grid == nil {
			continue
		}
		attrs := f.sc.GridAttrs()
		var mask uint64
		for ai, attr := range attrs {
			if ai < 64 && !ranges.Get(attr).IsFull() && fileStoresAttr(a, f.node, f.file, attr) {
				mask |= 1 << ai
			}
		}
		if mask == 0 {
			continue
		}
		if !bb.gridVerdict(f.sc, mask, attrs, ranges) {
			return false
		}
	}
	return true
}

// gridVerdict returns the memoized GridMayMatch answer for the sidecar
// constrained on the grid attributes selected by mask, computing and
// recording it on first use.
func (bb *blockBuf) gridVerdict(sc *sparse.Sidecar, mask uint64, attrs []string, ranges query.Ranges) bool {
	for _, v := range bb.grid {
		if v.sc == sc && v.mask == mask {
			return v.match
		}
	}
	reduced := make(query.Ranges, len(attrs))
	for ai, attr := range attrs {
		if ai < 64 && mask&(1<<ai) != 0 {
			reduced[attr] = ranges.Get(attr)
		}
	}
	match := sc.GridMayMatch(reduced)
	bb.grid = append(bb.grid, gridVerdict{sc: sc, mask: mask, match: match})
	return match
}

func fileStoresAttr(a *afc.AFC, node, file, attr string) bool {
	for si := range a.Segments {
		s := &a.Segments[si]
		if s.Node != node || s.File != file {
			continue
		}
		for _, at := range s.Attrs {
			if at.Name == attr {
				return true
			}
		}
	}
	return false
}

// blockPrunable reports whether the zone maps prove the block starting
// at row base (n rows) holds no row satisfying the constraints: some
// constrained attribute's merged zone over the block's byte span
// misses its set entirely.
func blockPrunable(a *afc.AFC, prune []segPrune, base, n int64) bool {
	for si := range a.Segments {
		p := &prune[si]
		if p.sc == nil || len(p.attrs) == 0 {
			continue
		}
		s := &a.Segments[si]
		var off, span int64
		if s.RowStride == 0 {
			off, span = s.Offset, s.RowBytes
		} else {
			off = s.Offset + base*s.RowStride
			span = (n-1)*s.RowStride + s.RowBytes
		}
		for _, pa := range p.attrs {
			if !p.sc.SpanMayMatch(pa.name, off, span, pa.set) {
				return true
			}
		}
	}
	return false
}

// fillColumn decodes one attribute for every row of the block with a
// kind-specialized tight loop.
func fillColumn(rows []table.Row, ci int, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int8(buf[p]))}
			p += stride
		}
	case schema.Short:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int16(binary.LittleEndian.Uint16(buf[p : p+2])))}
			p += stride
		}
	case schema.Int:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int32(binary.LittleEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Long:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(binary.LittleEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	case schema.Float:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Double:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: math.Float64frombits(binary.LittleEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	}
}

// fillColumnBE is fillColumn for big-endian segments (BYTEORDER { BIG }).
func fillColumnBE(rows []table.Row, ci int, kind schema.Kind, buf []byte, off, stride int64) {
	p := off
	switch kind {
	case schema.Char:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int8(buf[p]))}
			p += stride
		}
	case schema.Short:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int16(binary.BigEndian.Uint16(buf[p : p+2])))}
			p += stride
		}
	case schema.Int:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(int32(binary.BigEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Long:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Int: int64(binary.BigEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	case schema.Float:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: float64(math.Float32frombits(binary.BigEndian.Uint32(buf[p : p+4])))}
			p += stride
		}
	case schema.Double:
		for r := range rows {
			rows[r][ci] = schema.Value{Kind: kind, Float: math.Float64frombits(binary.BigEndian.Uint64(buf[p : p+8]))}
			p += stride
		}
	}
}
