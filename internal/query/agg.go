// Aggregate planning and partial-aggregate state for push-down
// execution. A parsed aggregate query compiles to an AggPlan; every
// execution site (a local run, or each cluster leg) feeds matching rows
// into an AggState, which holds per-group partial accumulators. Partials
// are mergeable and wire-encodable (the cluster's 'A' frames), and by
// construction — exact integer arithmetic, error-free float summation
// (ExactSum), commutative min/max — the merged result is value-identical
// to a single-node pass no matter how rows were partitioned across legs.
//
// Semantics: the system has no NULLs, so COUNT(x) == COUNT(*) and every
// accumulator in a group observes every row of the group (one count per
// group suffices). A query matching zero rows yields zero result rows —
// including global aggregates, where SQL would return one row of NULLs —
// which keeps local, cluster, and all-blocks-skipped executions
// identical. SUM over integral attributes uses wrapping int64 arithmetic
// (commutative, so still partition-independent).

package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
)

// accKind selects the accumulator representation of one aggregate item.
type accKind int

const (
	accCount accKind = iota // COUNT: the shared group count
	accInt                  // SUM/MIN/MAX/AVG over an integral attribute
	accFloat                // MIN/MAX over a floating attribute
	accExact                // SUM/AVG over a floating attribute (ExactSum)
)

// AggSpec is one compiled aggregate select item.
type AggSpec struct {
	Func    sqlparser.AggFunc
	Col     string      // input attribute; empty for COUNT(*)
	InKind  schema.Kind // Invalid for COUNT(*)
	OutKind schema.Kind
	acc     accKind
}

// AggKey is one compiled GROUP BY key.
type AggKey struct {
	Col  string
	Kind schema.Kind
}

// AggPlan is a compiled aggregate query: grouping keys, aggregate
// accumulator specs, and the mapping from both onto the output columns.
type AggPlan struct {
	Keys []AggKey
	Aggs []AggSpec
	// out maps output column i to its source: out[i] >= 0 indexes Aggs,
	// out[i] < 0 indexes Keys as -out[i]-1.
	out       []int
	labels    []string
	outSchema *schema.Schema

	// Input positions resolved by Bind, in Keys/Aggs order.
	keyIdx []int
	aggIdx []int
	bound  bool
}

// BuildAggPlan compiles the aggregate shape of a parsed query against
// the table schema. The query must be an aggregate query (q.Aggregate()).
func BuildAggPlan(q *sqlparser.Query, sch *schema.Schema) (*AggPlan, error) {
	if !q.Aggregate() {
		return nil, fmt.Errorf("query: not an aggregate query")
	}
	p := &AggPlan{}
	keyPos := map[string]int{}
	for _, k := range q.GroupBy {
		kind, ok := sch.Kind(k)
		if !ok {
			return nil, fmt.Errorf("query: table %s has no attribute %q", sch.Name(), k)
		}
		if _, dup := keyPos[k]; dup {
			return nil, fmt.Errorf("query: duplicate GROUP BY column %s", k)
		}
		keyPos[k] = len(p.Keys)
		p.Keys = append(p.Keys, AggKey{Col: k, Kind: kind})
	}
	var attrs []schema.Attribute
	seenLabel := map[string]bool{}
	for _, it := range q.Items {
		label := it.String()
		if seenLabel[label] {
			return nil, fmt.Errorf("query: duplicate select item %s", label)
		}
		seenLabel[label] = true
		if it.Agg == sqlparser.AggNone {
			ki, ok := keyPos[it.Col]
			if !ok {
				return nil, fmt.Errorf("query: column %s in an aggregate select list must appear in GROUP BY", it.Col)
			}
			p.out = append(p.out, -ki-1)
			p.labels = append(p.labels, label)
			attrs = append(attrs, schema.Attribute{Name: label, Kind: p.Keys[ki].Kind})
			continue
		}
		spec := AggSpec{Func: it.Agg, Col: it.Col}
		if it.Star {
			if it.Agg != sqlparser.AggCount {
				return nil, fmt.Errorf("query: %s(*) is not supported", it.Agg)
			}
		} else {
			kind, ok := sch.Kind(it.Col)
			if !ok {
				return nil, fmt.Errorf("query: table %s has no attribute %q", sch.Name(), it.Col)
			}
			spec.InKind = kind
		}
		switch it.Agg {
		case sqlparser.AggCount:
			spec.OutKind, spec.acc = schema.Long, accCount
		case sqlparser.AggSum:
			if spec.InKind.Integral() {
				spec.OutKind, spec.acc = schema.Long, accInt
			} else {
				spec.OutKind, spec.acc = schema.Double, accExact
			}
		case sqlparser.AggMin, sqlparser.AggMax:
			spec.OutKind = spec.InKind
			if spec.InKind.Integral() {
				spec.acc = accInt
			} else {
				spec.acc = accFloat
			}
		case sqlparser.AggAvg:
			spec.OutKind = schema.Double
			if spec.InKind.Integral() {
				spec.acc = accInt
			} else {
				spec.acc = accExact
			}
		default:
			return nil, fmt.Errorf("query: unknown aggregate %v", it.Agg)
		}
		p.out = append(p.out, len(p.Aggs))
		p.labels = append(p.labels, label)
		attrs = append(attrs, schema.Attribute{Name: label, Kind: spec.OutKind})
		p.Aggs = append(p.Aggs, spec)
	}
	outSchema, err := schema.New(sch.Name(), attrs)
	if err != nil {
		return nil, fmt.Errorf("query: aggregate output schema: %w", err)
	}
	p.outSchema = outSchema
	return p, nil
}

// Labels returns the output column labels in select order (the rendered
// select items, e.g. "COUNT(*)").
func (p *AggPlan) Labels() []string { return p.labels }

// OutSchema returns the schema of the aggregate result rows.
func (p *AggPlan) OutSchema() *schema.Schema { return p.outSchema }

// InputColumns returns the distinct stored attributes the aggregation
// reads (group keys plus aggregate inputs), in first-appearance order.
func (p *AggPlan) InputColumns() []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, k := range p.Keys {
		add(k.Col)
	}
	for _, a := range p.Aggs {
		add(a.Col)
	}
	return out
}

// Bind resolves the plan's input attributes to positions in the working
// row/batch layout. It must be called once before building AggStates
// that observe rows or batches (merging encoded partials needs no
// binding beyond the plan shape).
func (p *AggPlan) Bind(lookup ColumnLookup) error {
	p.keyIdx = make([]int, len(p.Keys))
	for i, k := range p.Keys {
		idx, ok := lookup(k.Col)
		if !ok {
			return fmt.Errorf("query: unknown attribute %q", k.Col)
		}
		p.keyIdx[i] = idx
	}
	p.aggIdx = make([]int, len(p.Aggs))
	for i, a := range p.Aggs {
		if a.Col == "" {
			p.aggIdx[i] = -1
			continue
		}
		idx, ok := lookup(a.Col)
		if !ok {
			return fmt.Errorf("query: unknown attribute %q", a.Col)
		}
		p.aggIdx[i] = idx
	}
	p.bound = true
	return nil
}

// aggAcc is one aggregate item's accumulator within one group. Which
// field is live depends on the spec's accKind.
type aggAcc struct {
	i int64
	f float64
	x ExactSum
}

// aggGroup is the partial state of one group.
type aggGroup struct {
	keys  []schema.Value // canonical key values, GROUP BY order
	count int64
	accs  []aggAcc
}

// AggState accumulates per-group partial aggregates for one plan. It is
// not safe for concurrent use; parallel workers each hold their own
// state and Merge at the end.
type AggState struct {
	plan   *AggPlan
	groups map[string]*aggGroup
	keyBuf []byte
}

// NewAggState returns an empty partial-aggregate state for the plan.
func NewAggState(plan *AggPlan) *AggState {
	return &AggState{
		plan:   plan,
		groups: make(map[string]*aggGroup),
		keyBuf: make([]byte, 8*len(plan.Keys)),
	}
}

// Groups returns the number of groups currently held.
func (s *AggState) Groups() int { return len(s.groups) }

// canonFloat canonicalizes a float64 for group-key identity: -0 folds
// into +0 and every NaN into one bit pattern, so equal-comparing keys
// land in the same group on every leg.
func canonFloat(f float64) float64 {
	if f != f {
		return math.NaN()
	}
	if f == 0 {
		return 0
	}
	return f
}

// group finds or creates the group for the canonical key bits currently
// in s.keyBuf, with key values built by mk on a miss.
func (s *AggState) group(mk func() []schema.Value) *aggGroup {
	if g, ok := s.groups[string(s.keyBuf)]; ok {
		return g
	}
	g := &aggGroup{keys: mk(), accs: make([]aggAcc, len(s.plan.Aggs))}
	s.groups[string(s.keyBuf)] = g
	return g
}

// ObserveBatch folds the selected rows of a batch into the state. The
// batch's columns use the layout the plan was bound against; integral
// key and aggregate-input columns must have their I vectors filled.
//
// It works in two vectorized passes per run of equal keys. A run is a
// maximal stretch of sel whose canonical key bits (the bits keyBuf
// holds) match its first row's, so the group is looked up once per run:
// once per batch when every key is an AFC-implicit attribute such as
// REL or TIME, which Process_File_Groups fixes for a whole chunk, and
// once for a global aggregate. Each aggregate then folds the run a
// column at a time. Rows reach each group in sel order, as in
// ObserveRow, so exact sums see the same terms in the same order and
// the state encodes to the same bytes.
func (s *AggState) ObserveBatch(b *Batch, sel []int32) {
	p := s.plan
	for len(sel) > 0 {
		r := sel[0]
		for ki, idx := range p.keyIdx {
			binary.LittleEndian.PutUint64(s.keyBuf[8*ki:], vecKeyBits(&b.Cols[idx], r))
		}
		n := s.runLen(b, sel)
		g := s.group(func() []schema.Value {
			keys := make([]schema.Value, len(p.Keys))
			for ki, idx := range p.keyIdx {
				c := &b.Cols[idx]
				if c.Kind.Integral() {
					keys[ki] = schema.Value{Kind: c.Kind, Int: c.I[r]}
				} else {
					keys[ki] = schema.Value{Kind: c.Kind, Float: canonFloat(c.F[r])}
				}
			}
			return keys
		})
		s.foldRun(g, b, sel[:n])
		sel = sel[n:]
	}
}

// vecKeyBits returns the canonical group-key bits of row r of c.
func vecKeyBits(c *Vec, r int32) uint64 {
	if c.Kind.Integral() {
		return uint64(c.I[r])
	}
	return math.Float64bits(canonFloat(c.F[r]))
}

// runLen returns the length of the run at the head of sel: the rows
// whose key bits equal sel[0]'s, which s.keyBuf holds.
func (s *AggState) runLen(b *Batch, sel []int32) int {
	n := 1
rows:
	for ; n < len(sel); n++ {
		for ki, idx := range s.plan.keyIdx {
			if vecKeyBits(&b.Cols[idx], sel[n]) != binary.LittleEndian.Uint64(s.keyBuf[8*ki:]) {
				break rows
			}
		}
	}
	return n
}

// foldRun folds a run of rows that all belong to g, one aggregate (one
// column) at a time.
func (s *AggState) foldRun(g *aggGroup, b *Batch, run []int32) {
	p := s.plan
	first := g.count == 0
	for ai := range p.Aggs {
		spec := &p.Aggs[ai]
		acc := &g.accs[ai]
		switch spec.acc {
		case accCount:
		case accInt:
			acc.foldInt(spec.Func, b.Cols[p.aggIdx[ai]].I, run, first)
		case accFloat:
			acc.foldFloat(spec.Func, b.Cols[p.aggIdx[ai]].F, run, first)
		case accExact:
			acc.x.AddSel(b.Cols[p.aggIdx[ai]].F, run)
		}
	}
	g.count += int64(len(run))
}

// ObserveRow folds one materialized row (working layout) into the
// state — the scalar-path counterpart of ObserveBatch, used by the
// per-row baseline and as the oracle in differential tests.
func (s *AggState) ObserveRow(row []schema.Value) {
	p := s.plan
	for ki, idx := range p.keyIdx {
		v := row[idx]
		var bits uint64
		if v.Kind.Integral() {
			bits = uint64(v.Int)
		} else {
			bits = math.Float64bits(canonFloat(v.Float))
		}
		binary.LittleEndian.PutUint64(s.keyBuf[8*ki:], bits)
	}
	g := s.group(func() []schema.Value {
		keys := make([]schema.Value, len(p.Keys))
		for ki, idx := range p.keyIdx {
			v := row[idx]
			if !v.Kind.Integral() {
				v.Float = canonFloat(v.Float)
			}
			keys[ki] = v
		}
		return keys
	})
	first := g.count == 0
	for ai := range p.Aggs {
		spec := &p.Aggs[ai]
		acc := &g.accs[ai]
		switch spec.acc {
		case accCount:
		case accInt:
			acc.updateInt(spec.Func, row[p.aggIdx[ai]].Int, first)
		case accFloat:
			acc.updateFloat(spec.Func, row[p.aggIdx[ai]].AsFloat(), first)
		case accExact:
			acc.x.Add(row[p.aggIdx[ai]].AsFloat())
		}
	}
	g.count++
}

func (a *aggAcc) updateInt(f sqlparser.AggFunc, v int64, first bool) {
	switch f {
	case sqlparser.AggSum, sqlparser.AggAvg:
		a.i += v
	case sqlparser.AggMin:
		if first || v < a.i {
			a.i = v
		}
	case sqlparser.AggMax:
		if first || v > a.i {
			a.i = v
		}
	}
}

func (a *aggAcc) updateFloat(f sqlparser.AggFunc, v float64, first bool) {
	if first {
		a.f = v
		return
	}
	// math.Min/Max propagate NaN and order ±0 consistently, so the fold
	// is commutative — partition- and merge-order-independent.
	if f == sqlparser.AggMin {
		a.f = math.Min(a.f, v)
	} else {
		a.f = math.Max(a.f, v)
	}
}

// foldInt is updateInt over col[r] for every r in a non-empty sel.
func (a *aggAcc) foldInt(f sqlparser.AggFunc, col []int64, sel []int32, first bool) {
	m := a.i
	if first && f != sqlparser.AggSum && f != sqlparser.AggAvg {
		m = col[sel[0]]
	}
	switch f {
	case sqlparser.AggSum, sqlparser.AggAvg:
		for _, r := range sel {
			m += col[r]
		}
	case sqlparser.AggMin:
		for _, r := range sel {
			if v := col[r]; v < m {
				m = v
			}
		}
	case sqlparser.AggMax:
		for _, r := range sel {
			if v := col[r]; v > m {
				m = v
			}
		}
	}
	a.i = m
}

// foldFloat is updateFloat over col[r] for every r in a non-empty sel.
func (a *aggAcc) foldFloat(f sqlparser.AggFunc, col []float64, sel []int32, first bool) {
	m := a.f
	if first {
		m = col[sel[0]]
		sel = sel[1:]
	}
	if f == sqlparser.AggMin {
		for _, r := range sel {
			m = math.Min(m, col[r])
		}
	} else {
		for _, r := range sel {
			m = math.Max(m, col[r])
		}
	}
	a.f = m
}

// Merge folds another state (for the same plan shape) into s.
func (s *AggState) Merge(o *AggState) {
	for key, og := range o.groups {
		s.mergeGroup(key, og)
	}
}

func (s *AggState) mergeGroup(key string, og *aggGroup) {
	g, ok := s.groups[key]
	if !ok {
		g = &aggGroup{keys: og.keys, accs: make([]aggAcc, len(s.plan.Aggs))}
		s.groups[key] = g
	}
	first := g.count == 0
	for ai := range s.plan.Aggs {
		spec := &s.plan.Aggs[ai]
		acc := &g.accs[ai]
		oa := &og.accs[ai]
		switch spec.acc {
		case accCount:
		case accInt:
			switch spec.Func {
			case sqlparser.AggSum, sqlparser.AggAvg:
				acc.i += oa.i
			case sqlparser.AggMin, sqlparser.AggMax:
				acc.updateInt(spec.Func, oa.i, first)
			}
		case accFloat:
			acc.updateFloat(spec.Func, oa.f, first)
		case accExact:
			acc.x.Merge(&oa.x)
		}
	}
	g.count += og.count
}

// Finalize renders the merged state as result rows in the plan's output
// schema, groups sorted by key values (integers exactly, floats with the
// single canonical NaN group last). Zero matching rows finalize to zero
// result rows, for global aggregates too.
func (s *AggState) Finalize() [][]schema.Value {
	groups := make([]*aggGroup, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].keys, groups[j].keys
		for k := range a {
			if c := compareKey(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([][]schema.Value, len(groups))
	for gi, g := range groups {
		row := make([]schema.Value, len(s.plan.out))
		for i, ref := range s.plan.out {
			if ref < 0 {
				row[i] = g.keys[-ref-1]
				continue
			}
			spec := &s.plan.Aggs[ref]
			acc := &g.accs[ref]
			switch {
			case spec.Func == sqlparser.AggCount:
				row[i] = schema.Value{Kind: schema.Long, Int: g.count}
			case spec.Func == sqlparser.AggAvg && spec.acc == accInt:
				row[i] = schema.Value{Kind: schema.Double, Float: float64(acc.i) / float64(g.count)}
			case spec.Func == sqlparser.AggAvg:
				row[i] = schema.Value{Kind: schema.Double, Float: acc.x.Value() / float64(g.count)}
			case spec.acc == accInt:
				row[i] = schema.Value{Kind: spec.OutKind, Int: acc.i}
			case spec.acc == accFloat:
				row[i] = schema.Value{Kind: spec.OutKind, Float: acc.f}
			default: // accExact SUM
				row[i] = schema.Value{Kind: spec.OutKind, Float: acc.x.Value()}
			}
		}
		out[gi] = row
	}
	return out
}

// compareKey orders canonical group-key values: integers exactly,
// floats numerically with NaN after everything.
func compareKey(a, b schema.Value) int {
	if a.Kind.Integral() {
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	}
	af, bf := a.Float, b.Float
	aNaN, bNaN := af != af, bf != bf
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	case bNaN:
		return -1
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// Wire format of an encoded partial chunk ('A' frame payload):
//
//	uint32  ngroups
//	per group:
//	  per key:       8 bytes (canonical bits: int64 or Float64bits)
//	  count:         8 bytes (int64)
//	  per aggregate (COUNT items encode nothing):
//	    accInt:      8 bytes (int64)
//	    accFloat:    8 bytes (Float64bits)
//	    accExact:    1 flag byte (1 NaN | 2 +Inf | 4 -Inf | 8 scaled),
//	                 uint32 nterms, nterms × 8 bytes; with flag 8 also
//	                 uint32 nscaled, nscaled × 8 bytes (the ExactSum
//	                 expansion of large inputs, scaled by 2^-128)
//
// All integers are little-endian. Each chunk is independently mergeable;
// a state encodes to one or more chunks of roughly targetBytes each.

// EncodeChunks serializes the state's groups into independently
// mergeable chunks of roughly targetBytes each, groups in key-byte
// order so equal states encode to identical bytes. An empty state
// encodes to no chunks.
func (s *AggState) EncodeChunks(targetBytes int) [][]byte {
	if len(s.groups) == 0 {
		return nil
	}
	if targetBytes <= 0 {
		targetBytes = 256 << 10
	}
	var chunks [][]byte
	var buf []byte
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(n))
		chunks = append(chunks, buf)
		buf, n = nil, 0
	}
	keys := make([]string, 0, len(s.groups))
	for key := range s.groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g := s.groups[key]
		if buf == nil {
			buf = append(make([]byte, 0, targetBytes+512), 0, 0, 0, 0)
		}
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.count))
		for ai := range s.plan.Aggs {
			acc := &g.accs[ai]
			switch s.plan.Aggs[ai].acc {
			case accCount:
			case accInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(acc.i))
			case accFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(acc.f))
			case accExact:
				terms, scaled, nan, pos, neg := acc.x.Terms()
				var flags byte
				if nan {
					flags |= 1
				}
				if pos {
					flags |= 2
				}
				if neg {
					flags |= 4
				}
				if len(scaled) > 0 {
					flags |= 8
				}
				buf = append(buf, flags)
				buf = appendTerms(buf, terms)
				if len(scaled) > 0 {
					buf = appendTerms(buf, scaled)
				}
			}
		}
		n++
		if len(buf) >= targetBytes {
			flush()
		}
	}
	flush()
	return chunks
}

// PartialError reports an encoded partial chunk that fails validation.
type PartialError struct {
	Reason string
}

func (e *PartialError) Error() string { return "query: aggregate partial: " + e.Reason }

var errTruncatedPartial = &PartialError{"truncated payload"}

// MergeEncoded merges one encoded partial chunk into the state. The
// whole chunk is decoded and validated first, so a corrupt chunk
// returns a *PartialError and leaves the state untouched.
func (s *AggState) MergeEncoded(data []byte) error {
	rd := wireReader{b: data}
	ngroups, err := rd.u32()
	if err != nil {
		return err
	}
	// Every group carries at least its 8-byte count.
	if int64(ngroups) > int64(rd.remaining()/8) {
		return &PartialError{fmt.Sprintf("group count %d overruns payload", ngroups)}
	}
	p := s.plan
	type decodedGroup struct {
		key string
		g   *aggGroup
	}
	groups := make([]decodedGroup, 0, ngroups)
	for gi := uint32(0); gi < ngroups; gi++ {
		og := &aggGroup{keys: make([]schema.Value, len(p.Keys)), accs: make([]aggAcc, len(p.Aggs))}
		keyStart := rd.off
		for ki, k := range p.Keys {
			bits, err := rd.u64()
			if err != nil {
				return err
			}
			if k.Kind.Integral() {
				og.keys[ki] = schema.Value{Kind: k.Kind, Int: int64(bits)}
				continue
			}
			f := math.Float64frombits(bits)
			// Encoders only emit canonical bits; a -0 or another NaN
			// payload would split one group into two.
			if bits != math.Float64bits(canonFloat(f)) {
				return &PartialError{fmt.Sprintf("non-canonical float key %#016x for %s", bits, k.Col)}
			}
			og.keys[ki] = schema.Value{Kind: k.Kind, Float: f}
		}
		key := string(data[keyStart : keyStart+8*len(p.Keys)])
		// EncodeChunks emits each group once, in key-byte order.
		if gi > 0 && key <= groups[gi-1].key {
			return &PartialError{"groups out of key order"}
		}
		cnt, err := rd.u64()
		if err != nil {
			return err
		}
		// Every encoded group observed at least one row.
		if og.count = int64(cnt); og.count < 1 {
			return &PartialError{fmt.Sprintf("group row count %d", og.count)}
		}
		if g, ok := s.groups[key]; ok && og.count > math.MaxInt64-g.count {
			return &PartialError{"merged group row count overflows"}
		}
		for ai := range p.Aggs {
			acc := &og.accs[ai]
			switch p.Aggs[ai].acc {
			case accCount:
			case accInt:
				bits, err := rd.u64()
				if err != nil {
					return err
				}
				acc.i = int64(bits)
			case accFloat:
				bits, err := rd.u64()
				if err != nil {
					return err
				}
				acc.f = math.Float64frombits(bits)
			case accExact:
				flags, err := rd.u8()
				if err != nil {
					return err
				}
				if err := rd.terms(acc.x.AddTerm); err != nil {
					return err
				}
				if flags&8 != 0 {
					if err := rd.terms(acc.x.AddScaledTerm); err != nil {
						return err
					}
				}
				acc.x.setFlags(flags&1 != 0, flags&2 != 0, flags&4 != 0)
			}
		}
		groups = append(groups, decodedGroup{key: key, g: og})
	}
	if rd.remaining() != 0 {
		return &PartialError{fmt.Sprintf("%d trailing bytes", rd.remaining())}
	}
	for _, dg := range groups {
		s.mergeGroup(dg.key, dg.g)
	}
	return nil
}

// appendTerms encodes one expansion: a u32 count, then the terms.
func appendTerms(buf []byte, terms []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(terms)))
	for _, t := range terms {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	}
	return buf
}

// terms decodes one expansion written by appendTerms, passing each
// term to add.
func (r *wireReader) terms(add func(float64)) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	if int(n) > r.remaining()/8 {
		return &PartialError{fmt.Sprintf("term count %d overruns payload", n)}
	}
	for t := uint32(0); t < n; t++ {
		bits, err := r.u64()
		if err != nil {
			return err
		}
		add(math.Float64frombits(bits))
	}
	return nil
}

// wireReader is a bounds-checked little-endian cursor.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, errTruncatedPartial
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *wireReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, errTruncatedPartial
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, errTruncatedPartial
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}
