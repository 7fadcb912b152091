package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"datavirt/internal/schema"
	"datavirt/internal/sqlparser"
)

// Property test of the partial-aggregate merge: however the input rows
// are partitioned across legs, and however the legs' encoded partials
// are chunked and merge-ordered, the finalized result must be
// bit-identical to a single state observing every row — the invariant
// that makes local and cluster aggregate execution interchangeable.

const aggTestSQL = "SELECT G, H, COUNT(*), SUM(V), SUM(W), MIN(V), MAX(V), MIN(W), MAX(W), AVG(V), AVG(W) FROM T GROUP BY G, H"

// aggTestKinds are the kinds of the test table's columns G, H, V, W.
var aggTestKinds = []schema.Kind{schema.Int, schema.Double, schema.Long, schema.Double}

func aggTestPlan(t testing.TB) *AggPlan {
	return aggTestPlanSQL(t, aggTestSQL)
}

// aggTestPlanSQL compiles and binds an aggregate query over the test
// table T(G, H, V, W).
func aggTestPlanSQL(t testing.TB, sql string) *AggPlan {
	t.Helper()
	cols := []string{"G", "H", "V", "W"}
	attrs := make([]schema.Attribute, len(cols))
	for i, c := range cols {
		attrs[i] = schema.Attribute{Name: c, Kind: aggTestKinds[i]}
	}
	plan, err := BuildAggPlan(sqlparser.MustParse(sql), schema.MustNew("T", attrs))
	if err != nil {
		t.Fatal(err)
	}
	err = plan.Bind(func(name string) (int, bool) {
		for i, c := range cols {
			if c == name {
				return i, true
			}
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// tricky are adversarial SUM inputs, including magnitudes whose plain
// running sums overflow in some orders (ExactSum stays exact there).
var tricky = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	1e300, -1e300, 1e-300, math.SmallestNonzeroFloat64, 1e16, -1e16,
	math.MaxFloat64, -math.MaxFloat64,
}

// randAggRows generates rows with few distinct keys (to force group
// collisions across legs) and adversarial float values, including a -0
// and NaN key so canonicalization is exercised.
func randAggRows(rng *rand.Rand, n int) [][]schema.Value {
	keys := []float64{1.5, -2.25, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1)}
	rows := make([][]schema.Value, n)
	for i := range rows {
		w := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		if rng.Intn(20) == 0 {
			w = tricky[rng.Intn(len(tricky))]
		}
		rows[i] = []schema.Value{
			{Kind: schema.Int, Int: int64(rng.Intn(4))},
			{Kind: schema.Double, Float: keys[rng.Intn(len(keys))]},
			{Kind: schema.Long, Int: rng.Int63n(1000) - 500},
			{Kind: schema.Double, Float: w},
		}
	}
	return rows
}

// sameRows asserts two finalized result sets are bit-identical
// (Float64bits, so NaN payloads and -0 count too).
func sameRows(t *testing.T, label string, want, got [][]schema.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Kind != b.Kind || a.Int != b.Int ||
				math.Float64bits(a.Float) != math.Float64bits(b.Float) {
				t.Fatalf("%s: row %d col %d: got %+v, want %+v", label, i, j, b, a)
			}
		}
	}
}

func TestAggMergePartitionIndependence(t *testing.T) {
	plan := aggTestPlan(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		rows := randAggRows(rng, rng.Intn(400))

		single := NewAggState(plan)
		for _, row := range rows {
			single.ObserveRow(row)
		}
		want := single.Finalize()

		// Partition the rows across 1..6 legs at random.
		nlegs := 1 + rng.Intn(6)
		legs := make([]*AggState, nlegs)
		for i := range legs {
			legs[i] = NewAggState(plan)
		}
		for _, row := range rows {
			legs[rng.Intn(nlegs)].ObserveRow(row)
		}

		// In-memory merge path (parallel workers within one node).
		merged := NewAggState(plan)
		for _, leg := range legs {
			merged.Merge(leg)
		}
		sameRows(t, "Merge", want, merged.Finalize())

		// Wire path (cluster 'A' frames): tiny target bytes force
		// multi-chunk encodings, and the chunks are merged shuffled.
		coord := NewAggState(plan)
		var chunks [][]byte
		for _, leg := range legs {
			chunks = append(chunks, leg.EncodeChunks(1+rng.Intn(200))...)
		}
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		for _, c := range chunks {
			if err := coord.MergeEncoded(c); err != nil {
				t.Fatalf("MergeEncoded: %v", err)
			}
		}
		sameRows(t, "MergeEncoded", want, coord.Finalize())
	}
}

// aggBatch lays rows (the aggTestPlan layout: G, H, V, W) out as a
// batch, with I vectors for the integral columns.
func aggBatch(rows [][]schema.Value) *Batch {
	batch := &Batch{}
	batch.Reset(4, len(rows))
	for c := 0; c < 4; c++ {
		batch.Cols[c].Kind = aggTestKinds[c]
		f := batch.Cols[c].F
		var iv []int64
		if aggTestKinds[c].Integral() {
			iv = batch.IntCol(c)
		}
		for r, row := range rows {
			f[r] = row[c].AsFloat()
			if iv != nil {
				iv[r] = row[c].Int
			}
		}
	}
	return batch
}

func TestAggBatchMatchesRowPath(t *testing.T) {
	plan := aggTestPlan(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows := randAggRows(rng, 1+rng.Intn(300))

		byRow := NewAggState(plan)
		for _, row := range rows {
			byRow.ObserveRow(row)
		}

		// The batch path observes the same rows through column vectors
		// with a partial selection; the unselected rows go through
		// ObserveRow so both states see the identical multiset.
		batch := aggBatch(rows)
		var sel, rest []int32
		for i := range rows {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(i))
			} else {
				rest = append(rest, int32(i))
			}
		}
		byBatch := NewAggState(plan)
		byBatch.ObserveBatch(batch, sel)
		for _, r := range rest {
			byBatch.ObserveRow(rows[r])
		}
		sameRows(t, "ObserveBatch", byRow.Finalize(), byBatch.Finalize())
	}
}

func TestAggEmptyAndEdgeCases(t *testing.T) {
	plan := aggTestPlan(t)

	empty := NewAggState(plan)
	if rows := empty.Finalize(); len(rows) != 0 {
		t.Errorf("empty state finalized to %d rows, want 0", len(rows))
	}
	if chunks := empty.EncodeChunks(0); chunks != nil {
		t.Errorf("empty state encoded to %d chunks, want none", len(chunks))
	}

	// Global aggregate (no GROUP BY) over zero rows must also finalize
	// empty — the documented departure from SQL's one-row-of-NULLs.
	sch := schema.MustNew("T", []schema.Attribute{{Name: "V", Kind: schema.Long}})
	gq := sqlparser.MustParse("SELECT COUNT(*), SUM(V) FROM T")
	gplan, err := BuildAggPlan(gq, sch)
	if err != nil {
		t.Fatal(err)
	}
	if err := gplan.Bind(func(string) (int, bool) { return 0, true }); err != nil {
		t.Fatal(err)
	}
	if rows := NewAggState(gplan).Finalize(); len(rows) != 0 {
		t.Errorf("global aggregate over zero rows finalized to %d rows, want 0", len(rows))
	}

	// -0 and +0 group keys must land in the same group; NaN keys in one
	// canonical group sorted last.
	s := NewAggState(plan)
	mk := func(h float64) []schema.Value {
		return []schema.Value{
			{Kind: schema.Int, Int: 1},
			{Kind: schema.Double, Float: h},
			{Kind: schema.Long, Int: 10},
			{Kind: schema.Double, Float: 1},
		}
	}
	s.ObserveRow(mk(0))
	s.ObserveRow(mk(math.Copysign(0, -1)))
	s.ObserveRow(mk(math.NaN()))
	rows := s.Finalize()
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2 (±0 folded, NaN separate): %v", len(rows), rows)
	}
	if rows[0][2].Int != 2 {
		t.Errorf("±0 group count = %d, want 2", rows[0][2].Int)
	}
	if last := rows[1][1].Float; !math.IsNaN(last) {
		t.Errorf("NaN group should sort last, got key %v", last)
	}
}

func TestAggMergeEncodedRejectsCorrupt(t *testing.T) {
	plan := aggTestPlan(t)
	s := NewAggState(plan)
	s.ObserveRow(randAggRows(rand.New(rand.NewSource(1)), 1)[0])
	chunks := s.EncodeChunks(0)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	good := chunks[0]
	cases := map[string][]byte{
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte(nil), good...), 0xEE),
		"short":       good[:2],
		"countsOnly":  {9, 0, 0, 0},
		"emptyButLen": {1, 0, 0, 0},
	}
	for name, data := range cases {
		fresh := NewAggState(plan)
		if err := fresh.MergeEncoded(data); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
	// The pristine chunk still merges.
	fresh := NewAggState(plan)
	if err := fresh.MergeEncoded(good); err != nil {
		t.Errorf("pristine chunk rejected: %v", err)
	}
}

// TestAggMergeEncodedCorruptLeavesStateUntouched merges corrupt
// partials into a populated state: each must fail without merging any
// of its groups, so the state encodes to the same bytes as before.
func TestAggMergeEncodedCorruptLeavesStateUntouched(t *testing.T) {
	plan := aggTestPlan(t)
	rng := rand.New(rand.NewSource(7))
	partial := NewAggState(plan)
	for _, row := range randAggRows(rng, 64) {
		partial.ObserveRow(row)
	}
	if partial.Groups() < 2 {
		t.Fatalf("partial has %d groups, want several", partial.Groups())
	}
	chunks := partial.EncodeChunks(0)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	good := chunks[0]
	cases := map[string][]byte{
		"trailing bytes":          append(append([]byte(nil), good...), 0xEE, 0xEE),
		"truncated in last group": good[:len(good)-5],
	}
	for name, data := range cases {
		target := NewAggState(plan)
		for _, row := range randAggRows(rng, 32) {
			target.ObserveRow(row)
		}
		before := target.EncodeChunks(0)
		if err := target.MergeEncoded(data); err == nil {
			t.Errorf("%s: corrupt partial accepted", name)
		}
		after := target.EncodeChunks(0)
		if len(after) != len(before) {
			t.Fatalf("%s: state encodes to %d chunks after the failed merge, %d before", name, len(after), len(before))
		}
		for i := range before {
			if string(after[i]) != string(before[i]) {
				t.Errorf("%s: chunk %d changed by the failed merge", name, i)
			}
		}
	}
}

// encodedState is a state's single-chunk encoding (nil when empty).
func encodedState(t testing.TB, s *AggState) []byte {
	t.Helper()
	chunks := s.EncodeChunks(0)
	if len(chunks) > 1 {
		t.Fatalf("state encoded to %d chunks, want at most 1", len(chunks))
	}
	if len(chunks) == 0 {
		return nil
	}
	return chunks[0]
}

// TestAggMergeEncodedRejectsBadGroups pins the group-level checks of the
// wire decoder: a float key that is not in canonical form (it would
// split one group in two), a row count below one (it would finalize to
// a COUNT 0 or negative row), a count that overflows the merged group's,
// and a group encoded twice fail with a *PartialError and leave the
// state untouched.
func TestAggMergeEncodedRejectsBadGroups(t *testing.T) {
	plan := aggTestPlan(t)
	one := NewAggState(plan)
	one.ObserveRow([]schema.Value{
		{Kind: schema.Int, Int: 1},
		{Kind: schema.Double, Float: 0},
		{Kind: schema.Long, Int: 10},
		{Kind: schema.Double, Float: 2.5},
	})
	good := encodedState(t, one)
	// Layout of the one-group chunk: ngroups, G, H, count, accumulators.
	const hOff, countOff = 4 + 8, 4 + 16
	patch := func(off int, bits uint64) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[off:], bits)
		return b
	}
	cases := map[string][]byte{
		"negative zero key":   patch(hOff, math.Float64bits(math.Copysign(0, -1))),
		"NaN payload key":     patch(hOff, 0x7FF8000000000002),
		"negative NaN key":    patch(hOff, 0xFFF8000000000001),
		"zero row count":      patch(countOff, 0),
		"negative row count":  patch(countOff, uint64(math.MaxUint64)),
		"minimum int64 count": patch(countOff, 1<<63),
		"count overflow":      patch(countOff, math.MaxInt64),
		"duplicate group":     append(append([]byte{2, 0, 0, 0}, good[4:]...), good[4:]...),
	}
	for name, data := range cases {
		target := NewAggState(plan)
		if err := target.MergeEncoded(good); err != nil {
			t.Fatal(err)
		}
		before := encodedState(t, target)
		err := target.MergeEncoded(data)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got error %v, want a *PartialError", name, err)
		}
		if !bytes.Equal(encodedState(t, target), before) {
			t.Errorf("%s: the failed merge changed the state", name)
		}
		if n := len(target.Finalize()); n != 1 {
			t.Errorf("%s: %d result rows after the failed merge, want 1", name, n)
		}
	}
	// The canonical NaN key is accepted.
	nan := NewAggState(plan)
	if err := nan.MergeEncoded(patch(hOff, math.Float64bits(canonFloat(math.NaN())))); err != nil {
		t.Errorf("canonical NaN key rejected: %v", err)
	}
}

// FuzzMergeEncoded feeds arbitrary chunks to the wire decoder, seeded
// with real encodings. Every input either fails with the state left
// byte-for-byte as it was, or merges into a state that re-encodes and
// re-merges to the same result rows.
func FuzzMergeEncoded(f *testing.F) {
	plan := aggTestPlan(f)
	base := randAggRows(rand.New(rand.NewSource(11)), 48)
	for seed := int64(0); seed < 4; seed++ {
		s := NewAggState(plan)
		for _, row := range randAggRows(rand.New(rand.NewSource(seed)), 1+int(seed)*20) {
			s.ObserveRow(row)
		}
		for _, c := range s.EncodeChunks(1 + int(seed)*64) {
			f.Add(c)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		target := NewAggState(plan)
		for _, row := range base {
			target.ObserveRow(row)
		}
		before := encodedState(t, target)
		if err := target.MergeEncoded(data); err != nil {
			if !bytes.Equal(encodedState(t, target), before) {
				t.Fatalf("failed merge (%v) changed the state", err)
			}
			return
		}
		again := NewAggState(plan)
		for _, c := range target.EncodeChunks(256) {
			if err := again.MergeEncoded(c); err != nil {
				t.Fatalf("re-merging the merged state's encoding: %v", err)
			}
		}
		sameRows(t, "re-merged", target.Finalize(), again.Finalize())
	})
}
