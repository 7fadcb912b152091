package query

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datavirt/internal/schema"
)

// Differential tests of the vectorized fold: ObserveBatch resolves a
// group once per run of equal keys and folds each aggregate a column at
// a time, and must leave exactly the state ObserveRow builds from the
// same rows in selection order — down to the bytes EncodeChunks emits,
// which carry the exact sums' expansion terms.

// negNaN and payloadNaN are NaN keys with non-canonical bits; they must
// fold into the one canonical NaN group (and share a run with it).
var (
	negNaN     = math.Float64frombits(0xFFF8000000000001)
	payloadNaN = math.Float64frombits(0x7FF8000000000123)
)

// runKeys generates n (G, H) group keys with the given run structure.
func runKeys(rng *rand.Rand, shape string, n int) (g []int64, h []float64) {
	g, h = make([]int64, n), make([]float64, n)
	zeros := []float64{0, math.Copysign(0, -1), math.NaN(), negNaN, payloadNaN}
	for i := 0; i < n; {
		run := 1
		var gv int64
		var hv float64
		switch shape {
		case "constant":
			run, gv, hv = n, 7, 2.5
		case "alternating":
			gv, hv = int64(i%2), float64(i%3)
		case "long runs":
			run, gv, hv = 1+rng.Intn(60), int64(rng.Intn(3)), float64(rng.Intn(2))
		case "distinct":
			gv, hv = int64(i), -float64(i)
		case "signed zeros and NaNs":
			// Adjacent rows spell the keys 0 and NaN with different
			// bits; each canonical key must stay one run and one group.
			gv, hv = 1, zeros[rng.Intn(len(zeros))]
		}
		for j := i; j < i+run && j < n; j++ {
			g[j], h[j] = gv, hv
		}
		i += run
	}
	return g, h
}

// foldValue draws an aggregate input: mostly float32-precision data, as
// stored attributes are, with adversarial values mixed in.
func foldValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return tricky[rng.Intn(len(tricky))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	return float64(float32(rng.Float64()))
}

// sameEncoding asserts two states encode to identical chunks.
func sameEncoding(t *testing.T, label string, want, got *AggState) {
	t.Helper()
	for _, target := range []int{0, 64} {
		w, g := want.EncodeChunks(target), got.EncodeChunks(target)
		if len(w) != len(g) {
			t.Fatalf("%s: %d chunks, want %d", label, len(g), len(w))
		}
		for i := range w {
			if !bytes.Equal(w[i], g[i]) {
				t.Fatalf("%s: chunk %d differs:\n got %x\nwant %x", label, i, g[i], w[i])
			}
		}
	}
}

func TestObserveBatchMatchesObserveRowEncoding(t *testing.T) {
	plans := map[string]*AggPlan{
		"grouped": aggTestPlan(t),
		"global":  aggTestPlanSQL(t, "SELECT COUNT(*), SUM(V), SUM(W), MIN(V), MAX(V), MIN(W), MAX(W), AVG(V), AVG(W) FROM T"),
		"by H":    aggTestPlanSQL(t, "SELECT H, COUNT(*), SUM(W), MIN(W), MAX(V) FROM T GROUP BY H"),
	}
	shapes := []string{"constant", "alternating", "long runs", "distinct", "signed zeros and NaNs"}
	rng := rand.New(rand.NewSource(23))
	for pname, plan := range plans {
		for _, shape := range shapes {
			for trial := 0; trial < 10; trial++ {
				n := rng.Intn(300)
				g, h := runKeys(rng, shape, n)
				rows := make([][]schema.Value, n)
				for i := range rows {
					rows[i] = []schema.Value{
						{Kind: schema.Int, Int: g[i]},
						{Kind: schema.Double, Float: h[i]},
						{Kind: schema.Long, Int: rng.Int63n(2000) - 1000},
						{Kind: schema.Double, Float: foldValue(rng)},
					}
				}
				batch := aggBatch(rows)
				// The batch is observed in several slices of a selection
				// (all rows, or a random subset) so runs also continue
				// into groups that already hold rows.
				var sel []int32
				for i := range rows {
					if trial%2 == 0 || rng.Intn(4) > 0 {
						sel = append(sel, int32(i))
					}
				}
				byRow, byBatch := NewAggState(plan), NewAggState(plan)
				for _, r := range sel {
					byRow.ObserveRow(rows[r])
				}
				for rest := sel; len(rest) > 0; {
					k := 1 + rng.Intn(len(rest))
					byBatch.ObserveBatch(batch, rest[:k])
					rest = rest[k:]
				}
				label := fmt.Sprintf("%s/%s/trial %d", pname, shape, trial)
				sameEncoding(t, label, byRow, byBatch)
				sameRows(t, label, byRow.Finalize(), byBatch.Finalize())
			}
		}
	}
}

func TestObserveBatchEmptySelection(t *testing.T) {
	plan := aggTestPlan(t)
	rows := randAggRows(rand.New(rand.NewSource(29)), 16)
	s := NewAggState(plan)
	s.ObserveBatch(aggBatch(rows), nil)
	if s.Groups() != 0 {
		t.Fatalf("empty selection created %d groups", s.Groups())
	}
	s.ObserveRow(rows[0])
	before := encodedState(t, s)
	s.ObserveBatch(aggBatch(rows), []int32{})
	if !bytes.Equal(encodedState(t, s), before) {
		t.Fatal("empty selection changed the state")
	}
}

// TestExactSumAddSelMatchesAdd checks AddSel leaves exactly the
// expansions and flags an Add loop does, including for inputs large
// enough to go to the scaled expansion.
func TestExactSumAddSelMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	overflow := []float64{math.MaxFloat64, math.MaxFloat64 / 2, -math.MaxFloat64, math.MaxFloat64}
	for trial := 0; trial < 300; trial++ {
		col := make([]float64, rng.Intn(200))
		for i := range col {
			switch rng.Intn(6) {
			case 0:
				col[i] = overflow[rng.Intn(len(overflow))]
			case 1:
				col[i] = tricky[rng.Intn(len(tricky))]
			default:
				col[i] = foldValue(rng)
			}
		}
		var sel []int32
		for i := range col {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		var byAdd, bySel ExactSum
		for _, r := range sel {
			byAdd.Add(col[r])
		}
		for rest := sel; len(rest) > 0; {
			k := 1 + rng.Intn(len(rest))
			bySel.AddSel(col, rest[:k])
			rest = rest[k:]
		}
		wt, ws, wn, wp, wneg := byAdd.Terms()
		gt, gs, gn, gp, gneg := bySel.Terms()
		if wn != gn || wp != gp || wneg != gneg || len(wt) != len(gt) || len(ws) != len(gs) {
			t.Fatalf("trial %d: AddSel terms %v/%v flags %v %v %v, Add terms %v/%v flags %v %v %v",
				trial, gt, gs, gn, gp, gneg, wt, ws, wn, wp, wneg)
		}
		for i := range wt {
			if math.Float64bits(wt[i]) != math.Float64bits(gt[i]) {
				t.Fatalf("trial %d: term %d is %x, want %x", trial, i, math.Float64bits(gt[i]), math.Float64bits(wt[i]))
			}
		}
		for i := range ws {
			if math.Float64bits(ws[i]) != math.Float64bits(gs[i]) {
				t.Fatalf("trial %d: scaled term %d is %x, want %x", trial, i, math.Float64bits(gs[i]), math.Float64bits(ws[i]))
			}
		}
	}
}

// Per-layer benchmarks over fixed in-package fixtures: one extraction
// block of float32-precision values, as the extractor hands to
// ObserveBatch.

const benchBlockRows = 4096

func benchColumn(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	col := make([]float64, benchBlockRows)
	for i := range col {
		col[i] = float64(float32(rng.Float64()))
	}
	return col
}

// benchBatch is a block of G, H, V, W with G filled by key(i).
func benchBatch(key func(i int) int64) *Batch {
	b := &Batch{}
	b.Reset(4, benchBlockRows)
	for c, k := range aggTestKinds {
		b.Cols[c].Kind = k
	}
	g, v := b.IntCol(0), b.IntCol(2)
	h, w := benchColumn(1), benchColumn(2)
	for i := 0; i < benchBlockRows; i++ {
		g[i] = key(i)
		b.Cols[0].F[i] = float64(g[i])
		v[i] = int64(i % 977)
		b.Cols[2].F[i] = float64(v[i])
	}
	copy(b.Cols[1].F, h)
	copy(b.Cols[3].F, w)
	return b
}

func BenchmarkObserveBatch(b *testing.B) {
	const items = "COUNT(*), SUM(W), AVG(W), MIN(V), MAX(W)"
	cases := []struct {
		name, sql string
		key       func(i int) int64
	}{
		{"constant key", "SELECT G, " + items + " FROM T GROUP BY G", func(int) int64 { return 3 }},
		{"distinct keys", "SELECT G, " + items + " FROM T GROUP BY G", func(i int) int64 { return int64(i) }},
		{"no key", "SELECT " + items + " FROM T", func(int) int64 { return 0 }},
	}
	sel := Identity(nil, benchBlockRows)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			plan := aggTestPlanSQL(b, c.sql)
			batch := benchBatch(c.key)
			s := NewAggState(plan)
			s.ObserveBatch(batch, sel) // create the groups outside the timing
			b.SetBytes(int64(benchBlockRows * 8 * len(plan.InputColumns())))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ObserveBatch(batch, sel)
			}
		})
	}
}

func BenchmarkExactSumAdd(b *testing.B) {
	col := benchColumn(3)
	sel := Identity(nil, benchBlockRows)
	// Each block starts from a fresh sum, or from a two-term expansion
	// (a sum that a tiny value has already made inexact in one float64).
	starts := []struct {
		name  string
		terms []float64
	}{
		{"fresh", nil},
		{"two-term", []float64{0x1p-60, 1}},
	}
	for _, st := range starts {
		start := func() ExactSum {
			var x ExactSum
			for _, t := range st.terms {
				x.Add(t)
			}
			return x
		}
		b.Run("Add/"+st.name, func(b *testing.B) {
			b.SetBytes(benchBlockRows * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := start()
				for _, r := range sel {
					x.Add(col[r])
				}
			}
		})
		b.Run("AddSel/"+st.name, func(b *testing.B) {
			b.SetBytes(benchBlockRows * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := start()
				x.AddSel(col, sel)
			}
		})
	}
}

func BenchmarkMergeEncoded(b *testing.B) {
	plan := aggTestPlan(b)
	// 64 groups of (G, H), the size of a GROUP BY REL, TIME partial.
	src := NewAggState(plan)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < benchBlockRows; i++ {
		src.ObserveRow([]schema.Value{
			{Kind: schema.Int, Int: int64(i % 8)},
			{Kind: schema.Double, Float: float64(i / 8 % 8)},
			{Kind: schema.Long, Int: rng.Int63n(1000)},
			{Kind: schema.Double, Float: float64(float32(rng.Float64()))},
		})
	}
	chunk := encodedState(b, src)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewAggState(plan).MergeEncoded(chunk); err != nil {
			b.Fatal(err)
		}
	}
}
