package query

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the oracle: an exact big.Float accumulation rounded once to
// float64, the definition ExactSum.Value promises to match.
func bigSum(terms []float64) float64 {
	acc := new(big.Float).SetPrec(valuePrec)
	t := new(big.Float).SetPrec(valuePrec)
	for _, v := range terms {
		acc.Add(acc, t.SetFloat64(v))
	}
	f, _ := acc.Float64()
	return f
}

func randTerms(rng *rand.Rand, n int) []float64 {
	terms := make([]float64, n)
	for i := range terms {
		// Wildly mixed magnitudes: the regime where naive summation
		// loses low-order bits and order starts to matter.
		terms[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		if rng.Intn(10) == 0 {
			terms[i] = -terms[i]
		}
	}
	return terms
}

func TestExactSumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		terms := randTerms(rng, rng.Intn(300))
		var x ExactSum
		for _, v := range terms {
			x.Add(v)
		}
		got, want := x.Value(), bigSum(terms)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d terms): ExactSum %g (%x), big.Float %g (%x)",
				trial, len(terms), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestExactSumPartitionIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		terms := randTerms(rng, 1+rng.Intn(200))
		var whole ExactSum
		for _, v := range terms {
			whole.Add(v)
		}

		nparts := 1 + rng.Intn(5)
		parts := make([]ExactSum, nparts)
		for _, v := range terms {
			parts[rng.Intn(nparts)].Add(v)
		}
		var merged ExactSum
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if a, b := whole.Value(), merged.Value(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: whole %g != merged %g", trial, a, b)
		}

		// Wire round-trip: Terms → AddTerm/setFlags reproduces the state.
		if a, b := merged.Value(), roundTrip(&merged).Value(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: round-trip %g != %g", trial, b, a)
		}
	}
}

// roundTrip rebuilds x from its wire form: Terms → AddTerm,
// AddScaledTerm and setFlags.
func roundTrip(x *ExactSum) *ExactSum {
	var rt ExactSum
	ts, scaled, nan, pos, neg := x.Terms()
	for _, v := range ts {
		rt.AddTerm(v)
	}
	for _, v := range scaled {
		rt.AddScaledTerm(v)
	}
	rt.setFlags(nan, pos, neg)
	return &rt
}

// TestExactSumOverflowOrderIndependent sums inputs near the top of the
// float64 range, whose plain running sums overflow part-way in some
// orders but not others. Every order, partition and wire round-trip
// must round the one exact sum: the big.Float oracle's value.
func TestExactSumOverflowOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	huge := []float64{math.MaxFloat64, -math.MaxFloat64, 1e308, -1e308, math.Ldexp(1, 960),
		-math.Ldexp(1, 960), math.Nextafter(math.Ldexp(1, 960), 0), 3, -0.5, 1e-300}
	for trial := 0; trial < 300; trial++ {
		terms := make([]float64, 1+rng.Intn(40))
		for i := range terms {
			terms[i] = huge[rng.Intn(len(huge))]
			if rng.Intn(4) == 0 {
				terms[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
			}
		}
		want := bigSum(terms)
		for order := 0; order < 4; order++ {
			rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
			parts := make([]ExactSum, 1+rng.Intn(4))
			for _, v := range terms {
				parts[rng.Intn(len(parts))].Add(v)
			}
			var merged ExactSum
			for i := range parts {
				merged.Merge(roundTrip(&parts[i]))
			}
			if got := merged.Value(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d order %d: %g, want %g (terms %v)", trial, order, got, want, terms)
			}
		}
	}
	// The documented case: a plain running sum overflows at the second
	// term, the exact sum does not.
	var x ExactSum
	for _, v := range []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64} {
		x.Add(v)
	}
	if v := x.Value(); v != math.MaxFloat64 {
		t.Errorf("MaxFloat64 + MaxFloat64 - MaxFloat64 = %g, want MaxFloat64", v)
	}
}

func TestExactSumNonFinite(t *testing.T) {
	add := func(vals ...float64) float64 {
		var x ExactSum
		for _, v := range vals {
			x.Add(v)
		}
		return x.Value()
	}
	if v := add(1, math.Inf(1), 2); !math.IsInf(v, 1) {
		t.Errorf("+Inf sum = %g", v)
	}
	if v := add(math.Inf(-1), 5); !math.IsInf(v, -1) {
		t.Errorf("-Inf sum = %g", v)
	}
	if v := add(math.Inf(1), math.Inf(-1)); !math.IsNaN(v) {
		t.Errorf("+Inf + -Inf = %g, want NaN", v)
	}
	if v := add(math.NaN(), 1, 2); !math.IsNaN(v) {
		t.Errorf("NaN sum = %g, want NaN", v)
	}
	if v := add(); v != 0 {
		t.Errorf("empty sum = %g, want 0", v)
	}
	// A sum beyond the float64 range rounds to ±Inf.
	if v := add(math.MaxFloat64, math.MaxFloat64); !math.IsInf(v, 1) {
		t.Errorf("overflowing sum = %g, want +Inf", v)
	}
	if v := add(-math.MaxFloat64, -math.MaxFloat64, 1); !math.IsInf(v, -1) {
		t.Errorf("overflowing negative sum = %g, want -Inf", v)
	}
	// Flags are order-independent: merging {+Inf} into {-Inf} equals
	// adding both to one state.
	var a, b ExactSum
	a.Add(math.Inf(1))
	b.Add(math.Inf(-1))
	a.Merge(&b)
	if v := a.Value(); !math.IsNaN(v) {
		t.Errorf("merged ±Inf = %g, want NaN", v)
	}
}

func TestExactSumCancellation(t *testing.T) {
	// Classic catastrophic-cancellation cases where naive left-to-right
	// summation returns the wrong answer outright.
	cases := [][]float64{
		{1e308, 1, -1e308},
		{1e16, 1, -1e16},
		{1e300, 1e300, -1e300, -1e300, 3.5},
		{1, 1e-300, -1, 1e-300},
	}
	for _, terms := range cases {
		var x ExactSum
		for _, v := range terms {
			x.Add(v)
		}
		got, want := x.Value(), bigSum(terms)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: got %g, want %g", terms, got, want)
		}
	}
}
