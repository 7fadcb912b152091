package query

import (
	"math"
	"math/big"
)

// ExactSum accumulates float64 terms without rounding error, so that
// partial sums computed independently on cluster legs merge to the exact
// same final value as a single-node pass regardless of partitioning or
// merge order. It keeps a Shewchuk-style nonoverlapping expansion: a
// slice of float64 whose exact mathematical sum equals the running sum.
// Adding a term costs a handful of flops amortized (the expansion stays
// 1–3 terms for realistic data); rounding to a final float64 happens
// once, at finalize time.
//
// Non-finite inputs cannot participate in an expansion; they are folded
// into commutative flags with IEEE semantics (+Inf + -Inf = NaN), so the
// result is still independent of accumulation order.
type ExactSum struct {
	terms []float64 // nonoverlapping expansion, increasing magnitude
	neg   bool      // saw -Inf
	pos   bool      // saw +Inf
	nan   bool      // saw NaN
}

// twoSum returns s = fl(a+b) and the exact rounding error e with
// a + b = s + e (Knuth's branch-free error-free transformation).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	av := s - bv
	br := b - bv
	ar := a - av
	return s, ar + br
}

// Add folds one value into the sum.
func (x *ExactSum) Add(v float64) {
	if v != v {
		x.nan = true
		return
	}
	if math.IsInf(v, 1) {
		x.pos = true
		return
	}
	if math.IsInf(v, -1) {
		x.neg = true
		return
	}
	// Grow-expansion: carry v through the existing terms, keeping only
	// nonzero rounding errors (zero elimination keeps the slice short).
	q := v
	out := x.terms[:0]
	for _, t := range x.terms {
		var err float64
		q, err = twoSum(q, t)
		if err != 0 {
			out = append(out, err)
		}
	}
	if math.IsInf(q, 0) {
		// The running sum overflowed float64 (the rounding errors
		// recorded past that point are garbage). Saturate the way IEEE
		// accumulation would: the sum is ±Inf from here on. Exactness —
		// and with it partition-independence — holds only while every
		// running sum stays in range.
		x.pos = x.pos || q > 0
		x.neg = x.neg || q < 0
		x.terms = x.terms[:0]
		return
	}
	if q != 0 || len(out) == 0 {
		out = append(out, q)
	}
	x.terms = out
}

// AddSel folds col[r] for every r in sel, in sel order, leaving x in
// exactly the state that calling Add on each value would. It inlines
// the common step — a finite value into a one-term expansion whose sum
// stays exact and in range — and hands every other value (non-finite,
// rounding, overflowing, or into a longer expansion) to Add.
func (x *ExactSum) AddSel(col []float64, sel []int32) {
	terms := x.terms
	for _, r := range sel {
		v := col[r]
		if len(terms) == 1 {
			// An exact, finite step; a NaN or ±Inf v, a rounding error
			// or an overflow fails the test and goes through Add.
			if s, e := twoSum(v, terms[0]); e == 0 && s-s == 0 {
				terms[0] = s
				continue
			}
		}
		x.terms = terms
		x.Add(v)
		terms = x.terms
	}
	x.terms = terms
}

// Merge folds another exact sum into x. Because both sides are exact,
// the merged state equals accumulating every input term directly, in any
// order.
func (x *ExactSum) Merge(y *ExactSum) {
	for _, t := range y.terms {
		x.Add(t)
	}
	x.nan = x.nan || y.nan
	x.pos = x.pos || y.pos
	x.neg = x.neg || y.neg
}

// Terms returns the expansion terms plus the non-finite flags for wire
// encoding; AddTerm-ing them into a fresh ExactSum reproduces the state.
func (x *ExactSum) Terms() (terms []float64, nan, pos, neg bool) {
	return x.terms, x.nan, x.pos, x.neg
}

// AddTerm folds one wire term back in; t may be non-finite.
func (x *ExactSum) AddTerm(t float64) { x.Add(t) }

// setFlags ORs the wire non-finite flags in.
func (x *ExactSum) setFlags(nan, pos, neg bool) {
	x.nan = x.nan || nan
	x.pos = x.pos || pos
	x.neg = x.neg || neg
}

// valuePrec is the big.Float precision used to round an expansion to its
// final float64. Any sum of float64 terms spans at most ~2100 bits of
// significand (exponent range 2^-1074 .. 2^1024 plus carry growth), so
// 2200 bits makes the big.Float arithmetic exact and the single final
// rounding correct — and therefore identical for every decomposition of
// the same mathematical sum.
const valuePrec = 2200

// Value rounds the exact sum to the nearest float64.
func (x *ExactSum) Value() float64 {
	switch {
	case x.nan, x.pos && x.neg:
		return math.NaN()
	case x.pos:
		return math.Inf(1)
	case x.neg:
		return math.Inf(-1)
	}
	if len(x.terms) == 0 {
		return 0
	}
	if len(x.terms) == 1 {
		return x.terms[0]
	}
	acc := new(big.Float).SetPrec(valuePrec)
	t := new(big.Float).SetPrec(valuePrec)
	for _, v := range x.terms {
		acc.Add(acc, t.SetFloat64(v))
	}
	f, _ := acc.Float64()
	return f
}
