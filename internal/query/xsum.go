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
//
// Finite inputs of magnitude at least 2^hiMinExp go to a second
// expansion, hi, scaled exactly by 2^-hiShift. Neither expansion's
// running sum can then leave the float64 range (that would take 2^64
// inputs), so the sum stays exact even where a plain running sum would
// overflow part-way: {MaxFloat64, MaxFloat64, -MaxFloat64} sums to
// MaxFloat64 in every order and partition, and only the final rounding
// turns a sum beyond the float64 range into ±Inf.
type ExactSum struct {
	terms []float64 // nonoverlapping expansion, increasing magnitude
	hi    []float64 // expansion of the large inputs, scaled by 2^-hiShift
	neg   bool      // saw -Inf
	pos   bool      // saw +Inf
	nan   bool      // saw NaN
}

// hiMinExp and hiShift split inputs between the two expansions: every
// input to terms is below 2^hiMinExp, and inputs from 2^hiMinExp up are
// scaled by 2^-hiShift, exactly (they stay normal), into hi.
const (
	hiMinExp = 960
	hiShift  = 128
)

var hiMin = math.Ldexp(1, hiMinExp)

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
	if math.Abs(v) >= hiMin {
		x.hi = x.grow(x.hi, math.Ldexp(v, -hiShift))
		return
	}
	x.terms = x.grow(x.terms, v)
}

// AddScaledTerm folds one wire term of the scaled expansion back in;
// t may be non-finite.
func (x *ExactSum) AddScaledTerm(t float64) {
	if t-t != 0 {
		x.Add(t) // NaN and ±Inf scale to themselves
		return
	}
	x.hi = x.grow(x.hi, t)
}

// grow carries finite v through the expansion e (Shewchuk's
// grow-expansion), keeping only nonzero rounding errors (zero
// elimination keeps the slice short), and returns the new expansion.
func (x *ExactSum) grow(e []float64, v float64) []float64 {
	q := v
	out := e[:0]
	for _, t := range e {
		var err float64
		q, err = twoSum(q, t)
		if err != 0 {
			out = append(out, err)
		}
	}
	if math.IsInf(q, 0) {
		// Out of range: only reachable with 2^64 inputs or crafted wire
		// terms. The rounding errors recorded past that point are
		// garbage, so saturate the way IEEE accumulation would.
		x.pos = x.pos || q > 0
		x.neg = x.neg || q < 0
		return e[:0]
	}
	if q != 0 || len(out) == 0 {
		out = append(out, q)
	}
	return out
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
		if len(terms) == 1 && math.Abs(v) < hiMin {
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
	for _, t := range y.hi {
		x.AddScaledTerm(t)
	}
	x.nan = x.nan || y.nan
	x.pos = x.pos || y.pos
	x.neg = x.neg || y.neg
}

// Terms returns both expansions (scaled holds the large inputs' terms,
// scaled by 2^-hiShift) plus the non-finite flags for wire encoding;
// AddTerm-ing terms and AddScaledTerm-ing scaled into a fresh ExactSum
// reproduces the sum.
func (x *ExactSum) Terms() (terms, scaled []float64, nan, pos, neg bool) {
	return x.terms, x.hi, x.nan, x.pos, x.neg
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
// final float64. Any sum of float64 terms spans at most ~2170 bits of
// significand (exponent range 2^-1074 .. 2^1024 plus carry growth of up
// to 64 bits for 2^64 inputs), so
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
	if len(x.hi) == 0 {
		if len(x.terms) == 0 {
			return 0
		}
		if len(x.terms) == 1 {
			return x.terms[0]
		}
	}
	acc := new(big.Float).SetPrec(valuePrec)
	t := new(big.Float).SetPrec(valuePrec)
	for _, v := range x.hi {
		acc.Add(acc, t.SetFloat64(v))
	}
	acc.SetMantExp(acc, hiShift)
	for _, v := range x.terms {
		acc.Add(acc, t.SetFloat64(v))
	}
	f, _ := acc.Float64()
	return f
}
