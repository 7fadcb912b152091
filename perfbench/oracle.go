package main

import (
	"math"
	"math/big"
	"sort"
	"strings"

	"datavirt/internal/table"
)

// digest is an order-independent fingerprint of a result set: the row
// count plus the sum and xor of a 64-bit hash per row. Each value is
// hashed as its float64 bits, so integer and float columns compare by
// numeric value, as the oracle computes them.
type digest struct {
	N   int64
	Sum uint64
	Xor uint64
}

func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (d *digest) add(h uint64) {
	h = mix64(h)
	d.N++
	d.Sum += h
	d.Xor ^= h
}

// addRow folds one engine row.
func (d *digest) addRow(r table.Row) {
	h := uint64(len(r))
	for _, v := range r {
		h = mix64(h ^ math.Float64bits(v.AsFloat()))
	}
	d.add(h)
}

// addVals folds one oracle row.
func (d *digest) addVals(vals []float64) {
	h := uint64(len(vals))
	for _, v := range vals {
		h = mix64(h ^ math.Float64bits(v))
	}
	d.add(h)
}

// aggItem is one aggregate of a SELECT list; col is empty for COUNT(*).
type aggItem struct {
	fn, col string
}

func (a aggItem) sql() string {
	if a.col == "" {
		return a.fn + "(*)"
	}
	return a.fn + "(" + a.col + ")"
}

// aggSpec is the oracle's GROUP BY: keys then items, in SELECT order.
type aggSpec struct {
	keys  []string
	items []aggItem
}

func (s aggSpec) selectList() string {
	parts := append([]string(nil), s.keys...)
	for _, it := range s.items {
		parts = append(parts, it.sql())
	}
	return strings.Join(parts, ", ")
}

func (s aggSpec) groupBy() string {
	if len(s.keys) == 0 {
		return ""
	}
	return " GROUP BY " + strings.Join(s.keys, ", ")
}

// aggAcc accumulates one group. Sums are exact and rounded once at the
// end, as the engine's exact summation does.
type aggAcc struct {
	keys  []float64
	count int64
	sums  []exactSum
	mins  []float64
	maxs  []float64
}

// exactSum adds float32-representable values without rounding: each
// value is an integer mantissa times a power of two, and mantissas are
// summed per binary exponent (2^39 values fit an int64 bucket). The
// buckets are rounded to float64 once, through big.Float.
type exactSum struct {
	buckets *[256]int64
}

func (x *exactSum) add(v float64) {
	if x.buckets == nil {
		x.buckets = new([256]int64)
	}
	b := math.Float32bits(float32(v))
	exp := int(b >> 23 & 0xff)
	m := int64(b & 0x7fffff)
	if exp == 0 {
		exp = 1 // subnormal: m × 2^-149
	} else {
		m |= 1 << 23
	}
	if b>>31 != 0 {
		m = -m
	}
	x.buckets[exp] += m
}

// value returns the sum correctly rounded to float64.
func (x *exactSum) value() float64 {
	if x.buckets == nil {
		return 0
	}
	s := new(big.Float).SetPrec(1024)
	for exp, m := range x.buckets {
		if m != 0 {
			t := new(big.Float).SetPrec(1024).SetInt64(m)
			s.Add(s, t.SetMantExp(t, exp-150))
		}
	}
	f, _ := s.Float64()
	return f
}

// aggOracle folds rows into groups keyed by their key values.
type aggOracle struct {
	spec   aggSpec
	groups map[string]*aggAcc
	keyBuf []byte
}

func newAggOracle(spec aggSpec) *aggOracle {
	return &aggOracle{spec: spec, groups: map[string]*aggAcc{}}
}

func (o *aggOracle) observe(get func(col string) float64) {
	o.keyBuf = o.keyBuf[:0]
	for _, k := range o.spec.keys {
		bits := math.Float64bits(get(k))
		for i := 0; i < 8; i++ {
			o.keyBuf = append(o.keyBuf, byte(bits>>(8*i)))
		}
	}
	g := o.groups[string(o.keyBuf)]
	if g == nil {
		n := len(o.spec.items)
		g = &aggAcc{sums: make([]exactSum, n), mins: make([]float64, n), maxs: make([]float64, n)}
		for _, k := range o.spec.keys {
			g.keys = append(g.keys, get(k))
		}
		for i := range g.mins {
			g.mins[i], g.maxs[i] = math.Inf(1), math.Inf(-1)
		}
		o.groups[string(o.keyBuf)] = g
	}
	g.count++
	for i, it := range o.spec.items {
		if it.col == "" {
			continue
		}
		v := get(it.col)
		switch it.fn {
		case "SUM", "AVG":
			g.sums[i].add(v)
		case "MIN":
			g.mins[i] = math.Min(g.mins[i], v)
		case "MAX":
			g.maxs[i] = math.Max(g.maxs[i], v)
		}
	}
}

// digest renders the finalized groups. Zero matching rows give zero
// result rows, global aggregates included, as the engine does.
func (o *aggOracle) digest() digest {
	var d digest
	keys := make([]string, 0, len(o.groups))
	for k := range o.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]float64, 0, len(o.spec.keys)+len(o.spec.items))
	for _, k := range keys {
		g := o.groups[k]
		vals = append(vals[:0], g.keys...)
		for i, it := range o.spec.items {
			sum := g.sums[i].value()
			switch it.fn {
			case "COUNT":
				vals = append(vals, float64(g.count))
			case "SUM":
				vals = append(vals, sum)
			case "AVG":
				vals = append(vals, sum/float64(g.count))
			case "MIN":
				vals = append(vals, g.mins[i])
			case "MAX":
				vals = append(vals, g.maxs[i])
			}
		}
		d.addVals(vals)
	}
	return d
}
