package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// stmt is one distinct statement of a workload's pool, with the
// digest the oracle computed for it.
type stmt struct {
	sql    string
	text   string // the parser's rendering: the key the engine's tracers report
	class  string
	agg    bool
	oracle func() digest
	want   digest
}

// workload is one closed-loop query stream over one deployment.
type workload struct {
	name    string
	clients int
	cluster bool
	titan   bool
	pool    int // distinct queries at full scale
	// gen draws a pool member of the given class index from rng.
	gen func(rng *rand.Rand, tables *tables, class int) *stmt
	// classes is the number of query classes, drawn round-robin so
	// every pool holds the same mix.
	classes int
}

func (w *workload) poolSize(tiny bool) int {
	if tiny {
		return 4 * w.classes
	}
	return w.pool
}

// tables holds the oracle's copies of the datasets.
type tables struct {
	ipars *iparsTable
	titan *titanTable
}

var workloads = []*workload{
	{name: "local-scan", clients: 1, pool: 60, classes: 5, gen: genLocalScan},
	{name: "local-agg", clients: 1, pool: 64, classes: 4, gen: genLocalAgg},
	{name: "titan-overflow", clients: 1, pool: 512, classes: 2, titan: true, gen: genTitan},
	{name: "cluster-mixed", clients: 2, pool: 512, classes: 3, cluster: true, gen: genClusterMixed},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildPool draws the workload's distinct queries from the seed. Class
// k of query i is i mod classes, so every seed gets the same mix and
// only the literals change.
func buildPool(w *workload, seed int64, tiny bool, t *tables) []*stmt {
	rng := rand.New(rand.NewSource(seed))
	n := w.poolSize(tiny)
	seen := map[string]bool{}
	pool := make([]*stmt, 0, n)
	for len(pool) < n {
		q := w.gen(rng, t, len(pool)%w.classes)
		if seen[q.sql] {
			continue
		}
		seen[q.sql] = true
		pool = append(pool, q)
	}
	return pool
}

// lit renders a literal so that the engine parses exactly the float64
// the oracle compares with.
func lit(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// uniform draws a value in [lo, hi) rounded to four decimals.
func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+rng.Float64()*(hi-lo))*1e4) / 1e4
}

// timeWindow draws an inclusive TIME window of the given width
// (clamped to the dataset).
func timeWindow(rng *rand.Rand, T, width int) (lo, hi int) {
	width = min(max(width, 1), T)
	lo = 1 + rng.Intn(T-width+1)
	return lo, lo + width - 1
}

// scaled returns frac of n, at least 1.
func scaled(n int, frac float64) int { return max(1, int(float64(n)*frac)) }

var iparsStar = []string{"REL", "TIME", "X", "Y", "Z", "SOIL", "SGAS", "SWAT", "POIL", "PGAS"}

// iparsRows is the oracle of a row query over IPARS.
func iparsRows(t *iparsTable, cols []string, tLo, tHi, relLo, relHi int, keep func(r *iparsRow) bool) func() digest {
	return func() digest {
		var d digest
		vals := make([]float64, len(cols))
		t.scan(relLo, relHi, tLo, tHi, func(r *iparsRow) {
			if keep != nil && !keep(r) {
				return
			}
			for i, c := range cols {
				vals[i] = r.get(c)
			}
			d.addVals(vals)
		})
		return d
	}
}

// iparsAgg is the oracle of an aggregate query over IPARS.
func iparsAgg(t *iparsTable, spec aggSpec, tLo, tHi int, keep func(r *iparsRow) bool) func() digest {
	return func() digest {
		o := newAggOracle(spec)
		t.scan(0, t.spec.Realizations-1, tLo, tHi, func(r *iparsRow) {
			if keep == nil || keep(r) {
				o.observe(r.get)
			}
		})
		return o.digest()
	}
}

func soilAbove(c float64) func(r *iparsRow) bool {
	return func(r *iparsRow) bool { return r.get("SOIL") > c }
}

// genLocalScan draws row-returning queries in the shapes of the
// paper's Fig. 8 Q2–Q4 plus the X, SOIL projection. Each class returns
// about 16k rows, so classes cost about the same and the latency
// median sits inside one class.
func genLocalScan(rng *rand.Rand, tb *tables, class int) *stmt {
	t := tb.ipars
	T, R := t.spec.TimeSteps, t.spec.Realizations
	switch class {
	case 0: // Q2: indexed-attribute subsetting
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/32))
		return &stmt{class: "q2-window",
			sql:    fmt.Sprintf("SELECT * FROM IparsData WHERE TIME >= %d AND TIME <= %d", lo, hi),
			oracle: iparsRows(t, iparsStar, lo, hi, 0, R-1, nil)}
	case 1: // Q3: subsetting plus a SOIL filter
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/16))
		c := uniform(rng, 0.45, 0.55)
		return &stmt{class: "q3-soil",
			sql:    fmt.Sprintf("SELECT * FROM IparsData WHERE TIME >= %d AND TIME <= %d AND SOIL > %s", lo, hi, lit(c)),
			oracle: iparsRows(t, iparsStar, lo, hi, 0, R-1, soilAbove(c))}
	case 2: // Q4: a user-defined filter (per-row evaluation)
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/16))
		r := uniform(rng, 13, 15)
		cols := []string{"X", "Y", "Z", "SOIL"}
		return &stmt{class: "q4-udf",
			sql: fmt.Sprintf("SELECT X, Y, Z, SOIL FROM IparsData WHERE TIME >= %d AND TIME <= %d AND DISTANCE(X, Y, Z) < %s", lo, hi, lit(r)),
			oracle: iparsRows(t, cols, lo, hi, 0, R-1, func(row *iparsRow) bool {
				x, y, z := row.get("X"), row.get("Y"), row.get("Z")
				return math.Sqrt(x*x+y*y+z*z) < r
			})}
	case 3: // the cursor-bound X, SOIL projection over one realization
		rel := rng.Intn(R)
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/4))
		c := uniform(rng, 0.45, 0.55)
		return &stmt{class: "x-soil",
			sql:    fmt.Sprintf("SELECT X, SOIL FROM IparsData WHERE REL = %d AND TIME >= %d AND TIME <= %d AND SOIL > %s", rel, lo, hi, lit(c)),
			oracle: iparsRows(t, []string{"X", "SOIL"}, lo, hi, rel, rel, soilAbove(c))}
	default: // a Z bound the sparse sidecars prune
		lo, hi := timeWindow(rng, T, scaled(T, 3.0/32))
		k := 4 + rng.Intn(2)
		cols := []string{"X", "Y", "Z", "SOIL", "SGAS"}
		return &stmt{class: "z-pruned",
			sql: fmt.Sprintf("SELECT X, Y, Z, SOIL, SGAS FROM IparsData WHERE TIME >= %d AND TIME <= %d AND Z <= %d", lo, hi, k),
			oracle: iparsRows(t, cols, lo, hi, 0, R-1, func(row *iparsRow) bool {
				return row.get("Z") <= float64(k)
			})}
	}
}

// genLocalAgg draws aggregate queries: GROUP BY REL, TIME and both,
// and a selective full-table COUNT.
func genLocalAgg(rng *rand.Rand, tb *tables, class int) *stmt {
	t := tb.ipars
	T := t.spec.TimeSteps
	agg := func(cls string, spec aggSpec, lo, hi int, where string, keep func(r *iparsRow) bool) *stmt {
		return &stmt{class: cls, agg: true,
			sql: fmt.Sprintf("SELECT %s FROM IparsData WHERE TIME >= %d AND TIME <= %d%s%s",
				spec.selectList(), lo, hi, where, spec.groupBy()),
			oracle: iparsAgg(t, spec, lo, hi, keep)}
	}
	switch class {
	case 0:
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/8))
		return agg("by-rel", aggSpec{keys: []string{"REL"},
			items: []aggItem{{"COUNT", ""}, {"MIN", "SOIL"}, {"MAX", "SGAS"}}}, lo, hi, "", nil)
	case 1:
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/8))
		c := uniform(rng, 0.2, 0.4)
		return agg("by-time", aggSpec{keys: []string{"TIME"},
			items: []aggItem{{"COUNT", ""}, {"SUM", "SOIL"}, {"AVG", "SWAT"}}}, lo, hi,
			" AND SOIL > "+lit(c), soilAbove(c))
	case 2:
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/8))
		return agg("by-rel-time", aggSpec{keys: []string{"REL", "TIME"},
			items: []aggItem{{"COUNT", ""}, {"AVG", "POIL"}}}, lo, hi, "", nil)
	default:
		c := uniform(rng, 0.99, 0.999)
		spec := aggSpec{items: []aggItem{{"COUNT", ""}}}
		return &stmt{class: "count-selective", agg: true,
			sql:    "SELECT COUNT(*) FROM IparsData WHERE SOIL > " + lit(c),
			oracle: iparsAgg(t, spec, 1, T, soilAbove(c))}
	}
}

// genTitan draws Fig. 7 Q2-shaped space-time windows at random
// positions, with a selective S1 filter or COUNT/MIN/MAX, so few rows
// come back and the chunk index and block cache do the work.
func genTitan(rng *rand.Rand, tb *tables, class int) *stmt {
	t := tb.titan
	s := t.spec
	// Windows are aligned to the 16×16×8 tiles (4×4×2 of them), so
	// every query plans the same number of chunks wherever it lands.
	tx, ty, tz := s.XMax/s.TilesX, s.YMax/s.TilesY, s.ZMax/s.TilesZ
	x0 := tx * rng.Intn(s.TilesX-3)
	y0 := ty * rng.Intn(s.TilesY-3)
	z0 := tz * rng.Intn(s.TilesZ-1)
	x1, y1, z1 := x0+4*tx-1, y0+4*ty-1, z0+2*tz-1
	if class == 1 {
		// Aggregation folds every row of the window: one time tile
		// keeps its cost near the filtered class's.
		z1 = z0 + tz - 1
	}
	where := fmt.Sprintf("X >= %d AND X <= %d AND Y >= %d AND Y <= %d AND Z >= %d AND Z <= %d",
		x0, x1, y0, y1, z0, z1)
	in := func(j int) bool {
		x, y := int(t.x[j]), int(t.y[j])
		return x >= x0 && x <= x1 && y >= y0 && y <= y1
	}
	jlo, jhi := t.zRange(z0, z1)
	if class == 0 {
		c := uniform(rng, 0.005, 0.02)
		return &stmt{class: "window-s1",
			sql: fmt.Sprintf("SELECT X, Y, Z, S1 FROM TitanData WHERE %s AND S1 < %s", where, lit(c)),
			oracle: func() digest {
				var d digest
				for j := jlo; j < jhi; j++ {
					if s1 := float64(t.s[0][j]); in(j) && s1 < c {
						d.addVals([]float64{float64(t.x[j]), float64(t.y[j]), float64(t.zOf(j)), s1})
					}
				}
				return d
			}}
	}
	spec := aggSpec{items: []aggItem{{"COUNT", ""}, {"MIN", "S2"}, {"MAX", "S3"}}}
	return &stmt{class: "window-agg", agg: true,
		sql: fmt.Sprintf("SELECT %s FROM TitanData WHERE %s", spec.selectList(), where),
		oracle: func() digest {
			o := newAggOracle(spec)
			for j := jlo; j < jhi; j++ {
				if in(j) {
					jj := j
					o.observe(func(col string) float64 {
						if col == "S2" {
							return float64(t.s[1][jj])
						}
						return float64(t.s[2][jj])
					})
				}
			}
			return o.digest()
		}}
}

// genClusterMixed draws the cluster mix: narrow TIME windows with a
// SOIL filter, pushed-down GROUP BY REL over random TIME ranges, and
// coordinate-bounded projections the sidecars prune. Literals are
// distinct, so per-query planning runs on every query.
func genClusterMixed(rng *rand.Rand, tb *tables, class int) *stmt {
	t := tb.ipars
	T, R := t.spec.TimeSteps, t.spec.Realizations
	switch class {
	case 0:
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/16))
		c := uniform(rng, 0.85, 0.95)
		return &stmt{class: "narrow-soil",
			sql:    fmt.Sprintf("SELECT X, Y, SOIL FROM IparsData WHERE TIME >= %d AND TIME <= %d AND SOIL > %s", lo, hi, lit(c)),
			oracle: iparsRows(t, []string{"X", "Y", "SOIL"}, lo, hi, 0, R-1, soilAbove(c))}
	case 1:
		lo, hi := timeWindow(rng, T, 1+rng.Intn(scaled(T, 1.0/4)))
		spec := aggSpec{keys: []string{"REL"}, items: []aggItem{{"COUNT", ""}, {"AVG", "SOIL"}}}
		return &stmt{class: "group-rel", agg: true,
			sql:    fmt.Sprintf("SELECT %s FROM IparsData WHERE TIME >= %d AND TIME <= %d%s", spec.selectList(), lo, hi, spec.groupBy()),
			oracle: iparsAgg(t, spec, lo, hi, nil)}
	default:
		lo, hi := timeWindow(rng, T, scaled(T, 1.0/16))
		zmax := int(t.z[len(t.z)-1])
		z0 := rng.Intn(max(zmax-1, 1))
		z1 := z0 + 2
		return &stmt{class: "z-projection",
			sql: fmt.Sprintf("SELECT X, Y, Z, SGAS FROM IparsData WHERE TIME >= %d AND TIME <= %d AND Z >= %d AND Z <= %d", lo, hi, z0, z1),
			oracle: iparsRows(t, []string{"X", "Y", "Z", "SGAS"}, lo, hi, 0, R-1, func(row *iparsRow) bool {
				z := row.get("Z")
				return z >= float64(z0) && z <= float64(z1)
			})}
	}
}
