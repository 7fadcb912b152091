package extractor

import (
	"fmt"
	"math/rand"
	"testing"

	"datavirt/internal/afc"
	"datavirt/internal/query"
	"datavirt/internal/schema"
	"datavirt/internal/sparse"
)

// randomGrid builds a grid sidecar over X, Y, Z in [0, cells) with the
// given cell count per dimension and each cell occupied with
// probability fill.
func randomGrid(rng *rand.Rand, cells int, fill float64) *sparse.Sidecar {
	g := &sparse.Grid{
		Attrs: []string{"X", "Y", "Z"},
		Min:   []float64{0, 0, 0},
		Max:   []float64{float64(cells), float64(cells), float64(cells)},
		Cells: []int{cells, cells, cells},
		Bits:  make([]uint64, (cells*cells*cells+63)/64),
	}
	for i := 0; i < cells*cells*cells; i++ {
		if rng.Float64() < fill {
			g.Bits[i>>6] |= 1 << uint(i&63)
		}
	}
	return &sparse.Sidecar{BlockBytes: 64, Grid: g}
}

// gridAFC is an AFC whose segments store the named attributes of each
// file: one segment per file, attributes 8 bytes apart.
func gridAFC(stores map[string][]string) afc.AFC {
	a := afc.AFC{NumRows: 64, Node: "n"}
	for _, file := range []string{"f", "g", "h"} {
		attrs := stores[file]
		if len(attrs) == 0 {
			continue
		}
		seg := afc.Segment{Node: "n", File: file, RowStride: int64(8 * len(attrs)), RowBytes: int64(8 * len(attrs))}
		for i, at := range attrs {
			seg.Attrs = append(seg.Attrs, afc.SegAttr{Name: at, Kind: schema.Double, Off: int64(8 * i)})
		}
		a.Segments = append(a.Segments, seg)
	}
	return a
}

// TestGridVerdictMemo checks that memoized grid verdicts agree with
// fresh ones across AFCs that store different attribute subsets of the
// same files, whose sidecars carry different grids over the same
// attribute names.
func TestGridVerdictMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	subsets := [][]string{{"X"}, {"Y"}, {"Z"}, {"X", "Y"}, {"X", "Z"}, {"Y", "Z"}, {"X", "Y", "Z"}}
	var outcomes [2]int
	for trial := 0; trial < 200; trial++ {
		sidecars := map[string]*sparse.Sidecar{"f": randomGrid(rng, 4, 0.2), "g": randomGrid(rng, 4, 0.3)}
		ranges := query.Ranges{}
		for _, attr := range []string{"X", "Y", "Z"} {
			if rng.Intn(4) > 0 {
				lo := float64(rng.Intn(4))
				ranges[attr] = query.NewSet(query.Interval{Lo: lo, Hi: lo + rng.Float64()})
			}
		}
		opt := Options{Ranges: ranges, Sparse: func(node, file string) *sparse.Sidecar { return sidecars[file] }}
		memo := &blockBuf{}
		for i := 0; i < 40; i++ {
			// File h has no sidecar; the attributes f and g do not store
			// come from it.
			stores := map[string][]string{
				"f": subsets[rng.Intn(len(subsets))],
				"g": subsets[rng.Intn(len(subsets))],
				"h": {"W"},
			}
			a := gridAFC(stores)
			var stats Stats
			fresh := &blockBuf{}
			if fresh.setupPrune(&a, opt, &stats) != memo.setupPrune(&a, opt, &stats) {
				t.Fatalf("trial %d: setupPrune disagrees", trial)
			}
			want := gridMayMatch(&a, ranges, fresh)
			got := gridMayMatch(&a, ranges, memo)
			if got != want {
				t.Fatalf("trial %d AFC %d (stores %v, ranges %v): memoized verdict %v, fresh %v",
					trial, i, stores, ranges, got, want)
			}
			if want {
				outcomes[1]++
			} else {
				outcomes[0]++
			}
		}
		if len(memo.grid) > 2*len(subsets) {
			t.Fatalf("trial %d: %d memo entries for 2 sidecars", trial, len(memo.grid))
		}
	}
	if outcomes[0] == 0 || outcomes[1] == 0 {
		t.Fatalf("verdicts never varied (pruned %d, kept %d)", outcomes[0], outcomes[1])
	}
}

// gridSink keeps the benchmarked verdict live.
var gridSink bool

// BenchmarkGridMayMatch measures the whole-AFC grid check over a
// 16×16×16 grid with all three dimensions constrained: "memo" is the
// steady state within a run (the verdict is reused), "fresh" evaluates
// the grid on every call.
func BenchmarkGridMayMatch(b *testing.B) {
	sc := randomGrid(rand.New(rand.NewSource(1)), 16, 0.3)
	ranges := query.Ranges{
		"X": query.NewSet(query.Interval{Lo: 3, Hi: 9}),
		"Y": query.NewSet(query.Interval{Lo: 0, Hi: 15}),
		"Z": query.NewSet(query.Interval{Lo: 14.5, Hi: 20}),
	}
	opt := Options{Ranges: ranges, Sparse: func(node, file string) *sparse.Sidecar { return sc }}
	a := gridAFC(map[string][]string{"f": {"X", "Y", "Z"}})
	for _, memo := range []bool{true, false} {
		b.Run(fmt.Sprintf("memo=%v", memo), func(b *testing.B) {
			bb := &blockBuf{}
			var stats Stats
			bb.setupPrune(&a, opt, &stats)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !memo {
					bb.grid = bb.grid[:0]
				}
				gridSink = gridMayMatch(&a, ranges, bb)
			}
		})
	}
}
