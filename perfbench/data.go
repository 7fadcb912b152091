package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"datavirt/internal/cache"
	"datavirt/internal/gen"
)

// Datasets are generated once per spec and build under the work
// directory and reused by later runs: they depend on the spec and on
// the code that wrote them (the generators and the chunk-index
// writer), never on the query seed, and generating them is benchmark
// input, not measured work. A marker written last tells a complete
// dataset from one a killed run left behind.
const readyMarker = ".ready"

// iparsSpec returns the IPARS study behind the local and cluster
// workloads: 4 REL × 32 TIME × 4096 grid cells, 5 variables.
func iparsSpec(tiny bool, partitions, replicas int) gen.IparsSpec {
	s := gen.IparsSpec{Realizations: 4, TimeSteps: 32, GridPoints: 4096, Partitions: partitions,
		Attrs: 5, Replicas: replicas, Seed: 11}
	if tiny {
		s.Realizations, s.TimeSteps, s.GridPoints = 2, 8, 512
	}
	return s
}

// titanSpec returns the Titan dataset: 3,000,000 readings of 32 bytes
// (≈1.5× the default block cache) in 16×16×8 space-time tiles.
func titanSpec(tiny bool) gen.TitanSpec {
	s := gen.TitanSpec{Points: 3_000_000, XMax: 20000, YMax: 20000, ZMax: 200,
		TilesX: 16, TilesY: 16, TilesZ: 8, Nodes: 1, Seed: 23}
	if tiny {
		s.Points = 60_000
	}
	return s
}

// datasetInfo records what a run queried, for the environment line.
type datasetInfo struct {
	desc        string // descriptor path
	root        string // data root
	rows        int64
	bytes       int64 // raw data bytes (no sidecars, no chunk index)
	cacheBudget int64
}

// ensureDataset generates a dataset into workdir/data/<build>/<key>
// unless a complete copy is already there. <build> fingerprints the
// running binary, so a change to the code that writes the files
// regenerates them; datasets of other builds are removed.
func ensureDataset(workdir, key string, write func(root string) (string, error)) (desc, root string, err error) {
	build, err := buildFingerprint()
	if err != nil {
		return "", "", err
	}
	data, err := filepath.Abs(filepath.Join(workdir, "data"))
	if err != nil {
		return "", "", err
	}
	if old, err := os.ReadDir(data); err == nil {
		for _, e := range old {
			if e.Name() != build {
				if err := os.RemoveAll(filepath.Join(data, e.Name())); err != nil {
					return "", "", err
				}
			}
		}
	}
	root = filepath.Join(data, build, key)
	descFile := filepath.Join(root, "desc.path")
	if b, rerr := os.ReadFile(descFile); rerr == nil {
		if _, serr := os.Stat(filepath.Join(root, readyMarker)); serr == nil {
			return string(b), root, nil
		}
	}
	if err := os.RemoveAll(root); err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", "", err
	}
	desc, err = write(root)
	if err != nil {
		return "", "", err
	}
	if err := os.WriteFile(descFile, []byte(desc), 0o644); err != nil {
		return "", "", err
	}
	return desc, root, os.WriteFile(filepath.Join(root, readyMarker), nil, 0o644)
}

// buildFingerprint returns a short hash of the running executable.
func buildFingerprint() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func specKey(prefix string, spec any) string {
	r := strings.NewReplacer(" ", "_", ":", "", "{", "", "}", "")
	return prefix + "-" + r.Replace(fmt.Sprintf("%+v", spec))
}

// diskBytes are the sizes of the files under a data root that the
// engine reads.
type diskBytes struct {
	stored   int64 // data + chunk indexes + sparse sidecars
	raw      int64 // data alone
	sidecars int64 // sparse sidecars alone
}

// storedBytes sums the files under root that the engine reads.
func storedBytes(root string) (diskBytes, error) {
	var b diskBytes
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		name := fi.Name()
		switch {
		case name == readyMarker || name == "desc.path" || strings.HasSuffix(name, ".dvd"):
			return nil
		case strings.HasSuffix(name, ".dvsx"):
			b.sidecars += fi.Size()
			b.stored += fi.Size()
		case strings.HasSuffix(name, ".idx"):
			b.stored += fi.Size()
		default:
			b.stored += fi.Size()
			b.raw += fi.Size()
		}
		return nil
	})
	return b, err
}

const defaultCacheBudget = cache.DefaultMaxBytes

// iparsTable is the oracle's copy of an IPARS study: every stored value
// computed from gen.IparsSpec.Value and rounded to the file's float32,
// indexed like layout I: ((rel*T)+(time-1))*G + grid.
type iparsTable struct {
	spec    gen.IparsSpec
	attrs   map[string][]float32 // variable name → values
	x, y, z []float32            // per grid cell
}

func newIparsTable(s gen.IparsSpec) *iparsTable {
	t := &iparsTable{spec: s, attrs: map[string][]float32{}}
	n := s.IparsTotalRows()
	names := gen.IparsAttrNames(s.Attrs)
	for ai, name := range names {
		col := make([]float32, n)
		i := 0
		for rel := int64(0); rel < int64(s.Realizations); rel++ {
			for tm := int64(1); tm <= int64(s.TimeSteps); tm++ {
				for g := int64(0); g < int64(s.GridPoints); g++ {
					col[i] = float32(s.Value(ai, rel, tm, g))
					i++
				}
			}
		}
		t.attrs[name] = col
	}
	G := s.GridPoints
	t.x, t.y, t.z = make([]float32, G), make([]float32, G), make([]float32, G)
	for g := 0; g < G; g++ {
		x, y, z := s.Coord(int64(g))
		t.x[g], t.y[g], t.z[g] = float32(x), float32(y), float32(z)
	}
	return t
}

// iparsRow addresses one virtual row of an iparsTable.
type iparsRow struct {
	t              *iparsTable
	rel, time, idx int
	grid           int
}

// get returns the row's value of column name, as the engine emits it.
func (r *iparsRow) get(name string) float64 {
	switch name {
	case "REL":
		return float64(r.rel)
	case "TIME":
		return float64(r.time)
	case "X":
		return float64(r.t.x[r.grid])
	case "Y":
		return float64(r.t.y[r.grid])
	case "Z":
		return float64(r.t.z[r.grid])
	}
	return float64(r.t.attrs[name][r.idx])
}

// scan visits every row with REL and TIME inside the inclusive bounds.
func (t *iparsTable) scan(relLo, relHi, tLo, tHi int, visit func(r *iparsRow)) {
	s := t.spec
	relLo, relHi = max(relLo, 0), min(relHi, s.Realizations-1)
	tLo, tHi = max(tLo, 1), min(tHi, s.TimeSteps)
	r := &iparsRow{t: t}
	for rel := relLo; rel <= relHi; rel++ {
		for tm := tLo; tm <= tHi; tm++ {
			base := (rel*s.TimeSteps + tm - 1) * s.GridPoints
			for g := 0; g < s.GridPoints; g++ {
				r.rel, r.time, r.grid, r.idx = rel, tm, g, base+g
				visit(r)
			}
		}
	}
}

// titanTable is the oracle's copy of a Titan dataset, computed from
// gen.TitanSpec.Point. Z is not stored: it is monotone in the reading
// index, so a Z window is a contiguous index range.
type titanTable struct {
	spec gen.TitanSpec
	x, y []int32
	s    [3][]float32 // S1, S2, S3
}

func newTitanTable(s gen.TitanSpec) *titanTable {
	n := s.Points
	t := &titanTable{spec: s, x: make([]int32, n), y: make([]int32, n)}
	for k := range t.s {
		t.s[k] = make([]float32, n)
	}
	for j := 0; j < n; j++ {
		x, y, _, sens := s.Point(int64(j))
		t.x[j], t.y[j] = x, y
		for k := range t.s {
			t.s[k][j] = sens[k]
		}
	}
	return t
}

// zOf returns reading j's time coordinate, as gen.TitanSpec.Point does.
func (t *titanTable) zOf(j int) int64 {
	return int64(j) * int64(t.spec.ZMax) / int64(t.spec.Points)
}

// zRange returns the reading indexes [lo, hi) whose Z lies in [z0, z1].
func (t *titanTable) zRange(z0, z1 int) (lo, hi int) {
	n := t.spec.Points
	lo = searchInts(n, func(j int) bool { return t.zOf(j) >= int64(z0) })
	hi = searchInts(n, func(j int) bool { return t.zOf(j) > int64(z1) })
	return lo, hi
}

func searchInts(n int, f func(int) bool) int {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !f(m) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
