package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// exactCounters are the per-layer metrics that must repeat exactly
// for the same seed: they come from the sequential counters pass,
// which starts from the same cache state on every run.
var exactCounters = []string{
	"afc.chunks_planned_per_query", "afc.chunks_read_per_query",
	"sparse.blocks_skipped_per_query", "sparse.hit_ratio", "sparse.sidecar_bytes",
	"cache.hit_ratio", "cache.fs_bytes_per_query", "cache.evictions_per_query",
	"core.plancache_hit_ratio",
	"extractor.bytes_read_per_query", "extractor.rows_scanned_per_query",
	"extractor.vector_batches_per_query",
	"query.selectivity", "query.partial_groups_per_query",
	"cluster.sent_bytes_per_query",
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workdir, workload string, seed int64, trace, corrupt bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0.3, trace: trace, tiny: true,
		workdir: workdir, corrupt: corrupt}
	r, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return r
}

// sameNames checks that a result prints exactly the listed metrics,
// with the listed units.
func sameNames(t *testing.T, r *result, want []struct{ Name, Unit string }) {
	t.Helper()
	var got []string
	for name := range r.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		if u := r.Metrics[m.Name].Unit; u != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, u, m.Unit)
		}
	}
	sort.Strings(names)
	if len(got) != len(names) {
		t.Fatalf("metrics %v, BENCHMARK.json lists %v", got, names)
	}
	for i := range got {
		if got[i] != names[i] {
			t.Fatalf("metrics %v, BENCHMARK.json lists %v", got, names)
		}
	}
}

// TestWorkloadsAtTinyScale runs every workload of BENCHMARK.json in
// both modes, checks the printed metric names against the file and
// that the deterministic counters repeat for the same seed.
func TestWorkloadsAtTinyScale(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e := tinyRun(t, dir, w.Name, 1, false, false)
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
				t.Fatalf("end-to-end run: correct=%v failed=%d attempted=%d", e2e.Correct, e2e.Failed, e2e.Attempted)
			}
			sameNames(t, e2e, spec.EndToEnd)
			a := tinyRun(t, dir, w.Name, 7, true, false)
			b := tinyRun(t, dir, w.Name, 7, true, false)
			if !a.Correct || !b.Correct {
				t.Fatalf("traced runs incorrect: %d and %d failed", a.Failed, b.Failed)
			}
			sameNames(t, a, spec.PerLayer)
			for _, name := range exactCounters {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs across same-seed runs: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestSeedChangesStream checks that the seed, and only the seed,
// decides the query stream.
func TestSeedChangesStream(t *testing.T) {
	tb := &tables{ipars: newIparsTable(iparsSpec(true, 1, 0)), titan: newTitanTable(titanSpec(true))}
	for _, w := range workloads {
		a, b, c := buildPool(w, 1, true, tb), buildPool(w, 1, true, tb), buildPool(w, 2, true, tb)
		same, differ := true, false
		for i := range a {
			same = same && a[i].sql == b[i].sql
			differ = differ || a[i].sql != c[i].sql
		}
		if !same || !differ {
			t.Errorf("%s: same seed repeats=%v, other seed differs=%v", w.name, same, differ)
		}
	}
}

// TestOracleCatchesCorruptDigest flips one expected digest and checks
// that the run reports the mismatch.
func TestOracleCatchesCorruptDigest(t *testing.T) {
	r := tinyRun(t, t.TempDir(), "local-agg", 3, false, true)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted digest not caught: correct=%v failed=%d", r.Correct, r.Failed)
	}
}
