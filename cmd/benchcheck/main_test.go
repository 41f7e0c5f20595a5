package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsys/internal/hypo"
	"graphsys/internal/serve"
)

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// kernelsFixture is a healthy BENCH_kernels.json.
func kernelsFixture() *hypo.KernelsReport {
	return &hypo.KernelsReport{
		GeneratedBy: "cmd/benchkernels", GOMAXPROCS: 1,
		Kernels: []hypo.Kernel{
			{Name: "matmul_256", SerialAllocsOp: 1, ParallelAllocsOp: 1},
			{Name: "train_epoch_gcn", SerialAllocsOp: 19, ParallelAllocsOp: 19},
		},
	}
}

// engineFixture is a healthy BENCH_engine.json: dense allocation-free and
// dominating map (≥1.3× at 8 workers) at every worker count.
func engineFixture() *hypo.EngineReport {
	rep := &hypo.EngineReport{
		GeneratedBy: "cmd/benchengine", GOMAXPROCS: 1,
		Check: map[string]any{"identical": true},
	}
	for _, w := range []int{1, 2, 8} {
		base := 10000.0 / float64(w)
		for _, algo := range []string{"pagerank", "cc"} {
			rep.Rows = append(rep.Rows,
				hypo.EngineRow{Algo: algo, Path: "dense", Workers: w, Rounds: 40, RoundsPerSec: base * 1.6, AllocsPerRound: 0},
				hypo.EngineRow{Algo: algo, Path: "map", Workers: w, Rounds: 40, RoundsPerSec: base, AllocsPerRound: 0},
			)
		}
	}
	return rep
}

// servingFixture materialises the real default sweep (it is deterministic and
// fast), since the serving gates re-simulate from the embedded params.
func servingFixture(t *testing.T) *hypo.ServingReport {
	t.Helper()
	params := hypo.DefaultServingParams()
	rep := &hypo.ServingReport{GeneratedBy: "cmd/benchserving", Params: params}
	for _, pol := range serve.Policies {
		for _, lambda := range params.Lambdas {
			pt, err := hypo.MeasureServingPoint(params, pol, lambda, params.Seed)
			if err != nil {
				t.Fatalf("measure %s@%.2f: %v", pol, lambda, err)
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep
}

// storageFixture is a healthy BENCH_storage.json: good compression, a rising
// hit-ratio curve, largest-budget cells well over the throughput floor, and a
// completed 100M+-edge capacity run under 15% of the raw CSR.
func storageFixture() *hypo.StorageReport {
	return &hypo.StorageReport{
		GeneratedBy: "cmd/benchstorage", GOMAXPROCS: 1,
		Scale: 16, EdgeFactor: 8, Vertices: 1 << 16, Arcs: 1 << 20,
		FileBytes: 1 << 20, RawCSRBytes: 5 << 20, CompressionRatio: 2.5,
		Rows: []hypo.StorageRow{
			{Workload: "pagerank", Evict: "mru", BudgetFrac: 0.05, BudgetBytes: 5 << 15, HitRatio: 0.98, BytesRead: 8 << 20, NsPerOp: 5e6, RelThroughput: 0.5},
			{Workload: "pagerank", Evict: "mru", BudgetFrac: 1.00, BudgetBytes: 5 << 20, HitRatio: 1.0, BytesRead: 1 << 20, NsPerOp: 3e6, RelThroughput: 0.9},
			{Workload: "gnn-epoch", Evict: "lru", BudgetFrac: 0.05, BudgetBytes: 5 << 15, HitRatio: 0.05, BytesRead: 300 << 20, NsPerOp: 2e9, RelThroughput: 0.2},
			{Workload: "gnn-epoch", Evict: "lru", BudgetFrac: 1.00, BudgetBytes: 5 << 20, HitRatio: 0.99, BytesRead: 1 << 20, NsPerOp: 6e8, RelThroughput: 0.75},
		},
		Capacity: &hypo.StorageCapacity{
			Scale: 22, EdgeFactor: 30, Vertices: 1 << 22, Edges: 110e6, Arcs: 220e6,
			FileBytes: 400 << 20, RawCSRBytes: 900 << 20, BudgetBytes: 135 << 20, BudgetFrac: 0.15,
			Supersteps: 3, GNNBatches: 50, HitRatio: 0.9, BytesRead: 2 << 30, Completed: true,
		},
		Check: map[string]any{"identical": true},
	}
}

// writeHealthy writes a healthy fresh/baseline pair for every report into
// dir; tests then overwrite one file to inject a regression.
func writeHealthy(t *testing.T, dir string) {
	t.Helper()
	serving := servingFixture(t)
	for name, rep := range map[string]any{
		"k":  kernelsFixture(),
		"s":  serving,
		"e":  engineFixture(),
		"st": storageFixture(),
	} {
		writeJSON(t, filepath.Join(dir, name+".smoke.json"), rep)
		writeJSON(t, filepath.Join(dir, name+".json"), rep)
	}
}

func runWith(t *testing.T, dir string) (int, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run([]string{
		"-kernels", filepath.Join(dir, "k.smoke.json"),
		"-kernels-baseline", filepath.Join(dir, "k.json"),
		"-serving", filepath.Join(dir, "s.smoke.json"),
		"-serving-baseline", filepath.Join(dir, "s.json"),
		"-engine", filepath.Join(dir, "e.smoke.json"),
		"-engine-baseline", filepath.Join(dir, "e.json"),
		"-storage", filepath.Join(dir, "st.smoke.json"),
		"-storage-baseline", filepath.Join(dir, "st.json"),
		"-artifacts", filepath.Join(dir, "hypo_runs", "bench-check"),
	}, &out, &errb)
	return code, out.String() + errb.String()
}

func TestExitZeroOnHealthyRun(t *testing.T) {
	dir := t.TempDir()
	writeHealthy(t, dir)
	code, out := runWith(t, dir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "hypo_runs", "bench-check", "results.csv")); err != nil {
		t.Fatalf("artifact missing: %v", err)
	}
}

// TestExitNonZeroOnInjectedRegression is the required negative test at the
// binary level: a scratch baseline with allocs/op >20% below the fresh run's
// must drive a non-zero exit.
func TestExitNonZeroOnInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	writeHealthy(t, dir)
	scratch := kernelsFixture()
	scratch.Kernels[1].SerialAllocsOp = 10 // fresh has 19: a 90% regression
	scratch.Kernels[1].ParallelAllocsOp = 10
	writeJSON(t, filepath.Join(dir, "k.json"), scratch)
	code, out := runWith(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on injected regression\n%s", code, out)
	}
	if !strings.Contains(out, "kernels-allocs") || !strings.Contains(out, "FAIL") {
		t.Fatalf("output does not name the failing gate:\n%s", out)
	}
}

// TestExitNonZeroOnServingLatencyRegression injects a fake p99 latency
// regression into the fresh serving report: the exact-equality serving gates
// must drive a non-zero exit and name the failing gate.
func TestExitNonZeroOnServingLatencyRegression(t *testing.T) {
	dir := t.TempDir()
	writeHealthy(t, dir)
	bad := servingFixture(t)
	bad.Points[5].P99 *= 3 // a fake scheduler latency regression
	writeJSON(t, filepath.Join(dir, "s.smoke.json"), bad)
	code, out := runWith(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on injected serving regression\n%s", code, out)
	}
	if !strings.Contains(out, "serving-baseline-exact") || !strings.Contains(out, "FAIL") {
		t.Fatalf("output does not name the failing serving gate:\n%s", out)
	}
}

// TestExitNonZeroOnEngineAllocsRegression is the engine gate's negative test: a fresh
// engine report whose dense steady-state supersteps suddenly allocate must
// drive exit 1, and the output must name the engine-allocs gate.
func TestExitNonZeroOnEngineAllocsRegression(t *testing.T) {
	dir := t.TempDir()
	writeHealthy(t, dir)
	bad := engineFixture()
	for i := range bad.Rows {
		if bad.Rows[i].Path == "dense" && bad.Rows[i].Algo == "pagerank" {
			bad.Rows[i].AllocsPerRound = 37 // fake garbage creeping back into the hot path
		}
	}
	writeJSON(t, filepath.Join(dir, "e.smoke.json"), bad)
	code, out := runWith(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on injected engine allocs regression\n%s", code, out)
	}
	if !strings.Contains(out, "engine-allocs") || !strings.Contains(out, "FAIL") {
		t.Fatalf("output does not name the failing engine gate:\n%s", out)
	}
}

// TestExitNonZeroOnDenseDominanceRegression: a fresh report where the dense
// path has lost its edge over the map path at 8 workers must fail the
// headline gate.
func TestExitNonZeroOnDenseDominanceRegression(t *testing.T) {
	dir := t.TempDir()
	writeHealthy(t, dir)
	bad := engineFixture()
	for i := range bad.Rows {
		if bad.Rows[i].Path == "dense" && bad.Rows[i].Algo == "pagerank" && bad.Rows[i].Workers == 8 {
			r, _ := bad.Row("pagerank", "map", 8)
			bad.Rows[i].RoundsPerSec = r.RoundsPerSec * 1.1 // under the 1.3x headline floor
		}
	}
	writeJSON(t, filepath.Join(dir, "e.smoke.json"), bad)
	code, out := runWith(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on injected dominance regression\n%s", code, out)
	}
	if !strings.Contains(out, "dense-dominates-map-at-8") || !strings.Contains(out, "FAIL") {
		t.Fatalf("output does not name the failing dominance gate:\n%s", out)
	}
}

// TestExitNonZeroOnStorageHitRatioRegression is the storage gate's negative
// test: a fresh sweep whose cache hit ratio collapses below the committed
// baseline (minus the band) — an eviction-policy or cache-accounting bug —
// must drive exit 1 and name the storage-hit-ratio gate.
func TestExitNonZeroOnStorageHitRatioRegression(t *testing.T) {
	dir := t.TempDir()
	writeHealthy(t, dir)
	bad := storageFixture()
	for i := range bad.Rows {
		if bad.Rows[i].Workload == "gnn-epoch" && bad.Rows[i].BudgetFrac == 1.00 {
			bad.Rows[i].HitRatio = 0.4 // baseline has 0.99: far outside the band
		}
	}
	writeJSON(t, filepath.Join(dir, "st.smoke.json"), bad)
	code, out := runWith(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on injected storage hit-ratio regression\n%s", code, out)
	}
	if !strings.Contains(out, "storage-hit-ratio") || !strings.Contains(out, "FAIL") {
		t.Fatalf("output does not name the failing storage gate:\n%s", out)
	}
}

func TestExitTwoOnMissingInput(t *testing.T) {
	dir := t.TempDir()
	var out, errb strings.Builder
	code := run([]string{"-kernels", filepath.Join(dir, "nope.json")}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on unreadable input", code)
	}
	if !strings.Contains(errb.String(), "bench-smoke") {
		t.Fatalf("stderr should point at make bench-smoke:\n%s", errb.String())
	}
}
