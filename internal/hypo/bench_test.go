package hypo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// healthyKernels mirrors the committed BENCH_kernels.json shape.
func healthyKernels(smoke bool) *KernelsReport {
	return &KernelsReport{
		GeneratedBy: "cmd/benchkernels", GOMAXPROCS: 1, Smoke: smoke,
		Kernels: []Kernel{
			{Name: "matmul_256", SerialNsOp: 8e6, ParallelNsOp: 8e6, SerialAllocsOp: 1, ParallelAllocsOp: 1},
			{Name: "normadj_apply_rmat15", SerialNsOp: 2e7, ParallelNsOp: 2e7, SerialAllocsOp: 0, ParallelAllocsOp: 0},
			{Name: "train_epoch_gcn", SerialNsOp: 3e5, ParallelNsOp: 3e5, SerialAllocsOp: 19, ParallelAllocsOp: 19},
		},
	}
}

func TestBenchGatesPassOnHealthyRun(t *testing.T) {
	cfg := DefaultGateConfig()
	rep := Run("bench-check", KernelGates(healthyKernels(true), healthyKernels(false), cfg))
	if !rep.Pass() {
		var sbuf []byte
		sbuf, _ = json.MarshalIndent(rep, "", " ")
		t.Fatalf("healthy run must pass:\n%s", sbuf)
	}
}

// TestInjectedAllocRegressionFails is the gate's negative proof: a scratch
// baseline whose allocs/op are >20% below the fresh run's (i.e. the fresh
// run regressed by more than the band) must fail the gate.
func TestInjectedAllocRegressionFails(t *testing.T) {
	baseline := healthyKernels(false)
	for i := range baseline.Kernels {
		if baseline.Kernels[i].Name == "train_epoch_gcn" {
			// Scratch baseline claims 10 allocs/op; fresh measures 19 —
			// a 90% regression, far over the 20%+slack band.
			baseline.Kernels[i].SerialAllocsOp = 10
			baseline.Kernels[i].ParallelAllocsOp = 10
		}
	}
	rep := Run("bench-check", KernelGates(healthyKernels(true), baseline, DefaultGateConfig()))
	if rep.Pass() {
		t.Fatal("a >20% alloc regression vs the baseline must fail the gate")
	}
	if got := rep.Failed(); len(got) != 1 || got[0] != "kernels-allocs" {
		t.Fatalf("Failed() = %v, want [kernels-allocs]", got)
	}
}

func TestEpochAllocBound(t *testing.T) {
	fresh := healthyKernels(true)
	for i := range fresh.Kernels {
		if fresh.Kernels[i].Name == "train_epoch_gcn" {
			fresh.Kernels[i].ParallelAllocsOp = 146 // the growth-seed value
		}
	}
	// Baseline also degraded, so the relative gate is quiet — the absolute
	// ≤25 bound must still catch it.
	baseline := healthyKernels(false)
	for i := range baseline.Kernels {
		if baseline.Kernels[i].Name == "train_epoch_gcn" {
			baseline.Kernels[i].ParallelAllocsOp = 146
		}
	}
	rep := Run("bench-check", KernelGates(fresh, baseline, DefaultGateConfig()))
	if rep.Pass() {
		t.Fatal("146 allocs/op must fail the ≤25 epoch bound even if the baseline drifted too")
	}
	found := false
	for _, id := range rep.Failed() {
		if id == "gcn-epoch-allocs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Failed() = %v, want gcn-epoch-allocs among them", rep.Failed())
	}
}

func TestKernelCoverageGate(t *testing.T) {
	fresh := healthyKernels(true)
	fresh.Kernels[0].Name = "matmul_512" // renamed: baseline row no longer found
	rep := Run("bench-check", KernelGates(fresh, healthyKernels(false), DefaultGateConfig()))
	if rep.Pass() {
		t.Fatal("a renamed kernel must fail coverage instead of silently dropping its gate")
	}
}

func TestReadReportsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	kp := filepath.Join(dir, "k.json")
	kb, _ := json.Marshal(healthyKernels(true))
	if err := os.WriteFile(kp, kb, 0o644); err != nil {
		t.Fatal(err)
	}
	k, err := ReadKernelsReport(kp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Kernel("train_epoch_gcn"); !ok {
		t.Fatal("kernel lookup failed after round-trip")
	}
	if _, err := ReadKernelsReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestCommittedBaselinesParse pins the schema against the real committed
// reports: if a bench command changes its JSON shape without updating the
// shared schema, this fails before CI's bench-check does.
func TestCommittedBaselinesParse(t *testing.T) {
	root := filepath.Join("..", "..")
	k, err := ReadKernelsReport(filepath.Join(root, "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Kernels) == 0 || k.GeneratedBy != "cmd/benchkernels" {
		t.Fatalf("kernels baseline parsed oddly: %+v", k)
	}
	e, err := ReadEngineReport(filepath.Join(root, "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e.Rows {
		if row.Path != "dense" && row.Path != "map" {
			t.Fatalf("engine baseline has a row for a path the engine no longer has: %+v", row)
		}
	}
	hs := append(KernelGates(k, k, DefaultGateConfig()), EngineGates(e, e, DefaultGateConfig())...)
	rep := Run("bench-check", hs)
	if !rep.Pass() {
		t.Fatalf("committed baselines must pass their own gates: %v", rep.Failed())
	}
}
