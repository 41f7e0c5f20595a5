package hypo

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file owns the BENCH_kernels.json schema (written by cmd/benchkernels,
// re-read by cmd/benchcheck), the gate tolerances shared by every report, and
// the kernel regression gates that compare a fresh smoke run against the
// committed full-run baseline.
//
// Gate philosophy: absolute wall times are machine properties and are never
// compared across files. What IS comparable everywhere:
//   - allocs/op — deterministic allocator behaviour, tight 20% band
//   - within-run ratios (two paths measured in the SAME process), checked as
//     Type-2 dominance hypotheses over the worker-count samples
//   - exact equivalence checks — Type 1, verified in-process by the bench
//     command that writes the report

// SeedBaseline is a growth-seed measurement embedded in a kernel report.
type SeedBaseline struct {
	NsOp     int64 `json:"ns_op"`
	AllocsOp int64 `json:"allocs_op"`
	BytesOp  int64 `json:"bytes_op"`
}

// Kernel is one kernel row of BENCH_kernels.json.
type Kernel struct {
	Name             string        `json:"name"`
	Workload         string        `json:"workload"`
	SerialNsOp       int64         `json:"serial_ns_op"`
	ParallelNsOp     int64         `json:"parallel_ns_op"`
	Speedup          float64       `json:"speedup"`
	SerialAllocsOp   int64         `json:"serial_allocs_op"`
	ParallelAllocsOp int64         `json:"parallel_allocs_op"`
	BytesOp          int64         `json:"bytes_op"`
	Seed             *SeedBaseline `json:"seed_baseline,omitempty"`
}

// KernelsReport is the BENCH_kernels.json document.
type KernelsReport struct {
	GeneratedBy string   `json:"generated_by"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Smoke       bool     `json:"smoke"`
	Note        string   `json:"note"`
	Kernels     []Kernel `json:"kernels"`
}

// Kernel returns the named kernel row, if present.
func (r *KernelsReport) Kernel(name string) (Kernel, bool) {
	for _, k := range r.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// ReadKernelsReport parses a BENCH_kernels.json file.
func ReadKernelsReport(path string) (*KernelsReport, error) {
	var r KernelsReport
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// GateConfig holds the tolerance bands of the bench-check gates.
type GateConfig struct {
	// AllocBand is the allowed fractional allocs/op growth over the
	// committed baseline (default 0.20: a >20% regression fails).
	AllocBand float64
	// AllocSlack absorbs smoke-run amortisation noise: with benchtime=2x a
	// one-time warm-up allocation adds ~0.5 allocs/op that a 20-iteration
	// full run amortises away (default 2 allocs/op of absolute headroom).
	AllocSlack int64
	// MaxEpochAllocs is the absolute bound on the GCN training epoch
	// (default 25 allocs/op; PR 3 measured 19, the growth seed had 146).
	MaxEpochAllocs int64
	// MinServingEffect is the serving-tier dominance threshold: beyond
	// saturation, shortest-remaining-work must sustain this multiple of
	// FIFO's goodput in every seeded sample (default 1.2).
	MinServingEffect float64
	// MaxEngineAllocs is the absolute bound on a dense-path steady-state
	// PageRank superstep (default 2 allocs/round; the PR 8 runs measure 0).
	MaxEngineAllocs int64
	// MinDenseEffect is the engine dominance threshold: dense slot combining
	// must beat the map-combiner path's rounds/sec at EVERY worker count by
	// this factor (default 1.05 — the loose everywhere-floor; the 8-worker
	// headline cell has its own tighter gate).
	MinDenseEffect float64
	// MinDense8Effect is the headline acceptance bound: dense PageRank
	// rounds/sec at 8 workers ≥ this multiple of the map path (default 1.3).
	MinDense8Effect float64
	// MinStorageCompression is the floor on the block file's compression
	// ratio (raw CSR bytes ÷ file bytes) for the sweep graph (default 1.5).
	MinStorageCompression float64
	// StorageHitBand is the allowed absolute hit-ratio drop of any sweep
	// cell below its committed baseline (default 0.08 — hit ratios are
	// deterministic, the band only absorbs the smoke run's shorter
	// measurement window).
	StorageHitBand float64
	// MinStorageRelThroughput is the floor on disk-backed throughput as a
	// fraction of the in-memory run at the largest cache budget, measured
	// within one process (default 0.15: block decode costs real work; the
	// committed runs measure well above this).
	MinStorageRelThroughput float64
	// MinCapacityEdges is the out-of-core capacity headline: the committed
	// full run must complete on an R-MAT with at least this many undirected
	// edges (default 100M).
	MinCapacityEdges int64
	// MaxCapacityBudgetFrac caps the capacity run's adjacency memory budget
	// as a fraction of the raw CSR size (default 0.25 — "far below" the
	// in-memory footprint).
	MaxCapacityBudgetFrac float64
}

// DefaultGateConfig returns the standard tolerance bands.
func DefaultGateConfig() GateConfig {
	return GateConfig{
		AllocBand:        0.20,
		AllocSlack:       2,
		MaxEpochAllocs:   25,
		MinServingEffect: 1.2,
		MaxEngineAllocs:  2,
		MinDenseEffect:   1.05,
		MinDense8Effect:  1.3,

		MinStorageCompression:   1.5,
		StorageHitBand:          0.08,
		MinStorageRelThroughput: 0.15,
		MinCapacityEdges:        100_000_000,
		MaxCapacityBudgetFrac:   0.25,
	}
}

// KernelGates builds the hypotheses comparing a fresh kernels report against
// the committed baseline.
func KernelGates(fresh, baseline *KernelsReport, cfg GateConfig) []Hypothesis {
	return []Hypothesis{
		{
			ID:    "kernels-coverage",
			Claim: "every measured kernel has a committed baseline row (renames cannot silently drop a gate)",
			Type:  Deterministic,
			Check: func() []Finding {
				var fs []Finding
				for _, k := range fresh.Kernels {
					_, ok := baseline.Kernel(k.Name)
					fs = append(fs, Finding{Label: k.Name, Pass: ok, Got: fmt.Sprintf("in baseline: %v", ok)})
				}
				if len(fresh.Kernels) == 0 {
					fs = append(fs, Finding{Label: "kernels", Pass: false, Got: "fresh report has no kernels"})
				}
				return fs
			},
		},
		{
			ID:    "kernels-allocs",
			Claim: fmt.Sprintf("allocs/op within %.0f%%+%d of the committed baseline for every kernel", cfg.AllocBand*100, cfg.AllocSlack),
			Type:  Deterministic,
			Unit:  "allocs/op",
			Check: func() []Finding {
				var fs []Finding
				for _, k := range fresh.Kernels {
					b, ok := baseline.Kernel(k.Name)
					if !ok {
						continue // kernels-coverage reports this
					}
					for _, side := range []struct {
						name         string
						got, allowed int64
					}{
						{"serial", k.SerialAllocsOp, allowedAllocs(b.SerialAllocsOp, cfg)},
						{"parallel", k.ParallelAllocsOp, allowedAllocs(b.ParallelAllocsOp, cfg)},
					} {
						fs = append(fs, Finding{
							Label: k.Name + "/" + side.name,
							Pass:  side.got <= side.allowed,
							Got:   fmt.Sprintf("%d allocs/op (baseline %s, allowed ≤%d)", side.got, sideBase(b, side.name), side.allowed),
						})
					}
				}
				if len(fs) == 0 {
					fs = append(fs, Finding{Label: "kernels", Pass: false, Got: "no kernel matched the baseline"})
				}
				return fs
			},
		},
		{
			ID:    "gcn-epoch-allocs",
			Claim: fmt.Sprintf("a GCN training epoch stays ≤%d allocs/op (PR 3's 146→19 claim)", cfg.MaxEpochAllocs),
			Type:  Deterministic,
			Unit:  "allocs/op",
			Check: func() []Finding {
				k, ok := fresh.Kernel("train_epoch_gcn")
				if !ok {
					return []Finding{{Label: "train_epoch_gcn", Pass: false, Got: "kernel missing from fresh report"}}
				}
				return []Finding{{
					Label: "train_epoch_gcn/parallel",
					Pass:  k.ParallelAllocsOp <= cfg.MaxEpochAllocs,
					Got:   fmt.Sprintf("%d allocs/op (bound %d)", k.ParallelAllocsOp, cfg.MaxEpochAllocs),
				}}
			},
		},
	}
}

func allowedAllocs(baseline int64, cfg GateConfig) int64 {
	return int64(float64(baseline)*(1+cfg.AllocBand)) + cfg.AllocSlack
}

func sideBase(b Kernel, side string) string {
	if side == "serial" {
		return fmt.Sprintf("%d", b.SerialAllocsOp)
	}
	return fmt.Sprintf("%d", b.ParallelAllocsOp)
}
