package hypo

import "fmt"

// This file owns the BENCH_engine.json schema (written by cmd/benchengine,
// re-read by cmd/benchcheck) and its regression gates: whole pregel
// supersteps, measured as rounds/sec and allocs/round, across the two
// communication paths (dense slot combiner / map combiner) and worker counts.
//
// Gate philosophy (as in bench.go): absolute round times are machine
// properties and never compared across files. What IS comparable everywhere:
//   - allocs/round — deterministic allocator behaviour: an absolute bound on
//     the dense steady state (the PR's ~0 allocs/round claim) plus a banded
//     growth bound against the committed baseline
//   - within-run dominance ratios (dense vs map rounds/sec in the SAME
//     process), checked as Type-2 hypotheses over worker counts
//   - exact result equivalence across the paths — Type 1, re-verified by
//     cmd/benchengine itself before it writes the report

// EngineRow is one (algorithm, path, worker-count) cell of BENCH_engine.json.
// Per-round figures are measured differentially — two runs differing only in
// superstep count — so setup costs cancel and only the steady-state increment
// remains.
type EngineRow struct {
	Algo           string  `json:"algo"`    // "pagerank" | "cc"
	Path           string  `json:"path"`    // "dense" | "map"
	Workers        int     `json:"workers"` // simulated workers
	Rounds         int     `json:"rounds"`  // supersteps in the long run
	NsPerRound     int64   `json:"ns_per_round"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	MsgsPerRound   int64   `json:"msgs_per_round"` // delivered (post-combining)
}

// EngineReport is the BENCH_engine.json document.
type EngineReport struct {
	GeneratedBy string         `json:"generated_by"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Smoke       bool           `json:"smoke"`
	Note        string         `json:"note"`
	Rows        []EngineRow    `json:"rows"`
	Check       map[string]any `json:"equivalence_check"`
}

// Row returns the cell for (algo, path, workers), if present.
func (r *EngineReport) Row(algo, path string, workers int) (EngineRow, bool) {
	for _, row := range r.Rows {
		if row.Algo == algo && row.Path == path && row.Workers == workers {
			return row, true
		}
	}
	return EngineRow{}, false
}

// ReadEngineReport parses a BENCH_engine.json file.
func ReadEngineReport(path string) (*EngineReport, error) {
	var r EngineReport
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// EngineGates builds the hypotheses comparing a fresh engine report against
// the committed baseline.
func EngineGates(fresh, baseline *EngineReport, cfg GateConfig) []Hypothesis {
	var seeds []int64
	denseByWorkers := map[int64]EngineRow{}
	mapByWorkers := map[int64]EngineRow{}
	for _, row := range fresh.Rows {
		if row.Algo != "pagerank" {
			continue
		}
		switch row.Path {
		case "dense":
			seeds = append(seeds, int64(row.Workers))
			denseByWorkers[int64(row.Workers)] = row
		case "map":
			mapByWorkers[int64(row.Workers)] = row
		}
	}
	return []Hypothesis{
		{
			ID:    "engine-coverage",
			Claim: "every baseline (algo, path, workers) cell is present in the fresh report (renames cannot silently drop a gate)",
			Type:  Deterministic,
			Check: func() []Finding {
				var fs []Finding
				for _, b := range baseline.Rows {
					_, ok := fresh.Row(b.Algo, b.Path, b.Workers)
					fs = append(fs, Finding{
						Label: fmt.Sprintf("%s/%s/workers=%d", b.Algo, b.Path, b.Workers),
						Pass:  ok,
						Got:   fmt.Sprintf("in fresh report: %v", ok),
					})
				}
				if len(baseline.Rows) == 0 {
					fs = append(fs, Finding{Label: "rows", Pass: false, Got: "baseline report has no rows"})
				}
				return fs
			},
		},
		{
			ID: "engine-allocs",
			Claim: fmt.Sprintf("dense steady-state supersteps stay ≤%d allocs/round, and every cell stays within %.0f%%+%d of its committed baseline",
				cfg.MaxEngineAllocs, cfg.AllocBand*100, cfg.AllocSlack),
			Type: Deterministic,
			Unit: "allocs/round",
			Check: func() []Finding {
				var fs []Finding
				for _, row := range fresh.Rows {
					label := fmt.Sprintf("%s/%s/workers=%d", row.Algo, row.Path, row.Workers)
					if row.Path == "dense" && row.Algo == "pagerank" {
						fs = append(fs, Finding{
							Label: label + "/absolute",
							Pass:  row.AllocsPerRound <= float64(cfg.MaxEngineAllocs),
							Got:   fmt.Sprintf("%.2f allocs/round (bound %d)", row.AllocsPerRound, cfg.MaxEngineAllocs),
						})
					}
					b, ok := baseline.Row(row.Algo, row.Path, row.Workers)
					if !ok {
						continue // engine-coverage reports missing cells
					}
					allowed := float64(allowedAllocs(int64(b.AllocsPerRound), cfg))
					fs = append(fs, Finding{
						Label: label,
						Pass:  row.AllocsPerRound <= allowed,
						Got:   fmt.Sprintf("%.2f allocs/round (baseline %.2f, allowed ≤%.0f)", row.AllocsPerRound, b.AllocsPerRound, allowed),
					})
				}
				if len(fs) == 0 {
					fs = append(fs, Finding{Label: "rows", Pass: false, Got: "fresh report has no rows"})
				}
				return fs
			},
		},
		{
			ID:        "dense-dominates-map",
			Claim:     fmt.Sprintf("dense slot addressing sustains ≥%.2f× map-combiner PageRank rounds/sec at every worker count (within one run)", cfg.MinDenseEffect),
			Type:      Statistical,
			Unit:      "rounds/sec",
			Seeds:     seeds,
			MinEffect: cfg.MinDenseEffect,
			Measure: func(workers int64) (Sample, error) {
				d, ok := denseByWorkers[workers]
				m, ok2 := mapByWorkers[workers]
				if !ok || !ok2 {
					return Sample{}, fmt.Errorf("missing pagerank dense/map rows for workers=%d", workers)
				}
				return Sample{Baseline: m.RoundsPerSec, Treatment: d.RoundsPerSec}, nil
			},
		},
		{
			ID:    "dense-dominates-map-at-8",
			Claim: fmt.Sprintf("at 8 workers, dense PageRank rounds/sec is ≥%.1f× the map path (the headline acceptance cell)", cfg.MinDense8Effect),
			Type:  Deterministic,
			Unit:  "rounds/sec",
			Check: func() []Finding {
				d, ok := denseByWorkers[8]
				m, ok2 := mapByWorkers[8]
				if !ok || !ok2 {
					return []Finding{{Label: "pagerank/workers=8", Pass: false, Got: "dense or map row missing"}}
				}
				ratio := 0.0
				if m.RoundsPerSec > 0 {
					ratio = d.RoundsPerSec / m.RoundsPerSec
				}
				return []Finding{{
					Label: "pagerank/workers=8",
					Pass:  ratio >= cfg.MinDense8Effect,
					Got:   fmt.Sprintf("dense %.1f vs map %.1f rounds/sec — %.2fx (floor %.1fx)", d.RoundsPerSec, m.RoundsPerSec, ratio, cfg.MinDense8Effect),
				}}
			},
		},
		{
			ID:    "engine-equivalence",
			Claim: "PageRank and CC results are bitwise identical across the dense and map paths (verified in-process by cmd/benchengine)",
			Type:  Deterministic,
			Check: func() []Finding {
				ident, ok := fresh.Check["identical"].(bool)
				return []Finding{{
					Label: "equivalence_check",
					Pass:  ok && ident,
					Got:   fmt.Sprintf("identical=%v present=%v", ident, ok),
				}}
			},
		},
	}
}
