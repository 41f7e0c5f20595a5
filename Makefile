GO ?= go

.PHONY: build test race vet lint fuzz verify bench bench-kernels bench-serving bench-engine bench-storage bench-smoke bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# graphlint: the repo-specific contracts (determinism, metered clock, seeded
# RNG, runtime-owned concurrency, error-return policy) plus the
# interprocedural proofs — hot-path allocation freedom and lock ordering.
# See DESIGN.md §3.9 and §3.14. -timing prints the per-check wall-time
# report; -budget fails the run (exit 2) if the whole analysis exceeds 5s,
# keeping the call-graph passes honest as the module grows.
lint:
	$(GO) run ./cmd/graphlint -timing -budget 5s ./...

test:
	$(GO) test ./...

# Race-enabled subset: the packages with real concurrency (the cluster
# runtime and the engines that drive it, including the fault-injection /
# crash-recovery paths, the parallel tensor/aggregation kernels, and the
# serving tier's worker pools and batchers).
race:
	$(GO) test -race ./internal/cluster/ ./internal/pregel/ ./internal/gnndist/ ./internal/tensor/ ./internal/gnn/ ./internal/serve/ ./internal/gthinkerq/ ./internal/quegel/

# Short fuzzing pass over every Fuzz target in the module (go test -fuzz
# takes one target per run). Seed corpora under testdata/fuzz/ already run
# as plain tests in `make test`; this explores beyond them for FUZZTIME each.
FUZZTIME ?= 10s
fuzz:
	@set -e; for dir in $$(grep -rl --include='*_test.go' --exclude-dir=e2ebench --exclude-dir=testdata '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go); do \
			echo "fuzz: $$dir $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$dir; \
		done; \
	done

# The full pre-commit gate: referenced from .claude/skills/verify/SKILL.md.
# bench-check (which depends on bench-smoke) replaces the old run-and-discard
# smoke pass: the fresh smoke reports are now GATED against the committed
# baselines instead of merely generated.
verify: vet lint build test race bench-check
	@echo "verify: OK"

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Kernel-layer benchmarks: serial vs parallel matmul/SpMM/training-epoch, and
# the BENCH_kernels.json report with the growth-seed baselines.
bench-kernels:
	$(GO) test -bench 'MatMul|Agg|Train' -benchmem -run '^$$' ./internal/tensor/ ./internal/gnn/
	$(GO) run ./cmd/benchkernels -out BENCH_kernels.json

# Serving-tier benchmark: p50/p99 latency and goodput vs offered load per
# scheduling policy, through saturation, on the deterministic logical-time
# simulator. The output is machine-independent; bench-check gates it against
# the committed baseline for EXACT equality.
bench-serving:
	$(GO) run ./cmd/benchserving -out BENCH_serving.json

# End-to-end engine benchmark: whole pregel supersteps (PageRank + CC) across
# the dense-slot / map-combiner communication paths at 1/2/8 workers,
# measured differentially so per-round allocs and ns are exact. The command
# refuses to write a report if the two paths' results diverge.
bench-engine:
	$(GO) test -bench 'GangDispatch|SendDenseCombiner|SendMapCombiner' -benchmem -run '^$$' ./internal/cluster/
	$(GO) run ./cmd/benchengine -out BENCH_engine.json

# Out-of-core storage benchmark: compression ratio, the cache-size sweep
# (hit ratio + cached-vs-in-memory throughput for PageRank and a sampled-GNN
# epoch, LRU and MRU), and the capacity run — PageRank + GNN minibatches on a
# 100M+-edge streaming-built R-MAT under a budget ~15% of the raw CSR. The
# command refuses to write a report if the disk-backed source diverges bitwise
# from the in-memory oracle. The full run builds the capacity graph: minutes.
bench-storage:
	$(GO) test -bench 'Storage|Codec|Cache' -benchmem -run '^$$' ./internal/storage/
	$(GO) run ./cmd/benchstorage -out BENCH_storage.json

# Quick pass of the kernel, serving, engine and storage reports (few
# iterations; the serving sweep is deterministic so its smoke run IS the full
# sweep). Writes to scratch paths (gitignored) so it never clobbers the
# committed full-run reports; bench-check consumes these.
bench-smoke:
	$(GO) run ./cmd/benchkernels -smoke -out BENCH_kernels.smoke.json
	$(GO) run ./cmd/benchserving -smoke -out BENCH_serving.smoke.json
	$(GO) run ./cmd/benchengine -smoke -out BENCH_engine.smoke.json
	$(GO) run ./cmd/benchstorage -smoke -out BENCH_storage.smoke.json

# Regression gate: compare the fresh smoke reports against the committed
# BENCH_*.json baselines via the typed hypotheses in internal/hypo. Fails
# (non-zero exit) on >20% allocs/op growth, ANY serving-sweep cell drifting
# from the committed BENCH_serving.json (deterministic simulation ⇒ exact
# equality), dense engine supersteps allocating (>2 allocs/round), the dense
# path losing its rounds/sec dominance over the map path (≥1.3× at 8
# workers), or the two paths' results diverging. The storage gates add:
# disk/mem result divergence, compression dropping below 1.5×, any sweep
# cell's hit ratio falling outside the band vs the committed baseline, the
# largest-budget cells losing the in-memory throughput floor, or the
# committed capacity run no longer proving the 100M-edge-under-budget claim.
# Artifacts land in hypo_runs/bench-check/.
bench-check: bench-smoke
	$(GO) run ./cmd/benchcheck
