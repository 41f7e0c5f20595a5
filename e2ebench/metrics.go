package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The tables below are the benchmark's
// fixed vocabulary; BENCHMARK.json lists the same names (bench_test.go checks
// that the two agree).
type metricDef struct {
	Name, Unit, Better string
}

var (
	algos  = []string{"pagerank", "cc", "bfs"}
	phases = []string{"low", "high"}
	// modules are the graphsys/internal packages the CPU profile is
	// attributed to; samples in no listed module go to runtime.cpu_s.
	modules = []string{"graph", "storage", "cluster", "pregel", "tensor", "gnn", "nn", "gnndist", "serve", "gthinkerq", "match", "quegel"}
)

// endToEnd are the metrics a user of the system sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"pagerank_s", "s", "lower"},
	{"cc_s", "s", "lower"},
	{"bfs_s", "s", "lower"},
	{"train_seeds_per_s", "seeds/s", "higher"},
	{"train_loss", "nats", "lower"},
	{"query_p50_ms.low", "ms", "lower"},
	{"query_p50_ms.high", "ms", "lower"},
	{"capacity_qps", "queries/s", "higher"},
}

// perLayer are the metrics of single layers, reported by a traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, a := range algos {
		add("pregel.supersteps."+a, "count", "lower")
		add("pregel.compute_s."+a, "s", "lower")
		add("pregel.skew_s."+a, "s", "lower")
		add("pregel.sync_s."+a, "s", "lower")
		add("pregel.imbalance."+a, "ratio", "lower")
		add("pregel.residual."+a, "ratio", "lower")
		add("cluster.send_s."+a, "s", "lower")
	}
	for _, a := range append(append([]string{}, algos...), "gcn") {
		add("cluster.messages."+a, "count", "lower")
		add("cluster.local_messages."+a, "count", "lower")
		add("cluster.bytes."+a, "B", "lower")
		add("storage.neighbors_s."+a, "s", "lower")
	}
	for _, a := range algos {
		add("storage.hits."+a, "count", "higher")
		add("storage.misses."+a, "count", "lower")
		add("storage.bytes_read."+a, "B", "lower")
		add("storage.hit_ratio."+a, "ratio", "higher")
	}
	add("gnndist.rounds", "count", "higher")
	add("gnndist.grad_bytes", "B", "lower")
	add("gnndist.remote_frac", "ratio", "lower")
	// tail latencies spread too far between runs on a shared host to carry
	// a bound, so they are reported here rather than end to end
	add("query_p99_ms.low", "ms", "lower")
	add("query_p99_ms.high", "ms", "lower")
	add("short_p99_ms.high", "ms", "lower")
	for _, p := range phases {
		add("gthinkerq.p50_ms."+p, "ms", "lower")
		add("gthinkerq.p99_ms."+p, "ms", "lower")
		add("quegel.p50_ms."+p, "ms", "lower")
		add("quegel.p99_ms."+p, "ms", "lower")
		add("quegel.batch_queries."+p, "queries/batch", "higher")
		add("quegel.supersteps."+p, "count", "lower")
		add("serve.submit_us.p99."+p, "us", "lower")
		add("serve.rejected."+p, "count", "lower")
		add("serve.expired."+p, "count", "lower")
		add("loadgen.lag_ms.p99."+p, "ms", "lower")
		add("loadgen.reconcile_ms.p99."+p, "ms", "lower")
	}
	for _, m := range modules {
		add(m+".cpu_s", "s", "lower")
	}
	add("runtime.cpu_s", "s", "lower")
	add("proc.cpu_util", "ratio", "higher")
	add("proc.steal_frac", "ratio", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.alloc_bytes", "B", "lower")
	add("runtime.alloc_objects", "count", "lower")
	add("graph.gen_s", "s", "lower")
	add("storage.write_s", "s", "lower")
	add("storage.open_s", "s", "lower")
	add("gnn.task_s", "s", "lower")
	add("serve.start_s", "s", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recorder collects a run's metrics, operation counts and failures.
type recorder struct {
	traced    bool
	values    map[string]metric
	samples   map[string]int // samples behind each timing, for the stamp line
	attempted int64
	failed    int64
	problems  []string
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, values: map[string]metric{}, samples: map[string]int{}}
}

func (r *recorder) set(name, unit string, v float64) {
	r.values[name] = metric{Value: v, Unit: unit}
}

// setSampled records the trimmed mean of repeated traced measurements
// together with the number of samples it came from.
func (r *recorder) setSampled(name, unit string, xs []float64) {
	r.set(name, unit, trimmedMean(xs))
	r.samples[name] = len(xs)
}

// setClean records the mean of the better half of the clean samples
// (cleanValues): the faster repetitions, or the higher rates when higher
// is better. It returns that figure; the stamp line shows how many samples
// were clean of how many.
func (r *recorder) setClean(name, unit string, higherBetter bool, xs []sample) float64 {
	v := betterHalfMean(cleanValues(xs), higherBetter)
	r.set(name, unit, v)
	r.samples[name] = len(cleanValues(xs))
	r.samples[name+".of"] = len(xs)
	return v
}

// betterHalfMean is the mean of the better half of xs (the smaller values,
// or the larger when higherBetter). Interference from other tenants of a
// shared host only ever slows a repetition; it comes and goes within a run,
// and the better half is the part of the run it spared.
func betterHalfMean(xs []float64, higherBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *recorder) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem(err)
	}
}

// problem records a failed check that is not itself an operation.
func (r *recorder) problem(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// report assembles the result line for the run's mode. A metric of the
// mode's table that was never recorded is a benchmark bug and fails the run.
func (r *recorder) report() report {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	rep := report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	missing := false
	for _, d := range defs {
		m, ok := r.values[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem(fmt.Errorf("metric %s missing or not finite", d.Name))
			missing = true
			continue
		}
		rep.Metrics[d.Name] = m
	}
	rep.Correct = r.failed == 0 && len(r.problems) == 0 && !missing && r.attempted > 0
	if rep.Attempted == 0 {
		// a run that attempted nothing reports itself as one failed operation
		rep.Attempted, rep.Failed = 1, 1
	}
	return rep
}

// trimmedMean is the mean of xs without its smallest and largest quarter
// (the interquartile mean; the plain mean below four samples), the
// per-layer figure of traced repetitions.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func secs(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
