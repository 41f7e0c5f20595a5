package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"graphsys/internal/gnn"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, and the inputs of the last build are the ones measured.
const setupReps = 3

// inputs are everything the three stages run on.
type inputs struct {
	ana *anaInput
	gcn *gnn.Task
	srv *serveInput
}

func (in *inputs) close() {
	if in.ana != nil {
		in.ana.close()
	}
	if in.srv != nil {
		in.srv.close()
	}
}

// setupSpans time the parts of one setup; they sum to its total.
type setupSpans struct {
	gen, write, open, task, start time.Duration
}

func (s setupSpans) total() time.Duration { return s.gen + s.write + s.open + s.task + s.start }

// setupAll builds the inputs setupReps times, keeps the last build and
// records setup_s and its spans from the build with the median total.
func (r *run) setupAll() (*inputs, error) {
	var spans []setupSpans
	var in *inputs
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
			in = nil
			releaseMemory()
		}
		var sp setupSpans
		var err error
		in, err = r.setup(filepath.Join(r.dir, fmt.Sprintf("setup%d", i)), &sp)
		if err != nil {
			if in != nil {
				in.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].total() < spans[j].total() })
	med := spans[len(spans)/2]
	r.rec.set("setup_s", "s", secs(med.total()))
	r.rec.samples["setup_s"] = len(spans)
	r.rec.set("graph.gen_s", "s", secs(med.gen))
	r.rec.set("storage.write_s", "s", secs(med.write))
	r.rec.set("storage.open_s", "s", secs(med.open))
	r.rec.set("gnn.task_s", "s", secs(med.task))
	r.rec.set("serve.start_s", "s", secs(med.start))
	return in, nil
}

// setup builds one set of inputs: graphs generated from the seed, block
// files written and opened (disk workload), the GCN task, and the two
// started query engines.
func (r *run) setup(dir string, sp *setupSpans) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.ana, err = r.setupAnalytics(dir, sp); err != nil {
		return in, err
	}
	in.gcn = r.setupGCN(sp)
	if in.srv, err = r.setupServe(sp); err != nil {
		return in, err
	}
	return in, nil
}

// releaseMemory returns freed heap to the OS so that the peak-RSS high-water
// mark, reset right after, starts from the live set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// since returns the time elapsed from t0 and resets t0 to now: a span timer.
func since(t0 *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t0)
	*t0 = now
	return d
}
