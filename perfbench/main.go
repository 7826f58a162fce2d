// Command perfbench is the repository's benchmark. It runs one named
// workload against the engine, checks every output, and prints one JSON
// result line. From the checkout root:
//
//	bash perfbench/run.sh --workload fig8 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced; with --trace 1 it carries the per-layer metrics of a traced
// run, whose spans are written under .bench_build/traces. See README.md
// for the workloads and what each metric is meant to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"conquer/internal/exec"
)

// Instance shape shared by every workload: the paper's Fig 8 setting
// (sf = 1, if = 3) at the repository's benchmark scale. fig8 and serve
// query one fixed instance, generated from instSeed: at this scale the
// cost of Q9 and of the hottest serve statements varies up to threefold
// between generator seeds, which would drown any change under test. The
// workload seed varies their query streams instead (and ingest's
// instance, whose cost varies a few percent between seeds).
const (
	instSF    = 1.0
	instIF    = 3
	instScale = 0.001
	instSeed  = 1
)

// traceDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/traces"

// setupReps is how many times a run sets the program up; setup_s is
// the median.
const setupReps = 21

// manifestFile is the benchmark's manifest, at the checkout root. It
// lists every metric a result carries: an untraced run reports each
// end_to_end metric, a traced run each per_layer metric.
const manifestFile = "BENCHMARK.json"

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// complete checks a run's metrics against the manifest's list: each one
// reported must be listed, in the listed unit. An untraced run must
// report every listed metric. A traced run reports 0 for a layer its
// workload never calls (fig8 has no server, ingest runs no query), so
// every workload's result carries every per-layer metric.
func complete(got map[string]metric, want []manifestMetric, traced bool) error {
	listed := make(map[string]string, len(want))
	for _, m := range want {
		listed[m.Name] = m.Unit
	}
	for name, m := range got {
		unit, ok := listed[name]
		if !ok {
			return fmt.Errorf("metric %s is not in %s", name, manifestFile)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s is in %s, %s lists %s", name, m.Unit, manifestFile, unit)
		}
	}
	for _, m := range want {
		if _, ok := got[m.Name]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		got[m.Name] = metric{0, m.Unit}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run fills in.
type run struct {
	seed    int64
	seconds time.Duration

	attempted, failed int64
	firstErr          error
	metrics           map[string]metric
	info              map[string]any // host, configuration and sizes, printed before the result
	tr                *tracer        // nil unless the run is traced
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts one failed operation and keeps the first cause.
func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// okRatio reports the share of attempted operations that succeeded with
// the right answer (1 − fail ratio: a ratio that is never zero).
func (r *run) okRatio() {
	r.set("ok_ratio", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)), "ratio")
}

var workloads = map[string]func(*run) error{
	"fig8":   runFig8,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	name := flag.String("workload", "", "workload to run: fig8, serve or ingest")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig8|serve|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	man, err := loadManifest(manifestFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		metrics: make(map[string]metric),
		info:    hostInfo(*name, *seed, *seconds, *trace),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := w(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench %s: no operation attempted\n", *name)
		os.Exit(1)
	}
	want := man.EndToEnd
	if r.tr != nil {
		want = man.PerLayer
	}
	if err := complete(r.metrics, want, r.tr != nil); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: writing spans: %v\n", *name, err)
			os.Exit(1)
		}
		r.info["spans"] = path
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %d of %d operations failed; first: %v\n",
			*name, r.failed, r.attempted, r.firstErr)
	}
	emit(map[string]any{"info": r.info})
	emit(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// hostInfo records the host and the engine's resolved defaults: every
// result line is preceded by it.
func hostInfo(workload string, seed int64, seconds, trace int) map[string]any {
	procs := runtime.GOMAXPROCS(0)
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"cores":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"engine": map[string]int{
			"parallelism": procs, // engine.Options.Parallelism 0 resolves to GOMAXPROCS
			"shards":      procs, // likewise engine.Options.Shards
			"batch_size":  exec.ResolveBatchSize(0),
		},
		"instance": map[string]float64{"sf": instSF, "if": instIF, "scale": instScale},
	}
}

// timeSetup runs setup setupReps times and reports the median as
// setup_s; it returns the state of the last repetition, whose earlier
// siblings are released with discard.
func timeSetup[T any](r *run, setup func() (T, error), discard func(T)) (T, error) {
	var xs []float64
	var cur T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(cur)
		}
		runtime.GC() // start each repetition from the same heap state
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, err
		}
		xs = append(xs, time.Since(start).Seconds())
		cur = v
	}
	if r.tr == nil {
		r.set("setup_s", median(xs), "s")
	}
	return cur, nil
}
