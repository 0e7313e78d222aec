// Command perfbench is geonet's benchmark: one command that runs one
// seeded workload, checks every output the program gives against an
// independent answer, and prints the workload's metrics by name with
// their units. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
//
// The four workloads (BENCHMARK.json records why each exists):
//
//	repro        core.Run at scale 0.2, then every core.Experiments()
//	             entry through core.Digest, pinned to a known digest
//	embedded     closed loop, 2 goroutines calling Cluster.Lookup
//	serve_read   2 keep-alive loopback connections to the 4-shard
//	             cluster handler: a closed-loop phase, then an open
//	             loop at a reference rate and two climbs of a fixed
//	             rate ladder
//	serve_churn  the same read mix through replica.Router to 2 replicas
//	             while the builder applies a churn step on a schedule
//
// The world seed is always 1; --seed seeds the generated load and the
// churn stream. Every workload reports the same metrics. With
// --trace 0 the last stdout line carries the end-to-end metrics:
// setup_s, peak_rss_mb and op_ms, the median time of the workload's
// operation (a reproduction; a chunk of 4096 lookups; a JSON lookup
// plus a bin batch in closed loop; a churn step until the whole fleet
// serves it). With --trace 1 it carries the per-layer ledger instead:
// the workload is measured once untraced and once with spans recorded
// around every call the benchmark makes into the program, then the
// ledger times every layer's public entry points on the workload's own
// world (keeping the rows the workload measured under its own load),
// every span is written to
// .bench_build/perfbench/spans-<workload>-<seed>.jsonl, self times are
// printed per span name, and trace.overhead_pct compares op_ms of the
// two measurements.
//
// The last line is {"correct", "attempted", "failed", "metrics"}. Any
// failed, refused or wrong answer makes the command exit 1 after
// printing it. Lines before it record the environment (CPU, nproc,
// GOMAXPROCS, Go version, seeds, commit or source hash) and every
// metric with its sample count.
//
// How the metrics are read:
//
//   - Latencies are exact per-request samples: one round trip per
//     request (a whole 64-address batch for bin), timed from the
//     request's due time, with failed or refused requests counted as
//     over every limit. A percentile is reported only when at least 10
//     samples lie beyond it. The read latencies are the median of the
//     percentile over 9 consecutive windows, so one stall of the
//     machine moves one window rather than the result. In the
//     closed-loop phase a request falls due when its connection is
//     free, so its latency is its round trip.
//   - max_rate_rps is the highest ladder rate at which both classes meet
//     the 25 ms p99 limit with no failures and no growing backlog (the
//     median send delay of an attempt's last quarter exceeds its first
//     quarter's by at most 5 ms). The ladder is climbed twice and a
//     rate passes when either attempt does, since a stall of a shared
//     machine fails one attempt where an unsustainable rate fails both.
//     Rates near the knee still pass or fail by luck, so the result is
//     read at the cut that best separates passing rates below from
//     failing rates above.
//   - error_ratio is the upper end of the 95% Wilson interval of
//     (failed + refused + wrong) / attempted, so it is never 0 and still
//     rises with the first failure.
//   - Only figures steady enough to gate a change are end-to-end. On a
//     2-vCPU VM the host moves loopback latency under open load and
//     capacity by a third or more from minute to minute, and over 10
//     seeds the open-loop read latencies and max_rate_rps spread past
//     0.25, the cap on any bound. They, and each workload's own
//     figures (repro_s, lookups_per_s, fresh_p90_ms, ...), are printed
//     as info lines before the result but gate nothing.
//   - setup_s is the median of 3 or more set-ups: world build, snapshot
//     compile and bringing the serving system up (repro: a test-sized
//     warm-up pipeline). peak_rss_mb is VmHWM at the end of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// worldSeed is the world every workload builds.
const worldSeed = 1

// An untraced run sets its workload up at least setupReps times and
// until the set-ups have taken setupSeconds together; setup_s is their
// median. A quick set-up (repro's half second) so gets enough samples
// that one slow second of the host does not set it.
const (
	setupReps    = 3
	setupSeconds = 3
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// bench is a set-up workload instance.
type bench struct {
	// measure runs the timed part for the run's seconds, adding op_ms,
	// its other metrics and its operation counts to rep and, when rec is
	// non-nil, its spans to rec.
	measure func(rep *report, rec *recorder) error
	// world returns what the workload built, for the ledger.
	world func() *world
	close func()
}

type workload struct {
	name  string
	setup func(o options) (*bench, error)
}

func workloads() []workload {
	return []workload{
		{wRepro, setupRepro},
		{wEmbedded, setupEmbedded},
		{wServeRead, setupServeRead},
		{wServeChurn, setupServeChurn},
	}
}

func scaleOf(workload string) float64 {
	if workload == wRepro {
		return reproScale
	}
	return serveScale
}

// report collects one run's metrics and operation counts.
type report struct {
	values  map[string]float64
	samples map[string]int // percentile metric -> sample count
	// attempted counts operations issued; failed those that errored,
	// were refused or answered wrongly; wrong only the wrong answers.
	attempted, failed, wrong int64
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) has(name string) bool {
	_, ok := r.values[name]
	return ok
}

// setDefault sets name unless it is set already.
func (r *report) setDefault(name string, v float64) {
	if !r.has(name) {
		r.set(name, v)
	}
}

// setPercentile records percentile p of xs (milliseconds) under name,
// with its sample count. It fails when the sample is too small to carry
// p, since a tail read from too few samples is not a measurement.
func (r *report) setPercentile(name string, xs []float64, p float64) error {
	if !supports(len(xs), p) {
		return fmt.Errorf("%s: %d samples cannot carry p%g (need %d beyond it)", name, len(xs), p, minTail)
	}
	r.values[name] = quantile(slices.Clone(xs), p)
	r.samples[name] = len(xs)
	return nil
}

// count adds operation outcomes.
func (r *report) count(attempted, failed, wrong int64) {
	r.attempted += attempted
	r.failed += failed
	r.wrong += wrong
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: repro, embedded, serve_read or serve_churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated load and the churn stream")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced per-layer ledger instead of end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", trace)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 || o.seconds > 600 {
		return fmt.Errorf("--seconds %d out of range", o.seconds)
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == o.workload {
			w = &c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q (repro, embedded, serve_read, serve_churn)", o.workload)
	}
	env := currentEnv(o)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	rep := newReport()
	reps, least := setupReps, setupSeconds*time.Second
	if o.trace {
		reps, least = 1, 0
	}
	b, setupTimes, err := setUp(*w, o, reps, least)
	if err != nil {
		return err
	}
	defer b.close()
	rep.set("setup_s", median(setupTimes))

	// Each measurement starts from a collected heap, so the garbage of
	// the set-up (or of an earlier measurement) is not collected on the
	// clock.
	measure := func(rep *report, rec *recorder) error {
		runtime.GC()
		return b.measure(rep, rec)
	}
	if !o.trace {
		if err := measure(rep, nil); err != nil {
			return err
		}
	} else {
		untraced := newReport()
		if err := measure(untraced, nil); err != nil {
			return err
		}
		rep.count(untraced.attempted, untraced.failed, untraced.wrong)
		rec := newRecorder()
		if err := measure(rep, rec); err != nil {
			return err
		}
		u, t := untraced.values["op_ms"], rep.values["op_ms"]
		rep.set("trace.overhead_pct", 100*(t-u)/u)
		fmt.Printf("trace overhead on op_ms: untraced %.6g, traced %.6g\n", u, t)
		if err := ledger(o, b.world(), rep, rec); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		path := filepath.Join(".bench_build", "perfbench",
			fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := rec.writeSpans(path, os.Stdout); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	rep.set("peak_rss_mb", rss)
	return emit(o, rep)
}

// setUp builds the workload at least reps times and until the builds
// have taken least together, timing each, and keeps the last instance.
// Earlier instances are released before the next build so peak memory
// reflects one instance.
func setUp(w workload, o options, reps int, least time.Duration) (*bench, []float64, error) {
	var (
		b     *bench
		times []float64
		spent time.Duration
	)
	for len(times) < reps || spent < least {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		nb, err := w.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		b = nb
	}
	return b, times, nil
}

func printMetric(kind string, d metricDef, v float64, rep *report) {
	line := fmt.Sprintf("%-6s %-28s %14.6g %-6s", kind, d.name, v, d.unit)
	if n, ok := rep.samples[d.name]; ok {
		line += fmt.Sprintf(" (n=%d, highest supported p%.2f)", n, highestPercentile(n))
	}
	switch d.kind {
	case perLayer:
		line += "  moves: " + d.moves
	case info:
		line += "  " + d.moves
	}
	fmt.Println(line)
}

// emit prints the figures the run measured as info lines, then every
// metric of the result with its sample count, then the result line. A
// metric it did not measure is an error before any result is printed;
// a failed operation is an error (exit 1) after it.
func emit(o options, rep *report) error {
	kind := endToEnd
	if o.trace {
		kind = perLayer
	}
	defs := metricsOf(kind)
	var missing []string
	for _, d := range defs {
		if !rep.has(d.name) {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, d := range metricsOf(info) {
		if v, ok := rep.values[d.name]; ok {
			printMetric("info", d, v, rep)
		}
	}
	res := result{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := rep.values[d.name]
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed request's latency: over any limit
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		printMetric("metric", d, v, rep)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if rep.failed > 0 || rep.wrong > 0 {
		return fmt.Errorf("%d of %d operations failed (%d wrong answers)", rep.failed, rep.attempted, rep.wrong)
	}
	return nil
}
