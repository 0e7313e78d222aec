package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"geonet/internal/core"
)

const (
	// reproScale is the researcher's job at a size that can be repeated
	// many times per benchmark session: 7-9 s on a 2-core Xeon, where
	// scale 1.0 takes minutes.
	reproScale = 0.2
	// reproDigest is core.Digest of the seed-1, scale-0.2 world: every
	// table and figure of the paper, byte for byte.
	reproDigest = "aa33ac8862f6e639584332fc17856cc17d5c0df3656233eb2b56b6a3fdb93edd"
	// warmScale is the test-sized pipeline the repro set-up runs so
	// lazy initialisation and heap growth happen before the timed
	// iterations.
	warmScale = 0.02
)

// reproStages maps the stage lines core.Run writes to Config.Progress
// onto the per-layer metric each stage's duration is reported as. A
// stage lasts from its line to the next stage line, or to Run's return.
var reproStages = []struct{ prefix, metric string }{
	{"building world population model", "population.build_s"},
	{"generating ground-truth internet", "netgen.build_s"},
	{"compiling forwarding fabric", "netsim.compile_s"},
	{"publishing DNS, whois and ISP geography", "dnsdb.publish_s"},
	{"assembling RouteViews tables", "bgp.assemble_s"},
	{"running skitter", "probe.collect_s"},
	{"processing datasets", "topo.datasets_s"},
}

// stageClock is the io.Writer handed to Config.Progress: it timestamps
// every stage line as core.Run writes it.
type stageClock struct {
	mu    sync.Mutex
	marks []stageMark
}

type stageMark struct {
	metric string
	at     time.Time
}

func (c *stageClock) Write(b []byte) (int, error) {
	now := time.Now()
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, " ") {
			continue // detail lines belong to the running stage
		}
		for _, s := range reproStages {
			if strings.HasPrefix(line, s.prefix) {
				c.mu.Lock()
				c.marks = append(c.marks, stageMark{s.metric, now})
				c.mu.Unlock()
			}
		}
	}
	return len(b), nil
}

// durations returns each stage's seconds: from its line to the next
// stage line, or to end for the last.
func (c *stageClock) durations(end time.Time) map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]float64{}
	for i, m := range c.marks {
		stop := end
		if i+1 < len(c.marks) {
			stop = c.marks[i+1].at
		}
		out[m.metric] = stop.Sub(m.at).Seconds()
	}
	return out
}

func setupRepro(o options) (*bench, error) {
	if _, err := core.Run(core.Config{Seed: worldSeed, Scale: warmScale}); err != nil {
		return nil, err
	}
	var last *world // the latest reproduction's, which the ledger measures
	return &bench{
		measure: func(rep *report, rec *recorder) (err error) {
			last, err = measureRepro(o, rep, rec)
			return err
		},
		world: func() *world { return last },
		close: func() {},
	}, nil
}

// measureRepro runs whole reproductions back to back, starting another
// only within the first quarter of the run's seconds, and reports the
// median as op_ms. A later reproduction in the same process runs on a
// grown heap and is faster than the first, so the count must not flip
// between one and two on run-to-run noise: at 7-9 s per reproduction
// and 20 s per run it stays at one. It returns the last reproduction's
// world.
func measureRepro(o options, rep *report, rec *recorder) (*world, error) {
	var (
		iters  []float64
		stages = map[string][]float64{}
		start  = time.Now()
		window = time.Duration(o.seconds) * time.Second
		w      *world
	)
	for len(iters) == 0 || time.Since(start) < window/4 {
		trace := rec.id()
		root := rec.id()
		clock := &stageClock{}
		t0 := time.Now()
		p, err := core.Run(core.Config{Seed: worldSeed, Scale: reproScale, Progress: clock})
		if err != nil {
			return nil, fmt.Errorf("core.Run: %w", err)
		}
		t1 := time.Now()
		digest := core.Digest(p)
		t2 := time.Now()
		iters = append(iters, t2.Sub(t0).Seconds())

		rep.count(1, 0, 0)
		if digest != reproDigest {
			rep.count(0, 1, 1)
			fmt.Printf("repro: core.Digest %s, want %s\n", digest, reproDigest)
		}
		runSpan := rec.id()
		for i, m := range clock.marks {
			end := t1
			if i+1 < len(clock.marks) {
				end = clock.marks[i+1].at
			}
			rec.leaf(trace, runSpan, strings.TrimSuffix(m.metric, "_s"), m.at, end)
		}
		rec.add(trace, runSpan, root, "core.Run", t0, t1)
		rec.leaf(trace, root, "core.Digest", t1, t2)
		rec.add(trace, root, 0, "repro.iteration", t0, t2)
		w = &world{pipe: p, stages: clock.durations(t1)}
		for name, s := range w.stages {
			stages[name] = append(stages[name], s)
		}
		stages["analysis.experiments_s"] = append(stages["analysis.experiments_s"], t2.Sub(t1).Seconds())
	}
	rep.set("op_ms", 1000*median(iters))
	rep.set("repro_s", median(iters))
	for name, xs := range stages {
		rep.set(name, median(xs))
	}
	fmt.Printf("repro: %d iteration(s) %v s\n", len(iters), iters)
	return w, nil
}
