package main

import (
	"context"
	"fmt"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// world is what a workload built: the pipeline with the time each
// stage of its build took and, once compiled, the snapshot and the
// 4-shard cluster serving it. serve_churn also runs a fleet on it.
type world struct {
	pipe    *core.Pipeline
	stages  map[string]float64 // stage metric -> seconds of the build
	snap    *geoserve.Snapshot // the epoch cluster serves; nil until compiled
	compile float64            // seconds Pipeline.Serve took
	cluster *geoserve.Cluster
	fleet   *fleet
}

// buildWorld runs core.Run on world seed 1 at scale, timing each stage
// from the lines Run writes to Config.Progress.
func buildWorld(scale float64) (*world, error) {
	clock := &stageClock{}
	p, err := core.Run(core.Config{Seed: worldSeed, Scale: scale, Progress: clock})
	if err != nil {
		return nil, fmt.Errorf("core.Run: %w", err)
	}
	return &world{pipe: p, stages: clock.durations(time.Now())}, nil
}

// buildServingWorld builds the serving workloads' world and compiles
// its snapshot and cluster.
func buildServingWorld() (*world, error) {
	w, err := buildWorld(serveScale)
	if err != nil {
		return nil, err
	}
	return w, w.serve()
}

// serve compiles the world's snapshot and the cluster over it.
func (w *world) serve() error {
	t0 := time.Now()
	snap, err := w.pipe.Serve()
	if err != nil {
		return fmt.Errorf("Pipeline.Serve: %w", err)
	}
	w.compile = time.Since(t0).Seconds()
	w.snap = snap
	w.cluster, err = geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: clusterShards})
	return err
}

// ledgerSteps is how many churn steps the ledger applies back to back
// on a workload that ran none of its own.
const ledgerSteps = 50

// ledger adds every per-layer metric the workload's traced measurement
// did not set itself, each timed around a public entry point on the
// workload's own world, so every traced run reports the whole ledger.
// The rows a workload measures under its own load (repro's stages,
// serve_churn's steps) are kept. Layers come in pipeline order, churn
// last because it changes the world.
func ledger(o options, w *world, rep *report, rec *recorder) error {
	for name, s := range w.stages {
		rep.setDefault(name, s)
	}
	rep.setDefault("netgen.ifaces", float64(len(w.pipe.Internet.Ifaces)))
	rep.setDefault("probe.traces", float64(w.pipe.RawSkitter.Stats.Traces+w.pipe.RawMercator.Stats.Traces))
	if !rep.has("analysis.experiments_s") {
		t0 := time.Now()
		core.Digest(w.pipe)
		t1 := time.Now()
		rec.leaf(rec.id(), 0, "core.Digest", t0, t1)
		rep.set("analysis.experiments_s", t1.Sub(t0).Seconds())
	}
	if w.snap == nil {
		if err := w.serve(); err != nil {
			return err
		}
	}
	rep.setDefault("geoserve.compile_s", w.compile)
	ring := newLookupRing(w.snap, rng.New(o.seed).Split("perfbench-ledger"))
	if err := lookupLedger(w, ring, rep, rec); err != nil {
		return err
	}
	if err := readLedger(o, w, rep, rec); err != nil {
		return err
	}
	return churnLedger(o, w, rep, rec)
}

// lookupLedger times the raw index (Snapshot.Lookup) and the metered,
// routed path (Cluster.Lookup) on the same ring from one goroutine;
// metering and routing self time is the difference.
func lookupLedger(w *world, ring *lookupRing, rep *report, rec *recorder) error {
	const passes, reps = 8, 5
	type target struct {
		metric string
		lookup func(m int, ip uint32) geoserve.Answer
	}
	for _, t := range []target{
		{"geoserve.snapshot_lookup_ns", w.snap.Lookup},
		{"geoserve.cluster_lookup_ns", w.cluster.Lookup},
	} {
		trace := rec.id()
		var per []float64
		for r := 0; r < reps; r++ {
			var bad int64
			t0 := time.Now()
			for p := 0; p < passes; p++ {
				for i, ip := range ring.ips {
					if t.lookup(ring.mappers[i], ip) != ring.want[i] {
						bad++
					}
				}
			}
			t1 := time.Now()
			rec.leaf(trace, 0, t.metric, t0, t1)
			per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(passes*ringSize))
			rep.count(passes*ringSize, bad, bad)
		}
		rep.set(t.metric, median(per))
	}
	found := 0
	for _, a := range ring.want {
		if a.Found {
			found++
		}
	}
	rep.setDefault("geoserve.found_ratio", float64(found)/ringSize)
	return nil
}

// churnLedger reports the churn rows. A workload without a fleet of
// its own gets one started on its world, which then applies
// ledgerSteps steps back to back with no reads beside them.
func churnLedger(o options, w *world, rep *report, rec *recorder) error {
	f := w.fleet
	if f == nil {
		var err error
		if f, err = startFleet(w, o.seed); err != nil {
			return err
		}
		defer f.close()
	}
	if !rep.has("churn.next_ms") {
		before := f.counters()
		steps := make([]stepTimes, 0, ledgerSteps)
		for k := 0; k < ledgerSteps; k++ {
			st, err := f.step(context.Background(), time.Now(), rec)
			if err != nil {
				return fmt.Errorf("churn step %d of %d: %w", k+1, ledgerSteps, err)
			}
			steps = append(steps, st)
		}
		rep.count(ledgerSteps, 0, 0)
		reportSteps(rep, steps, before, f.counters())
	}
	return f.ledger(o, rep, rec)
}
