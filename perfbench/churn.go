package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"geonet/internal/churn"
	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/replica"
	"geonet/internal/geoserve/snapfile"
)

const (
	// churnSteps is how many churn steps one run applies, spread evenly
	// over its seconds: enough that fresh_p90_ms has minTail steps
	// beyond it.
	churnSteps = 100
	// churnEvents is the number of topology events per step.
	churnEvents = 8
	// fleetReplicas replicas with replicaShards shards each serve the
	// reads behind the router.
	fleetReplicas = 2
	replicaShards = 2
)

// fleet is the serving_churn system: a builder (the world's pipeline
// and cluster, a churner, a publisher) and the replicas and router that
// serve reads. Each step moves the world to the new epoch.
type fleet struct {
	w        *world
	base     *geoserve.Snapshot // the epoch the fleet started from
	churner  *churn.Churner
	pub      *replica.Publisher
	replicas []*replica.Replica
	router   *replica.Router
	servers  []*server
	routerAt string
	client   *http.Client
	epochs   *epochs
}

func setupServeChurn(o options) (*bench, error) {
	w, err := buildServingWorld()
	if err != nil {
		return nil, err
	}
	f, err := startFleet(w, o.seed)
	if err != nil {
		return nil, err
	}
	w.fleet = f
	reads := newHTTPTarget(f.routerAt, conns, f.epochs, f.base.Mappers())
	return &bench{
		measure: func(rep *report, rec *recorder) error {
			return f.measure(o, reads, rep, rec)
		},
		world: func() *world { return w },
		close: func() {
			reads.close()
			f.close()
		},
	}, nil
}

// startFleet publishes the world's current epoch and brings both
// replicas and the router up to it.
func startFleet(w *world, churnSeed int64) (f *fleet, err error) {
	ctx := context.Background()
	f = &fleet{
		w:      w,
		base:   w.snap,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		epochs: newEpochs(),
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.churner, err = w.pipe.Churner(core.ServeOptions{}, churnSeed); err != nil {
		return nil, err
	}
	f.pub = replica.NewPublisher()
	m, err := f.pub.Publish(f.base)
	if err != nil {
		return nil, err
	}
	f.epochs.add(m.Epoch, f.base)
	builder, err := serve(f.pub.Handler())
	if err != nil {
		return nil, err
	}
	f.servers = append(f.servers, builder)
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		r := replica.New(replica.Config{BuilderURL: builder.url, Client: f.client, Shards: replicaShards, Seed: int64(i + 1)})
		if _, err := r.SyncOnce(ctx); err != nil {
			return nil, fmt.Errorf("replica %d first sync: %w", i, err)
		}
		s, err := serve(r.Handler())
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, r)
		f.servers = append(f.servers, s)
		urls = append(urls, s.url)
	}
	f.router = replica.NewRouter(replica.RouterConfig{Replicas: urls, Client: f.client})
	rs, err := serve(f.router.Handler())
	if err != nil {
		return nil, err
	}
	f.servers = append(f.servers, rs)
	f.routerAt = rs.url
	f.router.ProbeOnce(ctx)
	if st := f.router.Status(); st.Epoch != m.Epoch || st.HealthyReplicas != fleetReplicas {
		return nil, fmt.Errorf("router plans epoch %d with %d healthy replicas, want epoch %d with %d",
			st.Epoch, st.HealthyReplicas, m.Epoch, fleetReplicas)
	}
	return f, nil
}

func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].close()
	}
	f.client.CloseIdleConnections()
}

// stepTimes is one churn step's cost per layer.
type stepTimes struct {
	next, compile, swap, publish time.Duration
	syncs                        []time.Duration
	fresh                        time.Duration
	recompiled, rows             int
}

// step applies one churn step on the builder, then drives the fleet to
// the new epoch directly: each replica's SyncOnce, then the router's
// ProbeOnce, so no poll timer sets the result. fresh runs from the
// step's due time until the router plans at the new epoch and every
// replica serves it.
func (f *fleet) step(ctx context.Context, due time.Time, rec *recorder) (stepTimes, error) {
	var st stepTimes
	trace, root := rec.id(), rec.id()
	t := time.Now()
	rec.leaf(trace, root, "builder.wait", due, t)
	lap := func(name string) time.Duration {
		now := time.Now()
		rec.leaf(trace, root, name, t, now)
		d := now.Sub(t)
		t = now
		return d
	}
	step, err := f.churner.Next(churnEvents)
	if err != nil {
		return st, fmt.Errorf("churn.Next: %w", err)
	}
	st.next = lap("churn.next")
	next, stats, err := f.w.pipe.ServeDelta(f.w.snap, step)
	if err != nil {
		return st, fmt.Errorf("ServeDelta: %w", err)
	}
	st.compile = lap("geoserve.compile_delta")
	st.recompiled, st.rows = stats.Recompiled, stats.Rows
	if _, _, err := f.w.cluster.SwapDelta(next, stats.Touched); err != nil {
		return st, fmt.Errorf("SwapDelta: %w", err)
	}
	st.swap = lap("geoserve.swap_delta")
	m, err := f.pub.Publish(next)
	if err != nil {
		return st, fmt.Errorf("Publish: %w", err)
	}
	f.epochs.add(m.Epoch, next)
	st.publish = lap("replica.publish")
	for i, r := range f.replicas {
		if _, err := r.SyncOnce(ctx); err != nil {
			return st, fmt.Errorf("replica %d SyncOnce: %w", i, err)
		}
		st.syncs = append(st.syncs, lap("replica.sync"))
	}
	f.router.ProbeOnce(ctx)
	lap("router.probe")
	rec.add(trace, root, 0, "churn.step", due, t)
	st.fresh = t.Sub(due)
	f.w.snap = next
	rs := f.router.Status()
	if rs.Epoch != m.Epoch || rs.HealthyReplicas != fleetReplicas {
		return st, fmt.Errorf("step %d: router plans epoch %d with %d healthy replicas, want epoch %d",
			step.N, rs.Epoch, rs.HealthyReplicas, m.Epoch)
	}
	for i, r := range f.replicas {
		if r.Epoch() != m.Epoch {
			return st, fmt.Errorf("step %d: replica %d serves epoch %d, want %d", step.N, i, r.Epoch(), m.Epoch)
		}
	}
	return st, nil
}

type fleetCounters struct{ swaps, deltaSyncs, retries, sheds uint64 }

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, r := range f.replicas {
		st := r.Status()
		c.swaps += st.Swaps
		c.deltaSyncs += st.DeltaSyncs
	}
	rs := f.router.Status()
	c.retries, c.sheds = rs.Retries, rs.Sheds
	return c
}

// churnPhase sends reqs through the router on their schedule while
// the builder applies n churn steps, one every interval, each falling
// due mid-interval so the first is not simultaneous with the first
// read.
func (f *fleet) churnPhase(reqs []request, n int, interval time.Duration, reads *httpTarget, rec *recorder) ([]outcome, []stepTimes, error) {
	start := time.Now().Add(10 * time.Millisecond)
	var (
		steps   []stepTimes
		stepErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sl, err := newSleeper()
		if err != nil {
			stepErr = err
			return
		}
		defer sl.close()
		for k := 0; k < n; k++ {
			due := start.Add(interval/2 + time.Duration(k)*interval)
			if err := sl.until(due); err != nil {
				stepErr = err
				return
			}
			st, err := f.step(context.Background(), due, rec)
			if err != nil {
				stepErr = err
				return
			}
			steps = append(steps, st)
		}
	}()
	outs, err := openLoop(reqs, start, conns, reads.send, rec)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if stepErr != nil {
		return nil, nil, fmt.Errorf("churn step %d of %d: %w", len(steps)+1, n, stepErr)
	}
	return outs, steps, nil
}

// measure sends the read mix at churnRate through the router for the
// run's seconds while the builder applies churnSteps steps on a fixed
// schedule. A warm-up second of reads and steps comes first, so the
// first timed steps do not pay for the set-up's garbage or the fleet's
// first delta syncs; its answers are checked but not timed.
func (f *fleet) measure(o options, reads *httpTarget, rep *report, rec *recorder) error {
	window := time.Duration(o.seconds) * time.Second
	interval := window / churnSteps
	mix := newReadMix(f.base, o.seed)
	warm := mix.phase(churnRate, churnRate)
	outs, _, err := f.churnPhase(warm, int(time.Second/interval), interval, reads, nil)
	if err != nil {
		return err
	}
	cs := summarize(warm, outs)
	rep.count(int64(len(warm)), cs.failed, cs.wrong)

	reqs := mix.phase(int(churnRate*window.Seconds()), churnRate)
	before := f.counters()
	outs, steps, err := f.churnPhase(reqs, churnSteps, interval, reads, rec)
	if err != nil {
		return err
	}
	cs = summarize(reqs, outs)
	rep.count(int64(len(reqs))+churnSteps, cs.failed, cs.wrong)
	if err := reportReads(rep, cs); err != nil {
		return err
	}
	rep.set("error_ratio", wilsonUpper(cs.failed, int64(len(reqs))+churnSteps))
	reportSteps(rep, steps, before, f.counters())
	var fresh []float64
	for _, st := range steps {
		fresh = append(fresh, durMs(st.fresh))
	}
	if err := rep.setPercentile("fresh_p50_ms", fresh, 50); err != nil {
		return err
	}
	if err := rep.setPercentile("fresh_p90_ms", fresh, 90); err != nil {
		return err
	}
	rep.set("op_ms", rep.values["fresh_p50_ms"])
	return nil
}

// reportSteps sets the churn rows from the steps a fleet applied
// between two readings of its counters.
func reportSteps(rep *report, steps []stepTimes, before, after fleetCounters) {
	var (
		next, compile, swap, publish, syncs []float64
		recompiled, rows                    int
	)
	for _, st := range steps {
		next = append(next, durMs(st.next))
		compile = append(compile, durMs(st.compile))
		swap = append(swap, durMs(st.swap))
		publish = append(publish, durMs(st.publish))
		for _, d := range st.syncs {
			syncs = append(syncs, durMs(d))
		}
		recompiled += st.recompiled
		rows += st.rows
	}
	rep.set("churn.next_ms", median(next))
	rep.set("geoserve.compile_delta_ms", median(compile))
	rep.set("geoserve.dirty_ratio", float64(recompiled)/float64(rows))
	rep.set("geoserve.swap_delta_ms", median(swap))
	rep.set("replica.publish_ms", median(publish))
	rep.set("replica.sync_ms", median(syncs))
	rep.set("replica.delta_sync_ratio", float64(after.deltaSyncs-before.deltaSyncs)/float64(after.swaps-before.swaps))
	rep.set("router.retries", float64(after.retries-before.retries))
	rep.set("router.sheds", float64(after.sheds-before.sheds))
	fmt.Printf("churn: %d steps, next %.2f ms, compile %.2f ms, publish %.2f ms, sync %.2f ms\n",
		len(steps), median(next), median(compile), median(publish), median(syncs))
}

// ledger replays the run's churn stream from the starting epoch to time
// snapfile.Diff and Apply on every step's (prev, next) pair, then times
// the router hop: the same reads sent through the router and directly
// to a replica, one at a time.
func (f *fleet) ledger(o options, rep *report, rec *recorder) error {
	ch, err := f.w.pipe.Churner(core.ServeOptions{}, o.seed)
	if err != nil {
		return err
	}
	trace := rec.id()
	var diffMs, applyMs []float64
	prev := f.base
	for k := 0; k < churnSteps; k++ {
		step, err := ch.Next(churnEvents)
		if err != nil {
			return err
		}
		next, _, err := f.w.pipe.ServeDelta(prev, step)
		if err != nil {
			return err
		}
		t0 := time.Now()
		delta, err := snapfile.Diff(prev, next, uint64(k+1), uint64(k+2))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("snapfile.Diff: %w", err)
		}
		got, _, err := snapfile.Apply(prev, delta)
		t2 := time.Now()
		rep.count(1, 0, 0)
		if err != nil || got.Digest() != next.Digest() {
			rep.count(0, 1, 1)
		}
		rec.leaf(trace, 0, "snapfile.diff", t0, t1)
		rec.leaf(trace, 0, "snapfile.apply", t1, t2)
		diffMs = append(diffMs, durMs(t1.Sub(t0)))
		applyMs = append(applyMs, durMs(t2.Sub(t1)))
		prev = next
	}
	rep.set("snapfile.diff_ms", median(diffMs))
	rep.set("snapfile.apply_ms", median(applyMs))

	const n = 2000
	reqs := newReadMix(f.base, o.seed).phase(n, churnRate)
	reads := newHTTPTarget(f.routerAt, 1, f.epochs, f.base.Mappers())
	defer reads.close()
	direct := newHTTPTarget(f.servers[1].url, 1, f.epochs, f.base.Mappers()) // the first replica; servers[0] is the builder
	defer direct.close()
	t0 := time.Now()
	var hopUs []float64
	for i := range reqs {
		s := time.Now()
		viaRouter, st1 := reads.send(0, &reqs[i], spanCtx{})
		s2 := time.Now()
		viaReplica, st2 := direct.send(0, &reqs[i], spanCtx{})
		rep.count(2, b2i(st1 != statusOK)+b2i(st2 != statusOK), b2i(st1 == statusWrong)+b2i(st2 == statusWrong))
		hopUs = append(hopUs, float64(viaRouter.Sub(s).Nanoseconds()-viaReplica.Sub(s2).Nanoseconds())/1e3)
	}
	rec.leaf(trace, 0, "ledger.router_hop", t0, time.Now())
	rep.set("router.hop_us", median(hopUs))
	fmt.Printf("ledger: diff %.2f ms, apply %.2f ms, router hop %.1f us\n", median(diffMs), median(applyMs), median(hopUs))
	return nil
}
