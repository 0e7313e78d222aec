package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"geonet/internal/geoserve"
)

const (
	// ladderBase, ladderStep and ladderRungs fix the rate ladder
	// (requests/s): 7% geometric steps from well under the 2-core knee
	// (22-33k/s) to well over it, so a faster server still finds its
	// limit inside the ladder.
	ladderBase  = 12000
	ladderStep  = 1.07
	ladderRungs = 18
	// ladderSweeps is how many times the ladder is climbed; a rate
	// passes when any of its attempts passes.
	ladderSweeps = 2
	// rungSeconds is how long each attempt's schedule lasts: at the
	// lowest rate, 1800 requests per class, so each class's p99 has
	// more than minTail samples beyond it.
	rungSeconds = 0.3
	// warmSeconds of reads precede the reference phase.
	warmSeconds = 1
	// closedSeconds is how long the closed-loop phase lasts, and
	// closedRequests how many requests it has at most: more than 2
	// connections send in that time on a 2-core machine.
	closedSeconds  = 4
	closedRequests = 160000
	// minRefSeconds is the shortest reference phase whose windows
	// still carry a p99 at refRate.
	minRefSeconds = 4
	// refWindows splits the reference phase; its percentiles are the
	// median over the windows.
	refWindows = 9
)

func ladderRates() []float64 {
	rates := make([]float64, ladderRungs)
	for i := range rates {
		rates[i] = math.Round(ladderBase * math.Pow(ladderStep, float64(i)))
	}
	return rates
}

func setupServeRead(o options) (*bench, error) {
	w, err := buildServingWorld()
	if err != nil {
		return nil, err
	}
	srv, err := serve(geoserve.NewClusterHandler(w.cluster))
	if err != nil {
		return nil, err
	}
	target := newHTTPTarget(srv.url, conns, singleEpoch(w.snap), w.snap.Mappers())
	return &bench{
		measure: func(rep *report, rec *recorder) error {
			return measureServeRead(o, w.snap, target, rep, rec)
		},
		world: func() *world { return w },
		close: func() {
			target.close()
			srv.close()
		},
	}, nil
}

// singleEpoch checks the answers of a cluster handler serving snap: its
// JSON answers name no epoch, its binary frames carry snap's tag.
func singleEpoch(snap *geoserve.Snapshot) *epochs {
	ep := newEpochs()
	ep.single = snap
	ep.add(1, snap)
	return ep
}

// measureServeRead runs a warm-up second, the closed-loop phase that
// gives op_ms, the open-loop reference phase for whatever the ladder
// leaves of the run's seconds, then ladderSweeps climbs of the ladder.
func measureServeRead(o options, snap *geoserve.Snapshot, t *httpTarget, rep *report, rec *recorder) error {
	const ladderSeconds = ladderSweeps * ladderRungs * rungSeconds
	refSeconds := float64(o.seconds) - warmSeconds - closedSeconds - ladderSeconds
	if refSeconds < minRefSeconds {
		return fmt.Errorf("serve_read needs --seconds %.0f or more",
			math.Ceil(warmSeconds+closedSeconds+ladderSeconds+minRefSeconds))
	}
	mix := newReadMix(snap, o.seed)
	var attempted, failed int64
	run := func(reqs []request, rec *recorder) (classStats, error) {
		outs, err := openLoop(reqs, time.Now(), conns, t.send, rec)
		if err != nil {
			return classStats{}, err
		}
		cs := summarize(reqs, outs)
		attempted += int64(len(reqs))
		failed += cs.failed
		rep.count(int64(len(reqs)), cs.failed, cs.wrong)
		return cs, nil
	}
	// The warm-up opens the connections and fills the snapshot's lazily
	// built wire slabs and JSON tails, a cost a server pays once per
	// epoch; its answers are checked but not timed.
	if _, err := run(mix.phase(warmSeconds*refRate, refRate), nil); err != nil {
		return err
	}
	if err := measureClosed(mix, t, rep, rec); err != nil {
		return err
	}
	cs, err := run(mix.phase(int(refRate*refSeconds), refRate), rec)
	if err != nil {
		return err
	}
	if err := reportReads(rep, cs); err != nil {
		return err
	}
	rungs := make([]rungResult, ladderRungs)
	for sweep := 0; sweep < ladderSweeps; sweep++ {
		for i, rate := range ladderRates() {
			// Rungs record no spans: the ledger covers the reference phase.
			rs, err := run(mix.phase(int(rate*rungSeconds), rate), nil)
			if err != nil {
				return err
			}
			for k := range cs.jsonN {
				cs.jsonN[k] += rs.jsonN[k]
				cs.binN[k] += rs.binN[k]
			}
			rungs[i].rate = rate
			rungs[i].attempts = append(rungs[i].attempts, rs)
		}
	}
	for _, r := range rungs {
		if err := reportRung(rep, r); err != nil {
			return err
		}
	}
	rep.set("max_rate_rps", maxPassingRate(rungs))
	rep.set("error_ratio", wilsonUpper(failed, attempted))
	for i, what := range []string{"sent", "ok", "failed"} {
		rep.set("gen.json_"+what, float64(cs.jsonN[i]))
		rep.set("gen.bin_"+what, float64(cs.binN[i]))
	}
	return nil
}

// measureClosed runs the closed-loop phase: conns connections send the
// read mix back to back for closedSeconds. op_ms is the median round
// trip of a JSON lookup plus that of a 64-address bin batch, the time a
// client waits for one of each from a busy server. Unlike latency under
// open load, it does not hang on how fast the host wakes an idle CPU,
// so it is steady enough to gate.
func measureClosed(mix *readMix, t *httpTarget, rep *report, rec *recorder) error {
	reqs := mix.phase(closedRequests, refRate)
	trace := rec.id()
	t0 := time.Now()
	outs, n := closedLoop(reqs, conns, t.send, closedSeconds*time.Second)
	t1 := time.Now()
	rec.leaf(trace, 0, "serve_read.closed_loop", t0, t1)
	cs := summarize(reqs[:n], outs)
	rep.count(int64(n), cs.failed, cs.wrong)
	if len(cs.jsonMs) == 0 || len(cs.binMs) == 0 {
		return fmt.Errorf("closed loop sent %d requests", n)
	}
	jsonMs, binMs := median(cs.jsonMs), median(cs.binMs)
	rep.set("closed_json_p50_ms", jsonMs)
	rep.set("closed_bin_p50_ms", binMs)
	rep.samples["closed_json_p50_ms"], rep.samples["closed_bin_p50_ms"] = len(cs.jsonMs), len(cs.binMs)
	rep.set("op_ms", jsonMs+binMs)
	fmt.Printf("closed loop: %d requests in %.2f s (%.0f/s)\n", n, t1.Sub(t0).Seconds(), float64(n)/t1.Sub(t0).Seconds())
	return nil
}

// reportRung sets a rate's per-class p99, the lower of its attempts'.
func reportRung(rep *report, r rungResult) error {
	line := fmt.Sprintf("ladder %6.0f/s:", r.rate)
	for _, class := range []string{"json", "bin"} {
		name := rungMetric(r.rate, class)
		var p99s []float64
		for _, a := range r.attempts {
			xs := a.jsonMs
			if class == "bin" {
				xs = a.binMs
			}
			if err := rep.setPercentile(name, xs, 99); err != nil {
				return err
			}
			p99s = append(p99s, rep.values[name])
		}
		rep.set(name, slices.Min(p99s))
		line += fmt.Sprintf(" %s p99 %.3f ms,", class, p99s)
	}
	for _, a := range r.attempts {
		line += fmt.Sprintf(" %v", attemptPasses(a))
	}
	fmt.Println(line)
	return nil
}

// reportReads sets the latency metrics of one phase, each the median
// over refWindows windows.
func reportReads(rep *report, cs classStats) error {
	for _, m := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"json_p50_ms", cs.jsonMs, 50}, {"json_p99_ms", cs.jsonMs, 99},
		{"bin_p50_ms", cs.binMs, 50}, {"bin_p99_ms", cs.binMs, 99},
		{"gen.late_p99_ms", cs.lateMs, 99},
	} {
		v, per, err := windowed(m.xs, refWindows, m.p)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		rep.set(m.name, v)
		rep.samples[m.name] = len(m.xs) / refWindows
		fmt.Printf("%s per window: %.4f\n", m.name, per)
	}
	return nil
}

// memWriter is an in-memory http.ResponseWriter, so a handler can be
// timed without a socket.
type memWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *memWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// readLedger replays the read mix's first requests through each
// layer's public entry point in turn: Cluster.LookupBatch on the
// batches' addresses, a cluster handler's ServeHTTP with an in-memory
// writer, and the same requests over a loopback connection to that
// handler one at a time. The loopback row is each request's round trip
// minus its own handler time.
func readLedger(o options, w *world, rep *report, rec *recorder) error {
	const n = 4000
	snap, c := w.snap, w.cluster
	h := geoserve.NewClusterHandler(c)
	srv, err := serve(h)
	if err != nil {
		return err
	}
	defer srv.close()
	t := newHTTPTarget(srv.url, 1, singleEpoch(snap), snap.Mappers())
	defer t.close()
	reqs := newReadMix(snap, o.seed).phase(n, refRate)

	trace := rec.id()
	t0 := time.Now()
	var batchNs []float64
	out := make([]geoserve.Answer, binBatch)
	for i := range reqs {
		rq := &reqs[i]
		if !rq.bin {
			continue
		}
		s := time.Now()
		_, err := c.LookupBatch(rq.mapper, rq.ips, out)
		d := time.Since(s)
		bad := int64(0)
		if err != nil {
			bad = 1
		} else {
			for j, a := range out {
				if a != snap.Lookup(rq.mapper, rq.ips[j]) {
					bad = 1
				}
			}
		}
		rep.count(1, bad, bad)
		batchNs = append(batchNs, float64(d.Nanoseconds())/binBatch)
	}
	rec.leaf(trace, 0, "ledger.lookup_batch", t0, time.Now())
	rep.set("geoserve.lookup_batch_ns", median(batchNs))

	t0 = time.Now()
	handlerUs := make([]float64, len(reqs))
	var jsonUs, binUs []float64
	mw := &memWriter{h: http.Header{}}
	for i := range reqs {
		rq := &reqs[i]
		req, err := httpRequest("", rq)
		if err != nil {
			return err
		}
		mw.reset()
		s := time.Now()
		h.ServeHTTP(mw, req)
		d := time.Since(s)
		st := statusFailed
		if mw.code == http.StatusOK {
			st = t.check(0, rq, mw.h.Get("X-Geo-Epoch"), mw.body.Bytes())
		}
		rep.count(1, b2i(st != statusOK), b2i(st == statusWrong))
		handlerUs[i] = float64(d.Nanoseconds()) / 1e3
		if rq.bin {
			binUs = append(binUs, handlerUs[i])
		} else {
			jsonUs = append(jsonUs, handlerUs[i])
		}
	}
	rec.leaf(trace, 0, "ledger.handler", t0, time.Now())
	rep.set("geoserve.handler_json_us", median(jsonUs))
	rep.set("geoserve.handler_bin_us", median(binUs))

	t0 = time.Now()
	var loopUs []float64
	for i := range reqs {
		s := time.Now()
		done, st := t.send(0, &reqs[i], spanCtx{})
		rep.count(1, b2i(st != statusOK), b2i(st == statusWrong))
		loopUs = append(loopUs, float64(done.Sub(s).Nanoseconds())/1e3-handlerUs[i])
	}
	rec.leaf(trace, 0, "ledger.loopback", t0, time.Now())
	rep.set("net.loopback_us", median(loopUs))
	fmt.Printf("ledger: lookup_batch %.1f ns/addr, handler json %.1f us bin %.1f us, loopback %.1f us (n=%d)\n",
		median(batchNs), median(jsonUs), median(binUs), median(loopUs), len(reqs))
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
