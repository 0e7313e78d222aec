package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
)

// TestStallInflatesLaterRequests pins the open-loop timing rule: a
// handler that stalls once delays every request that falls due during
// the stall, and each of those is timed from its due time, not from
// when the generator finally sent it.
func TestStallInflatesLaterRequests(t *testing.T) {
	const (
		stallAt = 5
		stall   = 50 * time.Millisecond
		every   = time.Millisecond
	)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := srv.Client()
	send := func(int, *request, spanCtx) (time.Time, status) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return time.Now(), statusFailed
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return time.Now(), statusOK
	}
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * every
	}
	outs, err := openLoop(reqs, time.Now(), 1, send, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := stallAt + 1; i < stallAt+20; i++ {
		o := outs[i]
		due := time.Duration(i) * every
		// The stall ends no earlier than stallAt's due time plus the
		// stall; request i waited for it.
		if want := time.Duration(stallAt)*every + stall - due; o.latency < want {
			t.Errorf("request %d due during the stall: latency %v, want at least %v", i, o.latency, want)
		}
		if o.late < o.latency/2 {
			t.Errorf("request %d: sent %v late of %v latency; the wait should dominate", i, o.late, o.latency)
		}
	}
	if first := outs[0].latency; first > stall/2 {
		t.Errorf("request before the stall took %v", first)
	}
}

// TestCheckCatchesWrongAnswers runs the answer check on real responses
// of the cluster handler, then on the same responses with one byte
// changed.
func TestCheckCatchesWrongAnswers(t *testing.T) {
	p, err := core.Run(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Serve()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: clusterShards})
	if err != nil {
		t.Fatal(err)
	}
	h := geoserve.NewClusterHandler(cluster)
	ep := newEpochs()
	ep.single = snap
	ep.add(1, snap)
	target := newHTTPTarget("", 1, ep, snap.Mappers())
	reqs := newReadMix(snap, 7).phase(40, 1000)
	w := &memWriter{h: http.Header{}}
	for i := range reqs {
		rq := &reqs[i]
		var req *http.Request
		if rq.bin {
			req = httptest.NewRequest("POST", "/v1/locate/bin", bytes.NewReader(rq.body))
		} else {
			req = httptest.NewRequest("GET", rq.path, nil)
		}
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.code, w.body.String())
		}
		body := w.body.Bytes()
		if st := target.check(0, rq, "", body); st != statusOK {
			t.Errorf("request %d (bin %v): correct answer judged %v", i, rq.bin, st)
		}
		bad := bytes.Clone(body)
		bad[len(bad)-3] ^= 0x01 // inside the last answer's record or JSON
		if st := target.check(0, rq, "", bad); st != statusWrong {
			t.Errorf("request %d (bin %v): altered answer judged %v", i, rq.bin, st)
		}
	}
}

// TestClosedLoopSendsEveryDrawnRequest pins the closed-loop rule: it
// stops at the deadline, reports exactly the requests it sent, and
// times each from its own send, so one slow request does not inflate
// the next.
func TestClosedLoopSendsEveryDrawnRequest(t *testing.T) {
	const slow = 20 * time.Millisecond
	var sent atomic.Int64
	send := func(_ int, rq *request, _ spanCtx) (time.Time, status) {
		sent.Add(1)
		d := time.Millisecond
		if rq.bin {
			d = slow
		}
		time.Sleep(d)
		return time.Now(), statusOK
	}
	reqs := make([]request, 1000)
	reqs[0].bin = true
	outs, n := closedLoop(reqs, 1, send, 50*time.Millisecond)
	if n != int(sent.Load()) || len(outs) != n || n == 0 || n == len(reqs) {
		t.Fatalf("closed loop reported %d requests (%d outcomes), sent %d of %d", n, len(outs), sent.Load(), len(reqs))
	}
	if outs[0].latency < slow {
		t.Errorf("slow request took %v, want at least %v", outs[0].latency, slow)
	}
	if outs[1].latency > slow/2 {
		t.Errorf("request after the slow one took %v; its wait counts in a closed loop only from its send", outs[1].latency)
	}
}
