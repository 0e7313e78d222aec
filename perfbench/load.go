package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

const (
	// serveScale is the world the serving workloads build.
	serveScale = 0.1
	// conns is the number of generator goroutines, each with its own
	// keep-alive connection: one per CPU of the 2-core machine the
	// benchmark was sized on, so the generator never outnumbers the
	// cores the service has.
	conns = 2
	// binBatch is the number of addresses in one /v1/locate/bin request.
	binBatch = 64
	// zipfTheta skews requests toward popular /24 prefixes.
	zipfTheta = 1.2
	// refRate is serve_read's reference request rate (requests/s, both
	// classes), at which its latency is reported: about a third of the
	// 2-core knee. Well below it the service idles between requests and
	// the round trip is dominated by how fast the VM wakes an idle CPU,
	// which drifts by a third from minute to minute on a shared host.
	refRate = 9000
	// churnRate is serve_churn's read rate. A read through the router
	// crosses two servers instead of one and the builder takes about
	// half a core, so this keeps the 2-core machine about half busy; at
	// 2500/s a slow minute of a shared host saturates it and the read
	// latency of the whole run grows fivefold.
	churnRate = 1500
)

// request is one generated read: a single JSON lookup or a binary
// batch, due at an offset from its phase's start.
type request struct {
	bin    bool
	mapper int
	ips    []uint32
	due    time.Duration
	path   string // JSON: the GET path and query
	body   []byte // bin: the POST body
}

// readMix draws the serving workloads' reads: /24 prefixes by rank-Zipf
// over a seeded permutation of the snapshot's prefixes (so popularity
// is unrelated to address order), a uniform host byte, and a uniform
// mapper; half of each phase's requests are 64-address binary batches.
type readMix struct {
	r        *rng.Stream
	zipf     func() int
	prefixes []uint32
	mappers  []string
}

func newReadMix(snap *geoserve.Snapshot, seed int64) *readMix {
	r := rng.New(seed).Split("perfbench-reads")
	prefixes := snap.Prefixes()
	r.Shuffle(len(prefixes), func(i, j int) { prefixes[i], prefixes[j] = prefixes[j], prefixes[i] })
	return &readMix{r: r, zipf: r.Zipf(zipfTheta, len(prefixes)), prefixes: prefixes, mappers: snap.Mappers()}
}

func (m *readMix) addr() uint32 {
	return m.prefixes[m.zipf()-1] | uint32(m.r.Intn(256))
}

// phase returns n requests due at a constant rate, exactly half of
// them binary batches in a seeded order.
func (m *readMix) phase(n int, rate float64) []request {
	reqs := make([]request, n)
	for i := 0; i < n/2; i++ {
		reqs[i].bin = true
	}
	m.r.Shuffle(n, func(i, j int) { reqs[i].bin, reqs[j].bin = reqs[j].bin, reqs[i].bin })
	for i := range reqs {
		rq := &reqs[i]
		rq.due = time.Duration(float64(i) / rate * float64(time.Second))
		rq.mapper = m.r.Intn(len(m.mappers))
		if rq.bin {
			rq.ips = make([]uint32, binBatch)
			for j := range rq.ips {
				rq.ips[j] = m.addr()
			}
			rq.body = geoserve.AppendWireBatchRequest(nil, uint16(rq.mapper), rq.ips)
		} else {
			rq.ips = []uint32{m.addr()}
			rq.path = "/v1/locate?ip=" + geoserve.FormatIPv4(rq.ips[0]) + "&mapper=" + m.mappers[rq.mapper]
		}
	}
	return reqs
}

// status is how one request ended.
type status uint8

const (
	statusOK status = iota
	statusFailed
	statusWrong
)

// outcome is one request's timing: sent is when it left the generator,
// done when its response was read, both against its due time.
type outcome struct {
	late, latency time.Duration
	st            status
}

// sendFunc issues one request on connection conn and returns when its
// response has been read (done) and how it ended. Checking the answer
// happens after done is taken. Spans of the call go under sc.
type sendFunc func(conn int, rq *request, sc spanCtx) (done time.Time, st status)

// spanCtx places spans under one request's root span; the zero value
// records nothing.
type spanCtx struct {
	rec           *recorder
	trace, parent uint64
}

func (c spanCtx) leaf(name string, start, end time.Time) {
	c.rec.leaf(c.trace, c.parent, name, start, end)
}

// openLoop sends reqs on their schedule from start over nconn
// connections. A request that falls due while every connection is busy
// waits for one, and its latency is counted from its due time, so a
// stall inflates every request that fell due during it.
func openLoop(reqs []request, start time.Time, nconn int, send sendFunc, rec *recorder) ([]outcome, error) {
	out := make([]outcome, len(reqs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, nconn)
	)
	for c := 0; c < nconn; c++ {
		sl, err := newSleeper()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(c int, sl *sleeper) {
			defer wg.Done()
			defer sl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				if err := sl.until(due); err != nil {
					errs[c] = err
					return
				}
				trace, root := rec.id(), rec.id()
				sent := time.Now()
				done, st := send(c, &reqs[i], spanCtx{rec, trace, root})
				end := time.Now()
				rec.leaf(trace, root, "gen.wait", due, sent)
				rec.add(trace, root, 0, "request", due, end)
				out[i] = outcome{late: sent.Sub(due), latency: done.Sub(due), st: st}
			}
		}(c, sl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classStats is a phase's outcomes: per-class latencies in ms from due
// time (failures as +Inf), how late each request was sent (ms, in
// due-time order), and per-class counts.
type classStats struct {
	jsonMs, binMs, lateMs []float64
	jsonN, binN           [3]int64 // sent, ok, failed (failed includes wrong)
	failed, wrong         int64
}

func summarize(reqs []request, outs []outcome) classStats {
	var cs classStats
	for i, o := range outs {
		ms := durMs(o.latency)
		n := &cs.jsonN
		if reqs[i].bin {
			n = &cs.binN
		}
		n[0]++
		switch o.st {
		case statusOK:
			n[1]++
		case statusWrong:
			cs.wrong++
			fallthrough
		default:
			n[2]++
			cs.failed++
			ms = math.Inf(1)
		}
		if reqs[i].bin {
			cs.binMs = append(cs.binMs, ms)
		} else {
			cs.jsonMs = append(cs.jsonMs, ms)
		}
		cs.lateMs = append(cs.lateMs, durMs(o.late))
	}
	return cs
}

// epochs resolves which snapshot answered a response, from the
// X-Geo-Epoch header of a JSON answer or the epoch tag of a binary
// frame. It retains the last few epochs only; an answer from an epoch
// it no longer holds cannot be checked and counts as wrong.
type epochs struct {
	mu      sync.RWMutex
	byEpoch map[uint64]*geoserve.Snapshot
	byTag   map[uint64]*geoserve.Snapshot
	order   []uint64
	// single answers headerless JSON (the cluster handler serves one
	// epoch and does not name it).
	single *geoserve.Snapshot
}

const keepEpochs = 8

func newEpochs() *epochs {
	return &epochs{byEpoch: map[uint64]*geoserve.Snapshot{}, byTag: map[uint64]*geoserve.Snapshot{}}
}

func (e *epochs) add(epoch uint64, s *geoserve.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byEpoch[epoch]; ok {
		return
	}
	e.byEpoch[epoch] = s
	e.byTag[epochTag(s)] = s
	e.order = append(e.order, epoch)
	if len(e.order) > keepEpochs {
		old := e.byEpoch[e.order[0]]
		delete(e.byEpoch, e.order[0])
		delete(e.byTag, epochTag(old))
		e.order = e.order[1:]
	}
}

func (e *epochs) forHeader(h string) *geoserve.Snapshot {
	if h == "" {
		return e.single
	}
	n, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.byEpoch[n]
}

func (e *epochs) forTag(tag uint64) *geoserve.Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.byTag[tag]
}

// epochTag is the 8-byte epoch tag the wire protocol frames every
// answer with: the first 8 bytes of the snapshot's content digest.
func epochTag(s *geoserve.Snapshot) uint64 {
	raw, err := hex.DecodeString(s.Digest()[:16])
	if err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(raw)
}

// httpTarget sends requests to one base URL, one keep-alive connection
// per generator goroutine, and checks every answer against
// Snapshot.Lookup of the epoch that answered it.
type httpTarget struct {
	base    string
	clients []*http.Client
	bufs    []*bytes.Buffer
	answers [][]geoserve.Answer // per connection, reused to decode
	epochs  *epochs
	mappers []string
}

func newHTTPTarget(base string, n int, ep *epochs, mappers []string) *httpTarget {
	t := &httpTarget{base: base, epochs: ep, mappers: mappers}
	for i := 0; i < n; i++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
		t.bufs = append(t.bufs, &bytes.Buffer{})
		t.answers = append(t.answers, make([]geoserve.Answer, 0, binBatch))
	}
	return t
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// send implements sendFunc.
func (t *httpTarget) send(conn int, rq *request, sc spanCtx) (time.Time, status) {
	sent := time.Now()
	req, err := httpRequest(t.base, rq)
	if err != nil {
		return time.Now(), statusFailed
	}
	buf := t.bufs[conn]
	buf.Reset()
	resp, err := t.clients[conn].Do(req)
	if err != nil {
		return time.Now(), statusFailed
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	sc.leaf("http.roundtrip", sent, done)
	if err != nil || resp.StatusCode != http.StatusOK {
		return done, statusFailed
	}
	st := t.check(conn, rq, resp.Header.Get("X-Geo-Epoch"), buf.Bytes())
	sc.leaf("gen.check", done, time.Now())
	return done, st
}

// httpRequest builds rq's request to base; base is empty for a handler
// called directly.
func httpRequest(base string, rq *request) (*http.Request, error) {
	if !rq.bin {
		return http.NewRequest("GET", base+rq.path, nil)
	}
	req, err := http.NewRequest("POST", base+"/v1/locate/bin", bytes.NewReader(rq.body))
	if err == nil {
		req.Header.Set("Content-Type", geoserve.WireContentType)
	}
	return req, err
}

// check compares a response body with the answering epoch's own
// Snapshot.Lookup.
func (t *httpTarget) check(conn int, rq *request, epochHeader string, body []byte) status {
	if !rq.bin {
		snap := t.epochs.forHeader(epochHeader)
		if snap == nil {
			return statusWrong
		}
		want := geoserve.MarshalAnswerJSON(snap.Lookup(rq.mapper, rq.ips[0]), t.mappers[rq.mapper])
		if !bytes.Equal(body, want) {
			return statusWrong
		}
		return statusOK
	}
	rd := bytes.NewReader(body)
	wr, err := geoserve.NewWireReader(rd)
	if err != nil || int(wr.Mapper()) != rq.mapper {
		return statusWrong
	}
	answers, tag, err := wr.Next(t.answers[conn][:0])
	t.answers[conn] = answers
	if err != nil || len(answers) != len(rq.ips) || rd.Len() != 0 {
		return statusWrong
	}
	snap := t.epochs.forTag(tag)
	if snap == nil {
		return statusWrong
	}
	for i, a := range answers {
		if a != snap.Lookup(rq.mapper, rq.ips[i]) {
			return statusWrong
		}
	}
	return statusOK
}

// server serves a handler on a loopback port until close.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + l.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once close runs; any other
		// accept error shows as failed requests.
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// closedLoop sends reqs over nconn connections back to back, each
// connection sending its next request as soon as its last answer is
// read, until the requests run out or d has passed. It returns the
// outcomes of the first n requests, which are all that were sent; a
// latency is the request's round trip.
func closedLoop(reqs []request, nconn int, send sendFunc, d time.Duration) (outs []outcome, n int) {
	outs = make([]outcome, len(reqs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		stop = time.Now().Add(d)
	)
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				sent := time.Now()
				done, st := send(c, &reqs[i], spanCtx{})
				outs[i] = outcome{latency: done.Sub(sent), st: st}
			}
		}(c)
	}
	wg.Wait()
	n = min(int(next.Load()), len(reqs))
	return outs[:n], n
}
