package geoserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestMetricsExactUnderConcurrency races every metered serving path —
// Lookup, Locate, LookupBatch, HTTP GET /v1/locate and POST
// /v1/locate/bin — on a one-shard and a four-shard cluster, then
// checks that the striped counters lost nothing: /statusz lookups and
// every per-mapper method count equal the tallies computed from the
// snapshot itself. The latency histogram holds a sample: at least one
// and at most every lookup.
func TestMetricsExactUnderConcurrency(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	clusters := map[string]*Cluster{"shards1": oneShard(t, snap)}
	c4, err := NewCluster(snap, ClusterConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	clusters["shards4"] = c4
	handlers := map[string]http.Handler{}
	for target, c := range clusters {
		handlers[target] = newHandler(c, nil)
	}
	probes := probeAddrs(snap)

	const goroutines, rounds = 6, 4
	var (
		mu    sync.Mutex
		tally = map[string]MethodCounts{"shards1": {}, "shards4": {}}
		wg    sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[string]MethodCounts{"shards1": {}, "shards4": {}}
			count := func(m int, ip uint32) {
				_, code := snap.lookup(m, ip)
				name := snap.mappers[m]
				for target := range local {
					if local[target][name] == nil {
						local[target][name] = map[string]uint64{}
					}
					local[target][name][methodKey(code)]++
				}
			}
			out := make([]Answer, len(probes))
			for r := 0; r < rounds; r++ {
				m := (g + r) % len(snap.mappers)
				name := snap.mappers[m]
				for i, ip := range probes {
					switch (g + r + i) % 4 {
					case 0:
						for _, c := range clusters {
							c.Lookup(m, ip)
						}
					case 1:
						for _, c := range clusters {
							c.Locate(name, ip)
						}
					default:
						for target, h := range handlers {
							w := httptest.NewRecorder()
							h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/locate?ip="+FormatIPv4(ip)+"&mapper="+name, nil))
							if w.Code != http.StatusOK {
								t.Errorf("%s GET /v1/locate: %d", target, w.Code)
							}
						}
					}
					count(m, ip)
				}
				for _, c := range clusters {
					if _, err := c.LookupBatch(m, probes, out); err != nil {
						t.Error(err)
					}
				}
				for target, h := range handlers {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin",
						bytes.NewReader(AppendWireBatchRequest(nil, uint16(m), probes))))
					if w.Code != http.StatusOK {
						t.Errorf("%s POST /v1/locate/bin: %d", target, w.Code)
					}
				}
				for _, ip := range probes {
					count(m, ip) // LookupBatch
					count(m, ip) // bin
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for target, byMapper := range local {
				for name, counts := range byMapper {
					if tally[target][name] == nil {
						tally[target][name] = map[string]uint64{}
					}
					for k, n := range counts {
						tally[target][name][k] += n
					}
				}
			}
		}()
	}
	wg.Wait()

	histCount := map[string]uint64{}
	for target, c := range clusters {
		for _, sh := range c.shards {
			histCount[target] += sh.st.m.lat.Count()
		}
	}
	for target, h := range handlers {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
		var st struct {
			Lookups      uint64       `json:"lookups"`
			LatencyP50Ns int64        `json:"latency_p50_ns"`
			Methods      MethodCounts `json:"methods"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("%s statusz: %v", target, err)
		}
		var want uint64
		for _, counts := range tally[target] {
			for _, n := range counts {
				want += n
			}
		}
		if st.Lookups != want {
			t.Errorf("%s: statusz lookups %d, want %d", target, st.Lookups, want)
		}
		if got, want := fmt.Sprint(st.Methods), fmt.Sprint(tally[target]); got != want {
			t.Errorf("%s: method counts\n got %s\nwant %s", target, got, want)
		}
		if n := histCount[target]; n < 1 || n > want {
			t.Errorf("%s: histogram holds %d observations, want within [1, %d]", target, n, want)
		}
		if st.LatencyP50Ns <= 0 {
			t.Errorf("%s: p50 %d, want > 0", target, st.LatencyP50Ns)
		}
	}
}

// TestWindowQPSFromCounter drives windowQPS with a hand-set clock: the
// first read reports the lifetime rate, the next reads the exact count
// between two reads over the time between them, and a read sooner than
// qpsMinWindow after the last reuses its rate. Lookups under mapper
// indexes past the attributed rows still count toward the total.
func TestWindowQPSFromCounter(t *testing.T) {
	m := &metrics{}
	start := time.Unix(1000, 0)
	lookups := func(n int) {
		for i := 0; i < n; i++ {
			m.record(i%6-1, methodFeed, uint32(i)*2654435761, time.Time{})
		}
	}

	lookups(40)
	if got := m.windowQPS(start.Add(4*time.Second), start); got != 10 {
		t.Fatalf("first read: %v qps, want the lifetime rate 10", got)
	}
	lookups(600)
	if got := m.windowQPS(start.Add(6*time.Second), start); got != 300 {
		t.Fatalf("600 lookups over 2s: %v qps, want 300", got)
	}
	lookups(7)
	if got := m.windowQPS(start.Add(6*time.Second+100*time.Millisecond), start); got != 300 {
		t.Fatalf("read 100ms after the last: %v qps, want its rate 300", got)
	}
	if got := m.windowQPS(start.Add(8*time.Second), start); got != 3.5 {
		t.Fatalf("7 lookups over 2s: %v qps, want 3.5", got)
	}
	if got := m.total(); got != 647 {
		t.Fatalf("total %d, want 647", got)
	}
}
