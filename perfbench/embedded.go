package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

const (
	// clusterShards is the shard count of the cluster every serving
	// workload builds.
	clusterShards = 4
	// ringSize addresses per goroutine are cycled through; each has its
	// expected answer precomputed from Snapshot.Lookup.
	ringSize = 1 << 16
	// chunk lookups run between clock reads.
	chunk = 4096
)

// lookupRing is one goroutine's seeded address mix: a third exact
// interface addresses, a third uniform addresses inside allocated /24s,
// a third guaranteed misses (class E space, never allocated), each
// under a uniformly drawn mapper.
type lookupRing struct {
	mappers []int
	ips     []uint32
	want    []geoserve.Answer
}

func newLookupRing(snap *geoserve.Snapshot, r *rng.Stream) *lookupRing {
	exact, prefixes := snap.ExactIPs(), snap.Prefixes()
	nm := len(snap.Mappers())
	ring := &lookupRing{
		mappers: make([]int, ringSize),
		ips:     make([]uint32, ringSize),
		want:    make([]geoserve.Answer, ringSize),
	}
	for i := range ring.ips {
		var ip uint32
		switch r.Intn(3) {
		case 0:
			ip = exact[r.Intn(len(exact))]
		case 1:
			ip = prefixes[r.Intn(len(prefixes))] | uint32(r.Intn(256))
		default:
			ip = 0xF0000000 | uint32(r.Int63n(1<<28))
		}
		m := r.Intn(nm)
		ring.mappers[i], ring.ips[i] = m, ip
		ring.want[i] = snap.Lookup(m, ip)
	}
	return ring
}

func setupEmbedded(o options) (*bench, error) {
	w, err := buildServingWorld()
	if err != nil {
		return nil, err
	}
	r := rng.New(o.seed).Split("perfbench-embedded")
	rings := make([]*lookupRing, conns)
	for g := range rings {
		rings[g] = newLookupRing(w.snap, r.SplitN("ring", g))
	}
	return &bench{
		measure: func(rep *report, rec *recorder) error {
			return measureEmbedded(o, w.cluster, rings, rep, rec)
		},
		world: func() *world { return w },
		close: func() {},
	}, nil
}

// measureEmbedded runs the closed loop: each goroutine calls
// Cluster.Lookup on its ring back to back, checking every answer, and
// times every chunk of lookups. op_ms is the median chunk time, so a
// brief stall of the machine moves a few chunks, not the result;
// lookups_per_s is the median rate over 250 ms windows.
func measureEmbedded(o options, c *geoserve.Cluster, rings []*lookupRing, rep *report, rec *recorder) error {
	const window = 250 * time.Millisecond
	var (
		total, found, wrong atomic.Int64
		stop                atomic.Bool
		wg                  sync.WaitGroup
		chunkMs             = make([][]float64, len(rings))
	)
	for g, ring := range rings {
		wg.Add(1)
		go func(g int, ring *lookupRing) {
			defer wg.Done()
			trace := rec.id()
			for i := 0; !stop.Load(); {
				t0 := time.Now()
				var f, bad int64
				for k := 0; k < chunk; k++ {
					a := c.Lookup(ring.mappers[i], ring.ips[i])
					if a != ring.want[i] {
						bad++
					}
					if a.Found {
						f++
					}
					if i++; i == ringSize {
						i = 0
					}
				}
				t1 := time.Now()
				rec.leaf(trace, 0, "cluster.lookup_chunk", t0, t1)
				chunkMs[g] = append(chunkMs[g], durMs(t1.Sub(t0)))
				total.Add(chunk)
				found.Add(f)
				wrong.Add(bad)
			}
		}(g, ring)
	}
	var rates []float64
	start := time.Now()
	prevN, prevT := int64(0), start
	for time.Since(start) < time.Duration(o.seconds)*time.Second {
		time.Sleep(window)
		n, now := total.Load(), time.Now()
		rates = append(rates, float64(n-prevN)/now.Sub(prevT).Seconds())
		prevN, prevT = n, now
	}
	stop.Store(true)
	wg.Wait()
	n := total.Load()
	rep.count(n, wrong.Load(), wrong.Load())
	rep.set("op_ms", median(slices.Concat(chunkMs...)))
	rep.set("lookups_per_s", median(rates))
	rep.set("geoserve.found_ratio", float64(found.Load())/float64(n))
	fmt.Printf("embedded: %d lookups in %d windows, median %.0f/s\n", n, len(rates), median(rates))
	return nil
}
