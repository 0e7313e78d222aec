package geoserve

import (
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/obs"
)

// Histogram is the shared serving latency histogram — obs.Histogram,
// re-exported so cmd/geoload and the status structs keep their
// spelling. Recording is lock-free and allocation-free (one atomic add
// after a small binary search over a fixed geometric ladder). Serving
// feeds it a sample, not every lookup: see metrics.
type Histogram = obs.Histogram

// HistogramBounds re-exports the histogram's coarse export-bucket
// upper bounds (ns, last bucket overflow); pairs with
// Histogram.Export for full-distribution reporting.
func HistogramBounds() []uint64 { return obs.ExportBounds() }

// maxMappers bounds the per-mapper method counters; snapshots compile
// two mappers today, lookups under further ones are counted in the
// otherMapper row but not attributed.
const maxMappers = 4

// otherMapper is the method-count row of lookups under a mapper index
// outside [0, maxMappers): counted toward the total, never exported
// per mapper.
const otherMapper = maxMappers

const (
	// stripeBits sizes the counter stripes: 1<<stripeBits of them.
	stripeBits = 4
	// sampleBits sets the timed-lookup rate: one address in
	// 1<<sampleBits (64) is timed.
	sampleBits = 6

	numStripes  = 1 << stripeBits
	stripeShift = 32 - stripeBits
	sampleShift = stripeShift - sampleBits
	sampleMask  = 1<<sampleBits - 1

	// stripePad rounds a stripe up to whole 64-byte cache lines, so
	// neighbouring stripes share at most the one line where they meet.
	stripePad = (64 - (otherMapper+1)*int(numMethods)*8%64) % 64

	// qpsMinWindow is the shortest span windowQPS measures a rate
	// over; a read sooner than that after the last one reuses its rate.
	qpsMinWindow = time.Second
)

// addrHash is a multiplicative (Fibonacci) hash of the address; its
// top bits pick the counter stripe and the next ones decide whether a
// lookup is timed.
func addrHash(ip uint32) uint32 { return ip * 0x9E3779B1 }

// stripe is one cache-line-padded set of exact method counters.
type stripe struct {
	methods [otherMapper + 1][numMethods]atomic.Uint64
	_       [stripePad]byte
}

func (s *stripe) cell(mapper int, code method) *atomic.Uint64 {
	if uint(mapper) >= maxMappers {
		mapper = otherMapper
	}
	return &s.methods[mapper][code]
}

// metrics aggregates the serving counters /statusz and /metrics
// report, keeping the per-lookup cost to one atomic add on a counter
// other goroutines rarely touch:
//
//   - Counts are exact but striped: a lookup adds 1 to its (mapper,
//     method) cell in the stripe its address hashes to, and readers
//     fold the stripes. The total is the sum of every cell, so there
//     is no separate shared total counter.
//   - Latency is sampled: one address in 64 (by the same hash) is
//     timed, plus the first lookup a fresh metrics sees, each entering
//     the histogram with weight 1. Untimed lookups never read the
//     clock. Batches time each sub-batch with one clock pair.
//   - QPS comes from the exact total, as its rate between the
//     (time, total) samples readers take.
//
// Recording never blocks and never allocates.
type metrics struct {
	stripes [numStripes]stripe
	lat     Histogram
	// primed is set once a lookup has been timed; until then every
	// lookup is.
	primed atomic.Bool

	// The last windowQPS sample and the rate it measured.
	qpsMu   sync.Mutex
	qpsAt   time.Time
	qpsN    uint64
	qpsRate float64
}

// start begins metering one lookup of ip: it returns the clock reading
// a timed lookup measures from, or the zero Time for an untimed one.
func (m *metrics) start(ip uint32) time.Time {
	if addrHash(ip)>>sampleShift&sampleMask != 0 && m.primed.Load() {
		return time.Time{}
	}
	return time.Now()
}

// record counts one lookup of ip answered by code under mapper, and
// enters its latency when start timed it (t0 non-zero).
func (m *metrics) record(mapper int, code method, ip uint32, t0 time.Time) {
	m.stripes[addrHash(ip)>>stripeShift].cell(mapper, code).Add(1)
	if !t0.IsZero() {
		m.recordLatency(t0)
	}
}

func (m *metrics) recordLatency(t0 time.Time) {
	m.lat.Record(time.Since(t0))
	if !m.primed.Load() {
		m.primed.Store(true)
	}
}

// recordBatch folds one shard sub-batch into the metrics: n lookups
// with per-method counts accumulated locally by the caller, entering
// the latency histogram at the sub-batch's per-lookup average.
func (m *metrics) recordBatch(mapper int, counts *[numMethods]uint32, n uint64, elapsed time.Duration) {
	if n == 0 {
		return
	}
	// The elapsed time's low bits vary call to call, so they spread
	// batches over the stripes as well as an address would.
	s := &m.stripes[addrHash(uint32(elapsed))>>stripeShift]
	for code, c := range counts {
		if c > 0 {
			s.cell(mapper, method(code)).Add(uint64(c))
		}
	}
	m.lat.RecordN(elapsed/time.Duration(n), n)
}

// count folds one (mapper, method) cell across the stripes.
func (m *metrics) count(mapper int, code method) uint64 {
	var n uint64
	for i := range m.stripes {
		n += m.stripes[i].cell(mapper, code).Load()
	}
	return n
}

// total folds every cell of every stripe: the exact lookup count.
func (m *metrics) total() uint64 {
	var n uint64
	for i := range m.stripes {
		for r := range m.stripes[i].methods {
			for c := range m.stripes[i].methods[r] {
				n += m.stripes[i].methods[r][c].Load()
			}
		}
	}
	return n
}

// windowQPS is the lookup rate since the previous read, from the exact
// total: each read samples (now, total) and returns the rate against
// the sample before it. The first read has no earlier sample and
// returns the lifetime rate since start. A read less than qpsMinWindow
// after the last sample, or with an older now, returns that sample's
// rate unchanged, so back-to-back readers (a scrape and a /statusz)
// never measure over a sliver.
func (m *metrics) windowQPS(now, start time.Time) float64 {
	m.qpsMu.Lock()
	defer m.qpsMu.Unlock()
	n := m.total()
	switch {
	case m.qpsAt.IsZero():
		m.qpsRate = 0
		if up := now.Sub(start).Seconds(); up > 0 {
			m.qpsRate = float64(n) / up
		}
	case now.Sub(m.qpsAt) >= qpsMinWindow:
		m.qpsRate = float64(n-m.qpsN) / now.Sub(m.qpsAt).Seconds()
	default:
		return m.qpsRate
	}
	m.qpsAt, m.qpsN = now, n
	return m.qpsRate
}

// methodCounts adds this metrics' per-method counts for the given
// mappers to into, keyed by mapper name then method name (misses under
// "unmapped"); zero counts are left out.
func (m *metrics) methodCounts(into MethodCounts, mappers []string) {
	for mi, name := range mappers {
		if mi >= maxMappers {
			break
		}
		for code := method(0); code < numMethods; code++ {
			n := m.count(mi, code)
			if n == 0 {
				continue
			}
			if into[name] == nil {
				into[name] = map[string]uint64{}
			}
			into[name][methodKey(code)] += n
		}
	}
}

// methodKey names a method in /statusz and /metrics: misses are
// "unmapped".
func methodKey(code method) string {
	if code == methodNone {
		return "unmapped"
	}
	return methodNames[code]
}

// MethodCounts reports per-mapper lookup counts keyed by method name;
// misses are keyed "unmapped".
type MethodCounts map[string]map[string]uint64

// SnapshotInfo summarises the currently published snapshot.
type SnapshotInfo struct {
	Digest     string    `json:"digest"`
	Build      BuildInfo `json:"build"`
	Mappers    []string  `json:"mappers"`
	Prefixes   int       `json:"prefixes"`
	ExactIPs   int       `json:"exact_ips"`
	Footprints int       `json:"footprints"`
	// Swaps counts hot-swaps since the serving metrics were created
	// (0 = the snapshot the cluster was created with).
	Swaps uint64 `json:"swaps"`
}

func makeSnapshotInfo(snap *Snapshot, swaps uint64) SnapshotInfo {
	return SnapshotInfo{
		Digest:     snap.Digest(),
		Build:      snap.Build(),
		Mappers:    snap.Mappers(),
		Prefixes:   snap.NumPrefixes(),
		ExactIPs:   snap.NumExactIPs(),
		Footprints: len(snap.asns),
		Swaps:      swaps,
	}
}

// ShardStatus is one shard's /statusz section: the prefix range it
// owns, its share of the index, and its own serving counters.
type ShardStatus struct {
	ID         int    `json:"id"`
	RangeStart string `json:"range_start"`
	RangeEnd   string `json:"range_end"`
	Prefixes   int    `json:"prefixes"`
	ExactIPs   int    `json:"exact_ips"`
	Lookups    uint64 `json:"lookups"`
	// QPSWindow is this shard's rate since the previous read, as in
	// ClusterStatus.QPSWindow.
	QPSWindow    float64 `json:"qps_window"`
	LatencyP50Ns int64   `json:"latency_p50_ns"`
	LatencyP99Ns int64   `json:"latency_p99_ns"`
	// ShedBatches counts batches rejected because this shard's
	// in-flight queue was at budget.
	ShedBatches uint64 `json:"shed_batches"`
	Inflight    int64  `json:"inflight"`
}

// ClusterStatus is one /statusz observation of a serving cluster:
// coordinator totals (latency quantiles merged across shards, method
// counts aggregated), scatter-gather counters, and a per-shard
// section.
type ClusterStatus struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	QueueBudget   int     `json:"queue_budget"`
	Lookups       uint64  `json:"lookups"`
	// Batches counts scatter-gather batch requests; ShedBatches the
	// ones rejected whole under load (HTTP 429); AvgFanout the mean
	// number of shards a served batch touched.
	Batches     uint64 `json:"batches"`
	ShedBatches uint64 `json:"shed_batches"`
	// DeltaSwaps counts epoch swaps published as incremental
	// delta-compiled snapshots; ResplitShards accumulates, across
	// those, the shards each delta actually moved.
	DeltaSwaps    uint64  `json:"delta_swaps,omitempty"`
	ResplitShards uint64  `json:"resplit_shards,omitempty"`
	AvgFanout     float64 `json:"avg_fanout"`
	// QPSWindow is the rate since the previous /statusz or /metrics
	// read at least a second earlier (the lifetime rate on the first
	// read); QPSLifetime averages over the whole uptime.
	QPSWindow   float64 `json:"qps_window"`
	QPSLifetime float64 `json:"qps_lifetime"`
	// Latency quantiles in nanoseconds (bucketed, ~25% resolution),
	// over the timed sample of lookups (see metrics).
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP90Ns int64 `json:"latency_p90_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`
	// Methods maps mapper name -> method (or "unmapped") -> count.
	Methods    MethodCounts  `json:"methods"`
	ShardStats []ShardStatus `json:"shard_stats"`
	Snapshot   SnapshotInfo  `json:"snapshot"`
}
