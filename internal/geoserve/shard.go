package geoserve

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// maxShards bounds a cluster's shard count so batch scatter scratch can
// store shard ids in one byte.
const maxShards = 256

// shardData is one shard's immutable view of a parent snapshot: the
// contiguous run of the sorted /24 interval index it owns plus the
// exact-address answers falling inside its address range. The slices
// alias the parent snapshot's backing arrays (no copies), so splitting
// a snapshot is O(shards·log n) and a shard lookup is byte-equivalent
// to Snapshot.lookup by construction — the sub-slices partition
// the full sorted arrays at the same cut points.
type shardData struct {
	snap *Snapshot // parent; digest, mappers and footprints live here
	id   int
	// The shard owns addresses in [lo, hi] (inclusive); the ranges of a
	// split partition the whole 32-bit space, so every address has
	// exactly one owner.
	lo, hi uint32

	prefixes  []uint32
	prefixAns [][]entry
	ips       []uint32
	ipAns     [][]entry

	// pOff and ipOff are the cut points of this shard's sub-slices in
	// the parent arrays, so a shard-local index maps back to a parent
	// columnar row (the wire slab and JSON cache are row-addressed).
	pOff, ipOff int
}

// lookup mirrors Snapshot.lookup over the shard's sub-slices: exact
// answer for a known interface address, prefix-level answer inside an
// allocated /24, zero-valued miss otherwise. Allocation-free.
func (d *shardData) lookup(mapper int, ip uint32) (Answer, method) {
	if mapper < 0 || mapper >= len(d.snap.mappers) {
		return Answer{IP: ip}, methodNone
	}
	if i, ok := search32(d.ips, ip); ok {
		e := &d.ipAns[mapper][i]
		return e.answer(ip, true), e.method
	}
	if i, ok := search32(d.prefixes, ip&^0xff); ok {
		e := &d.prefixAns[mapper][i]
		return e.answer(ip, false), e.method
	}
	return Answer{IP: ip}, methodNone
}

// owns reports whether ip falls in the shard's address range.
func (d *shardData) owns(ip uint32) bool { return ip >= d.lo && ip <= d.hi }

// lookupRow locates ip's answer row over the shard's sub-slices,
// returning the PARENT snapshot's columnar row (or -1): exact rows
// follow the prefix rows (Columns order), and the shard's cut offsets
// translate local indices, so wire records and cached JSON tails are
// per snapshot, shared by every shard. The row is mapper-independent.
func (d *shardData) lookupRow(ip uint32) int {
	if i, ok := search32(d.ips, ip); ok {
		return len(d.snap.prefixes) + d.ipOff + i
	}
	if i, ok := search32(d.prefixes, ip&^0xff); ok {
		return d.pOff + i
	}
	return -1
}

// wireAnswer writes ip's 36-byte wire answer under mapper at dst and
// returns the answer's method code. The record bytes are one copy out
// of the parent snapshot's precomputed slab; a miss copies the static
// zero record.
func (d *shardData) wireAnswer(w *wireState, mapper int, ip uint32, dst []byte) method {
	binary.LittleEndian.PutUint32(dst, ip)
	row := d.lookupRow(ip)
	if row < 0 || mapper < 0 || mapper >= len(d.snap.mappers) {
		copy(dst[4:WireAnswerSize], zeroWireRecord[:])
		return methodNone
	}
	copy(dst[4:WireAnswerSize], w.slabs[mapper][row*wireRecordSize:])
	return method(dst[4+wireOffMethod])
}

// splitSnapshot cuts the snapshot's sorted /24 interval index into n
// contiguous runs balanced by interval count (runs differ by at most
// one prefix), and splits the exact-address index at the same address
// boundaries. starts[i] is the lower bound of shard i's address range;
// starts[0] is 0 and the last shard extends to 0xFFFFFFFF, so the
// ranges partition the address space and routing is one binary search.
func splitSnapshot(snap *Snapshot, n int) (datas []*shardData, starts []uint32, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("geoserve: shard count %d < 1", n)
	}
	if n > maxShards {
		return nil, nil, fmt.Errorf("geoserve: shard count %d exceeds max %d", n, maxShards)
	}
	// One shard needs no cuts, so it serves even an empty index.
	if n > 1 && n > len(snap.prefixes) {
		return nil, nil, fmt.Errorf("geoserve: %d shards over %d /24 intervals", n, len(snap.prefixes))
	}
	starts = make([]uint32, n)
	for i := 1; i < n; i++ {
		starts[i] = snap.prefixes[i*len(snap.prefixes)/n]
	}
	datas = make([]*shardData, n)
	for i := 0; i < n; i++ {
		pLo, pHi := i*len(snap.prefixes)/n, (i+1)*len(snap.prefixes)/n
		hi := uint32(0xFFFFFFFF)
		if i+1 < n {
			hi = starts[i+1] - 1
		}
		// Exact addresses in [starts[i], hi] — lower bounds in the
		// sorted ips array.
		ipLo, _ := search32(snap.ips, starts[i])
		ipHi := len(snap.ips)
		if i+1 < n {
			ipHi, _ = search32(snap.ips, starts[i+1])
		}
		d := &shardData{
			snap:      snap,
			id:        i,
			lo:        starts[i],
			hi:        hi,
			prefixes:  snap.prefixes[pLo:pHi],
			prefixAns: make([][]entry, len(snap.mappers)),
			ips:       snap.ips[ipLo:ipHi],
			ipAns:     make([][]entry, len(snap.mappers)),
			pOff:      pLo,
			ipOff:     ipLo,
		}
		for m := range snap.mappers {
			d.prefixAns[m] = snap.prefixAns[m][pLo:pHi]
			d.ipAns[m] = snap.ipAns[m][ipLo:ipHi]
		}
		datas[i] = d
	}
	return datas, starts, nil
}

// shardIndexOf routes an address to its owning shard: the greatest i
// with starts[i] <= ip (starts[0] is always 0).
func shardIndexOf(starts []uint32, ip uint32) int {
	lo, hi := 0, len(starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= ip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// shardState is the carryable part of a shard: its serving metrics and
// shed count. It lives in clusterMetrics rather than the Shard itself
// so NewClusterFrom can hand a replacement cluster the previous one's
// counters — epochs advancing by delta apply must not reset per-shard
// accounting.
type shardState struct {
	m    metrics
	shed atomic.Uint64
}

// Shard is one independently hot-swappable serving unit inside a
// Cluster: its own atomic data pointer (readers never block on a
// swap), its own metrics, and its own in-flight budget for batch work
// (the load-shedding unit).
type Shard struct {
	data atomic.Pointer[shardData]
	st   *shardState
	// inflight counts batch tasks currently queued or running on this
	// shard; tryAcquire sheds when it would exceed budget.
	inflight atomic.Int64
	budget   int64
}

// tryAcquire reserves one in-flight batch slot, shedding (and counting
// the shed) when the shard's queue is already at budget.
func (sh *Shard) tryAcquire() bool {
	if sh.inflight.Add(1) > sh.budget {
		sh.inflight.Add(-1)
		sh.st.shed.Add(1)
		return false
	}
	return true
}

func (sh *Shard) release() { sh.inflight.Add(-1) }

// serveGroup answers this shard's members of a scattered batch: it
// scans the shard-id scratch, looks up every address it owns on the
// epoch-consistent data d, and records the sub-batch in one metrics
// update (per-lookup latency is the sub-batch average, so batch
// serving never pays a clock read per address).
func (sh *Shard) serveGroup(d *shardData, mapper int, ips []uint32, shardOf []uint8, out []Answer) {
	t0 := time.Now()
	var counts [numMethods]uint32
	me := uint8(d.id)
	n := uint64(0)
	for j, ip := range ips {
		if shardOf[j] != me {
			continue
		}
		a, code := d.lookup(mapper, ip)
		out[j] = a
		counts[code]++
		n++
	}
	sh.st.m.recordBatch(mapper, &counts, n, time.Since(t0))
}

// serveGroupWire is serveGroup for the binary wire path: it writes
// this shard's members of a scattered batch as fixed-width answers at
// their disjoint positions in out.
func (sh *Shard) serveGroupWire(d *shardData, w *wireState, mapper int, ips []uint32, shardOf []uint8, out []byte) {
	t0 := time.Now()
	var counts [numMethods]uint32
	me := uint8(d.id)
	n := uint64(0)
	for j, ip := range ips {
		if shardOf[j] != me {
			continue
		}
		code := d.wireAnswer(w, mapper, ip, out[j*WireAnswerSize:])
		counts[code]++
		n++
	}
	sh.st.m.recordBatch(mapper, &counts, n, time.Since(t0))
}
