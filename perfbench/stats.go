package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 therefore needs at least 1000 samples and a p90 at least 100.
const minTail = 10

// supports reports whether n samples carry percentile p: at least
// minTail of them must lie strictly above the nearest-rank sample.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p)-1 >= minTail
}

// highestPercentile is the highest percentile n samples support, the
// one a run should report as its tail. It is 0 below minTail+1 samples.
func highestPercentile(n int) float64 {
	if n <= minTail {
		return 0
	}
	return 100 * float64(n-minTail) / float64(n)
}

// rank is the 0-based nearest-rank index of percentile p in n sorted
// samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantile returns the nearest-rank percentile p of the samples; it
// sorts them in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return xs[rank(len(xs), p)]
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 50) }

// durMs converts a duration to float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// wilsonUpper is the upper end of the 95% Wilson score interval for a
// failure probability after fails failures in n trials. Unlike the raw
// ratio it is never 0, so a run with no failures still reports how
// small the failure rate is shown to be, and the value scales with the
// number of attempts.
func wilsonUpper(fails, n int64) float64 {
	if n <= 0 {
		return 1
	}
	const z = 1.959964
	p := float64(fails) / float64(n)
	nf := float64(n)
	centre := p + z*z/(2*nf)
	spread := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return (centre + spread) / (1 + z*z/nf)
}

// rungResult is one ladder rate, run once per sweep of the ladder.
type rungResult struct {
	rate     float64
	attempts []classStats
}

// The ladder rule. An attempt at a rate passes when nothing failed,
// both classes meet p99Limit at their p99, and the generator's backlog
// is not growing: the median send delay of the attempt's last quarter
// exceeds that of its first quarter by no more than backlogSlack.
// A rate one ladder step (7%) above what the service sustains grows
// the backlog by about 15 ms between an attempt's first and last
// quarter; backlogSlack catches that while ignoring the few
// milliseconds a shared 2-core machine adds at random.
const (
	p99Limit     = 25 * time.Millisecond
	backlogSlack = 5 * time.Millisecond
)

// pass reports whether any attempt at the rate passed. A rate the
// service cannot sustain fails every attempt; a stall of the machine
// or a collection cycle fails one attempt, and a sweep seconds later
// clears it.
func (r rungResult) pass() bool {
	return slices.ContainsFunc(r.attempts, attemptPasses)
}

func attemptPasses(cs classStats) bool {
	if cs.failed > 0 || backlogGrowing(cs.lateMs) {
		return false
	}
	for _, xs := range [][]float64{cs.jsonMs, cs.binMs} {
		if !supports(len(xs), 99) || quantile(slices.Clone(xs), 99) > durMs(p99Limit) {
			return false
		}
	}
	return true
}

// backlogGrowing compares the median send delay of the last quarter of
// a phase with that of its first quarter.
func backlogGrowing(lateMs []float64) bool {
	q := len(lateMs) / 4
	if q == 0 {
		return false
	}
	first := median(lateMs[:q])
	last := median(lateMs[len(lateMs)-q:])
	return last-first > durMs(backlogSlack)
}

// maxPassingRate is the highest ladder rate at which the rungs pass:
// the rate of the last rung before the cut that best separates passing
// rungs below from failing rungs above, counting each rung on the wrong
// side of the cut as one error. Near the knee a machine shared with
// other work makes single rungs pass or fail by luck; the best cut
// outvotes them, where the highest passing rung or the first failure
// would follow the luckiest or unluckiest one. Among equally good cuts
// it takes the middle one. It is 0 when the best cut is below every
// rung.
func maxPassingRate(rungs []rungResult) float64 {
	pass := make([]bool, len(rungs))
	fails := 0
	for i, r := range rungs {
		pass[i] = r.pass()
		if !pass[i] {
			fails++
		}
	}
	// Cut c puts rungs[:c] below (should pass) and rungs[c:] above
	// (should fail).
	errs := fails // c = 0: every passing rung is above the cut
	best, ties := errs, []int{0}
	for c := 1; c <= len(rungs); c++ {
		if pass[c-1] {
			errs--
		} else {
			errs++
		}
		switch {
		case errs < best:
			best, ties = errs, []int{c}
		case errs == best:
			ties = append(ties, c)
		}
	}
	c := ties[(len(ties)-1)/2]
	if c == 0 {
		return 0
	}
	return rungs[c-1].rate
}

// windowed reports percentile p of xs as the median of its value over
// consecutive windows of the samples (in due-time order), so a single
// stall of the machine moves one window rather than the result. Every
// window must carry p.
func windowed(xs []float64, windows int, p float64) (float64, []float64, error) {
	var per []float64
	size := len(xs) / windows
	for w := 0; w < windows; w++ {
		win := slices.Clone(xs[w*size : (w+1)*size])
		if !supports(len(win), p) {
			return 0, nil, fmt.Errorf("%d samples per window cannot carry p%g", len(win), p)
		}
		per = append(per, quantile(win, p))
	}
	return median(per), per, nil
}
