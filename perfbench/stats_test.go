package main

import "testing"

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false},
		{100, 90, true}, {99, 90, false},
		{11, 0, true}, {10, 0, false}, {0, 50, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := highestPercentile(100); got != 90 {
		t.Errorf("highestPercentile(100) = %g, want 90", got)
	}
	if got := highestPercentile(1000); got != 99 {
		t.Errorf("highestPercentile(1000) = %g, want 99", got)
	}
	// The highest supported percentile always leaves exactly minTail
	// samples beyond it.
	for _, n := range []int{11, 57, 100, 1000, 4321} {
		p := highestPercentile(n)
		if !supports(n, p) {
			t.Errorf("n=%d: highest percentile p%g is not supported", n, p)
		}
		if beyond := n - rank(n, p) - 1; beyond != minTail {
			t.Errorf("n=%d: %d samples beyond p%g, want %d", n, beyond, p, minTail)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestWilsonUpperNeverZero(t *testing.T) {
	if u := wilsonUpper(0, 10000); u <= 0 || u > 0.001 {
		t.Errorf("wilsonUpper(0, 10000) = %g, want small and positive", u)
	}
	if a, b := wilsonUpper(0, 1000), wilsonUpper(1, 1000); b <= a {
		t.Errorf("one failure did not raise the bound: %g -> %g", a, b)
	}
}

// rung builds a rung of n requests per class with the given latency,
// every slowEvery-th of them (0: none) slowMs instead, and a lateness
// profile.
func rung(rate float64, n int, ms float64, slowEvery int, slowMs float64, late func(i, n int) float64) rungResult {
	var r classStats
	for i := 0; i < n; i++ {
		v := ms
		if slowEvery > 0 && i%slowEvery == 0 {
			v = slowMs
		}
		r.jsonMs = append(r.jsonMs, v)
		r.binMs = append(r.binMs, v)
	}
	for i := 0; i < 2*n; i++ {
		r.lateMs = append(r.lateMs, late(i, 2*n))
	}
	return rungResult{rate: rate, attempts: []classStats{r}}
}

func TestLadderRule(t *testing.T) {
	const n = 1200
	steady := func(int, int) float64 { return 0.02 }
	growing := func(i, n int) float64 { return 10 * float64(i) / float64(n) } // 0 -> 10 ms
	limit := durMs(p99Limit)

	ok := rung(1000, n, 0.2, 200, 2*limit, steady) // 0.5% slow
	if !ok.pass() {
		t.Error("a rung with its tail under the limit and a steady backlog fails")
	}
	tail := rung(1000, n, 0.2, 50, 2*limit, steady) // 2% slow
	if tail.pass() {
		t.Error("a rung whose p99 exceeds the limit passes")
	}
	backlog := rung(1000, n, 0.2, 0, 0, growing)
	if backlog.pass() {
		t.Error("a rung with a growing backlog passes")
	}
	failed := rung(1000, n, 0.2, 0, 0, steady)
	failed.attempts[0].failed = 1
	if failed.pass() {
		t.Error("a rung with a failed request passes")
	}
	small := rung(1000, 999, 0.2, 0, 0, steady)
	if small.pass() {
		t.Error("a rung too small to carry p99 passes")
	}

	// A rate passes when any attempt at it passes.
	retried := rungResult{rate: 1000, attempts: []classStats{tail.attempts[0], ok.attempts[0]}}
	if !retried.pass() {
		t.Error("a rate whose second attempt passes fails")
	}
	twice := rungResult{rate: 1000, attempts: []classStats{tail.attempts[0], backlog.attempts[0]}}
	if twice.pass() {
		t.Error("a rate whose every attempt fails passes")
	}

	// A stalled rung below the knee does not cap the result, and a
	// lucky rung above it does not lift it.
	p := func(rate float64) rungResult { return rung(rate, n, 0.2, 0, 0, steady) }
	f := func(rate float64) rungResult { return rung(rate, n, 0.2, 0, 0, growing) }
	for _, c := range []struct {
		rungs []rungResult
		want  float64
	}{
		{[]rungResult{p(1), p(2), p(3), f(4), f(5)}, 3},
		{[]rungResult{p(1), tail, p(3), p(4), f(5), f(6)}, 4},
		{[]rungResult{p(1), p(2), p(3), f(4), f(5), p(6), f(7), f(8)}, 3},
		// An alternating band: the middle of the equally good cuts.
		{[]rungResult{p(1), p(2), f(3), p(4), f(5), p(6), f(7), f(8)}, 4},
		{[]rungResult{p(1), p(2), p(3)}, 3},
		{[]rungResult{f(1), f(2), p(3), f(4)}, 0},
	} {
		if got := maxPassingRate(c.rungs); got != c.want {
			t.Errorf("maxPassingRate(%v) = %g, want %g", passes(c.rungs), got, c.want)
		}
	}
}

func passes(rungs []rungResult) []bool {
	var out []bool
	for _, r := range rungs {
		out = append(out, r.pass())
	}
	return out
}

func TestBacklogGrowing(t *testing.T) {
	flat := []float64{0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2}
	if backlogGrowing(flat) {
		t.Error("flat lateness reported as a growing backlog")
	}
	ramp := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if !backlogGrowing(ramp) {
		t.Error("lateness rising 6 ms over the phase not reported as a growing backlog")
	}
	jitter := []float64{0, 1, 2, 3, 4, 5, 4, 4}
	if backlogGrowing(jitter) {
		t.Error("lateness rising 4 ms over the phase reported as a growing backlog")
	}
}

func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			v := 0.1
			if w == 2 && i%10 == 0 {
				v = 50 // a stall hits 10% of one window
			}
			xs = append(xs, v)
		}
	}
	got, per, err := windowed(xs, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.1 || per[2] != 50 {
		t.Errorf("windowed p99 = %g (per window %v), want 0.1 with window 2 at 50", got, per)
	}
	if _, _, err := windowed(xs, 10, 99); err == nil {
		t.Error("windows of 500 samples accepted for p99")
	}
}
