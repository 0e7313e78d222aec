package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "step", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{Trace: 1, ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	want := map[string]float64{"step": 100 - 50 - 10, "a": 30 - 10, "b": 30, "c": 30, "d": 10}
	for _, st := range selfTimes(spans) {
		if got := st.SelfMs * 1e6; got != want[st.Name] {
			t.Errorf("%s: self %g ns, want %g", st.Name, got, want[st.Name])
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.id(); id != 0 {
		t.Errorf("nil recorder allocated id %d", id)
	}
	r.leaf(1, 0, "x", time.Now(), time.Now())
}

func TestStageDurations(t *testing.T) {
	t0 := time.Now()
	c := &stageClock{}
	c.Write([]byte("building world population model\n  detail line\n"))
	c.marks[0].at = t0
	c.Write([]byte("generating ground-truth internet\n"))
	c.marks[1].at = t0.Add(2 * time.Second)
	got := c.durations(t0.Add(5 * time.Second))
	if len(got) != 2 || got["population.build_s"] != 2 || got["netgen.build_s"] != 3 {
		t.Errorf("stage durations %v, want population 2 s and netgen 3 s", got)
	}
}
