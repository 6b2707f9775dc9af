package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileHandComputed(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // sorted: 10 20 30 40 50
	for _, c := range []struct {
		q, want float64
	}{
		{0, 10},
		{0.5, 30},
		{1, 50},
		{0.25, 20},    // rank 1
		{0.95, 48},    // rank 3.8: 40 + 0.8·10
		{0.99, 49.6},  // rank 3.96
		{0.125, 15},   // rank 0.5
		{0.875, 45.0}, // rank 3.5
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestSpeedNormalisation(t *testing.T) {
	// The reference ran 25% slower than nominal: times shrink by 1.25.
	sp := speed{refMS: 2.5, nominal: 2.0}
	if f := sp.factor(); f != 1.25 {
		t.Fatalf("factor = %v, want 1.25", f)
	}
	if got := sp.time(10); got != 8 {
		t.Errorf("time(10) = %v, want 8", got)
	}
	// A faster machine scales the other way.
	fast := speed{refMS: 1.6, nominal: 2.0}
	if got := fast.time(8); math.Abs(got-10) > 1e-12 {
		t.Errorf("fast time(8) = %v, want 10", got)
	}
	// Nothing measured leaves values raw.
	for _, s := range []speed{{}, {refMS: math.NaN(), nominal: 2}, {refMS: 2}} {
		if f := s.factor(); f != 1 {
			t.Errorf("factor of %+v = %v, want 1", s, f)
		}
	}
	// The probe's speed is the median block over the nominal.
	p := &speedProbe{blocks: []float64{2.0, 9.0, 2.2, 2.4, 1.8}}
	if got := p.speed().factor(); math.Abs(got-2.2/nominalReferenceMS) > 1e-12 {
		t.Errorf("probe factor = %v, want %v", got, 2.2/nominalReferenceMS)
	}
}

func TestWindowRMSE(t *testing.T) {
	act := []float64{1, 2, 3, 10}
	fc := []float64{1, 0, 3, 7}
	// Last two pairs: residuals 0 and 3 → sqrt(9/2).
	if got, want := windowRMSE(act, fc, 2), math.Sqrt(4.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("window 2: %v, want %v", got, want)
	}
	// Whole series: residuals 0, 2, 0, 3 → sqrt(13/4).
	if got, want := windowRMSE(act, fc, 24), math.Sqrt(13.0/4); math.Abs(got-want) > 1e-12 {
		t.Errorf("window 24: %v, want %v", got, want)
	}
	// A NaN forecast step is skipped, as the monitor skips it.
	if got, want := windowRMSE([]float64{1, 5}, []float64{math.NaN(), 1}, 24), 4.0; got != want {
		t.Errorf("NaN-skipping: %v, want %v", got, want)
	}
	if got := windowRMSE(nil, nil, 24); !math.IsNaN(got) {
		t.Errorf("empty window: %v, want NaN", got)
	}
}

func TestNearlyEqual(t *testing.T) {
	if !nearlyEqual(1e6, 1e6+1e-4, 1e-9) {
		t.Error("relative tolerance: 1e6 vs 1e6+1e-4 should match at 1e-9")
	}
	if nearlyEqual(1e6, 1e6+1e-2, 1e-9) {
		t.Error("1e6 vs 1e6+1e-2 should not match at 1e-9")
	}
	if !nearlyEqual(0, 5e-10, 1e-9) || nearlyEqual(0, 2e-9, 1e-9) {
		t.Error("absolute tolerance near zero")
	}
	if !nearlyEqual(math.NaN(), math.NaN(), 1e-9) || nearlyEqual(math.NaN(), 0, 1e-9) {
		t.Error("NaN matches only NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "hour", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "monitor.observe", Start: 1 * ms, End: 7 * ms},
		{ID: 3, Parent: 2, Name: "core.refit", Start: 2 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Name: "monitor.observe", Start: 7 * ms, End: 8 * ms},
	}
	got := map[string]layerSelf{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]layerSelf{
		"hour":            {Name: "hour", Count: 1, Total: 10 * time.Millisecond, Self: 3 * time.Millisecond},
		"monitor.observe": {Name: "monitor.observe", Count: 2, Total: 7 * time.Millisecond, Self: 3 * time.Millisecond},
		"core.refit":      {Name: "core.refit", Count: 1, Total: 4 * time.Millisecond, Self: 4 * time.Millisecond},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	hour := tr.begin("hour")
	post := tr.begin("ingest.post")
	col := tr.begin("ingest.collector")
	tr.end(col)
	tr.end(post)
	tr.end(hour)
	next := tr.begin("hour")
	tr.end(next)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	if tr.spans[1].Parent != hour || tr.spans[2].Parent != post || tr.spans[0].Parent != 0 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[2].Trace != hour || tr.spans[3].Trace != next || tr.spans[3].Parent != 0 {
		t.Errorf("traces: %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored")) // a nil tracer records nothing
}

func TestBlockRate(t *testing.T) {
	// Ten hours in five blocks of two: rates 2, 2, 2, 0.2 (one slow
	// block) and 2 → median 2, where the whole-run rate is 10/5.9.
	work := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	secs := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 5, 5, 0.5, 0.5}
	if got := blockRate(work, secs, 5); got != 2 {
		t.Errorf("blockRate = %v, want 2", got)
	}
	// Uneven split: 7 hours in 3 blocks of 3, 2, 2.
	work = []float64{3, 3, 3, 2, 2, 10, 10}
	secs = []float64{1, 1, 1, 1, 1, 1, 1}
	// Block rates 9/3 = 3, 4/2 = 2, 20/2 = 10 → median 3.
	if got := blockRate(work, secs, 3); got != 3 {
		t.Errorf("uneven blockRate = %v, want 3", got)
	}
	// More blocks than hours: one hour a block.
	if got := blockRate([]float64{4, 6}, []float64{2, 2}, 10); got != 2.5 {
		t.Errorf("per-hour blockRate = %v, want 2.5", got)
	}
	if got := blockRate(nil, nil, 10); !math.IsNaN(got) {
		t.Errorf("empty blockRate = %v, want NaN", got)
	}
}

func TestLocalSpeed(t *testing.T) {
	// Two lead blocks, then one block after each of five hours. With a
	// span of one hour each hour takes the median of its own block and
	// its neighbours'; the ends have one neighbour.
	p := &speedProbe{blocks: []float64{9, 9, 1.0, 3.0, 2.0, 8.0, 4.0}}
	want := []float64{2.0, 2.0, 3.0, 4.0, 6.0}
	loc := p.local(2, 5, 1)
	if len(loc) != len(want) {
		t.Fatalf("%d speeds, want %d", len(loc), len(want))
	}
	for h, w := range want {
		if loc[h].refMS != w || loc[h].nominal != nominalReferenceMS {
			t.Errorf("hour %d: %+v, want refMS %v", h, loc[h], w)
		}
	}
	// A span covering the run gives every hour the run's median block.
	for h, s := range p.local(2, 5, 10) {
		if s.refMS != 3.0 {
			t.Errorf("wide span, hour %d: refMS %v, want 3", h, s.refMS)
		}
	}
}

func TestProbeDuring(t *testing.T) {
	p := &speedProbe{}
	stop := p.during(time.Millisecond)
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	n := len(p.blocks)
	if n == 0 {
		t.Fatal("no reference block taken while the probe ran")
	}
	stop() // a second stop does nothing
	time.Sleep(5 * time.Millisecond)
	if len(p.blocks) != n {
		t.Errorf("blocks grew from %d to %d after stop", n, len(p.blocks))
	}
}
