package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two closest ranks: rank q·(n−1), counted
// from zero over the sorted values. NaN for an empty input. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// rateBlocks is how many consecutive blocks of hours a run's rates are
// measured over; the reported rate is the median block's.
const rateBlocks = 10

// blockRate splits paired per-hour work and wall seconds into `blocks`
// runs of consecutive hours (the first len%blocks blocks one hour
// longer) and returns the median over blocks of Σwork / Σseconds. One
// block of rare, very slow hours moves it by at most one rank, where it
// would move a whole-run mean by its full weight.
func blockRate(work, secs []float64, blocks int) float64 {
	n := len(work)
	if n == 0 || len(secs) != n {
		return math.NaN()
	}
	if blocks > n {
		blocks = n
	}
	rates := make([]float64, 0, blocks)
	start := 0
	for b := 0; b < blocks; b++ {
		size := n / blocks
		if b < n%blocks {
			size++
		}
		var w, t float64
		for i := start; i < start+size; i++ {
			w += work[i]
			t += secs[i]
		}
		start += size
		if t > 0 {
			rates = append(rates, w/t)
		}
	}
	return median(rates)
}

// speed is the run's machine-speed estimate: the median wall time of
// the reference blocks taken during the run over the reference's
// nominal time. A factor of 1.25 means the machine ran the fixed
// reference 25% slower than nominal, so every time measured alongside
// it is divided by 1.25; rates are taken over the divided times.
type speed struct {
	refMS   float64 // median reference block, ms
	nominal float64 // nominal reference block, ms
}

// factor is refMS / nominal; 1 when nothing was measured.
func (s speed) factor() float64 {
	if s.refMS <= 0 || s.nominal <= 0 || math.IsNaN(s.refMS) {
		return 1
	}
	return s.refMS / s.nominal
}

// time normalises a wall time (any unit) to the nominal machine.
func (s speed) time(v float64) float64 { return v / s.factor() }

// layerTimes collects per-call wall times by layer name. It is safe
// for concurrent use: the collector's handler records from the HTTP
// server's goroutine while the hour loop records from its own.
type layerTimes struct {
	mu sync.Mutex
	d  map[string][]float64 // seconds
}

func newLayerTimes() *layerTimes { return &layerTimes{d: map[string][]float64{}} }

func (l *layerTimes) add(name string, d time.Duration) {
	l.mu.Lock()
	l.d[name] = append(l.d[name], d.Seconds())
	l.mu.Unlock()
}

// p50 is the median call time of name in seconds (0 with no calls).
func (l *layerTimes) p50(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.d[name]) == 0 {
		return 0
	}
	return median(l.d[name])
}

// count is the number of calls recorded for name.
func (l *layerTimes) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.d[name])
}

// reset drops every recorded call time.
func (l *layerTimes) reset() {
	l.mu.Lock()
	l.d = map[string][]float64{}
	l.mu.Unlock()
}

// nearlyEqual reports |a−b| ≤ tol·max(1, |a|, |b|): an absolute
// tolerance near zero and a relative one for large magnitudes (IOPS
// series run to 10⁶).
func nearlyEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// windowRMSE is the root mean squared error over the last `window`
// pairs of actuals and forecasts, skipping non-finite residuals as the
// monitor's rolling window does. NaN when nothing is left.
func windowRMSE(actual, forecast []float64, window int) float64 {
	start := 0
	if len(actual) > window {
		start = len(actual) - window
	}
	var ss float64
	n := 0
	for i := start; i < len(actual); i++ {
		d := actual[i] - forecast[i]
		if math.IsNaN(d) || math.IsInf(d, 0) {
			continue
		}
		ss += d * d
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(ss / float64(n))
}
