package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// nominalReferenceMS is the reference block's wall time on the machine
// the bounds were set on (2 shared vCPUs, one goroutine): about the
// median of the runs recorded in README.md. Normalised times are
// expressed in that machine's milliseconds.
const nominalReferenceMS = 1.45

// referenceSink keeps the kernel's result reachable so the compiler
// cannot drop the work.
var referenceSink float64

// referenceBlock runs the fixed reference computation once and returns
// its wall time. The computation uses none of the program's code: it
// runs the same mix the serve hour leans on (a floating-point state
// recursion, small allocations, a map and a sort), so a machine that
// slows the program slows the reference alike.
func referenceBlock() time.Duration {
	began := time.Now()
	referenceSink = referenceKernel(1)
	return time.Since(began)
}

// referenceKernel is the reference computation.
func referenceKernel(seed uint64) float64 {
	const n = 2048
	x := seed
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	var acc float64
	for round := 0; round < 6; round++ {
		// A damped AR(2) recursion with a square root and an exponential
		// per step, like a filter pass over an hourly series.
		ys := make([]float64, n)
		a1, a2 := 0.6, 0.3
		for i := 2; i < n; i++ {
			e := next() - 0.5
			ys[i] = a1*ys[i-1] + a2*ys[i-2] + e
			acc += math.Sqrt(math.Abs(ys[i])) * math.Exp(-math.Abs(e))
		}
		// Keyed bookkeeping and an ordering pass.
		m := make(map[int]float64, 256)
		for i := 0; i < n; i++ {
			m[i&255] += ys[i]
		}
		sort.Float64s(ys)
		acc += ys[n/2] + m[int(seed)&255]
	}
	return acc
}

// speedProbe collects reference blocks through a run.
type speedProbe struct {
	blocks []float64 // ms
}

// sample runs one reference block and records it.
func (p *speedProbe) sample() {
	p.blocks = append(p.blocks, float64(referenceBlock())/float64(time.Millisecond))
}

// during takes a reference block every `every` on a goroutine of its
// own until the returned stop is first called, which waits for it to
// end; later calls do nothing. On
// one processor each block runs when that goroutine is next scheduled,
// so the blocks interleave with the work being timed and sample the
// machine's speed while it runs.
func (p *speedProbe) during(every time.Duration) (stop func()) {
	done, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-ended
		})
	}
}

// localSpan is how many hours on either side of an hour the reference
// blocks that normalise it are taken from.
const localSpan = 10

// local returns one speed per replayed hour: the median of the blocks
// taken within span hours of it, where blocks[lead+h] is the block
// taken right after hour h. It follows the machine's speed through the
// run where one median for the whole run would not.
func (p *speedProbe) local(lead, hours, span int) []speed {
	out := make([]speed, hours)
	for h := range out {
		lo, hi := max(0, h-span), min(hours-1, h+span)
		out[h] = speed{refMS: median(p.blocks[lead+lo : lead+hi+1]), nominal: nominalReferenceMS}
	}
	return out
}

// speed returns the run's speed estimate from the blocks so far.
func (p *speedProbe) speed() speed {
	return speed{refMS: median(p.blocks), nominal: nominalReferenceMS}
}
