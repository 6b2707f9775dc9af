package metricstore

// equiv_test.go pins the sharded store to the seed's single-lock
// semantics: a reference implementation (one mutex, one map, the same
// insert-sorted merge) must stay observationally identical under
// randomized interleaved PutBatch / Put / Series / TimeRange traffic
// from concurrent goroutines. Run under -race by `make race`.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// legacyStore is the seed's single-mutex repository, kept as the test
// oracle.
type legacyStore struct {
	mu      sync.Mutex
	samples map[Key][]Sample
}

func newLegacy() *legacyStore { return &legacyStore{samples: make(map[Key][]Sample)} }

// insertSample is the seed's row merge: add smp to a time-sorted slice,
// overwriting an existing sample at the same timestamp.
func insertSample(list []Sample, smp Sample) []Sample {
	if n := len(list); n == 0 || smp.At.After(list[n-1].At) {
		return append(list, smp)
	}
	i := sort.Search(len(list), func(i int) bool { return !list[i].At.Before(smp.At) })
	if i < len(list) && list[i].At.Equal(smp.At) {
		list[i] = smp
		return list
	}
	list = append(list, Sample{})
	copy(list[i+1:], list[i:])
	list[i] = smp
	return list
}

func (l *legacyStore) put(smp Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := Key{Target: smp.Target, Metric: smp.Metric}
	l.samples[k] = insertSample(l.samples[k], smp)
}

func (l *legacyStore) putBatch(batch []Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range batch {
		k := Key{Target: batch[i].Target, Metric: batch[i].Metric}
		l.samples[k] = insertSample(l.samples[k], batch[i])
	}
}

func (l *legacyStore) raw(k Key) []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Sample(nil), l.samples[k]...)
}

func (l *legacyStore) timeRange(k Key) (time.Time, time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	list := l.samples[k]
	if len(list) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return list[0].At, list[len(list)-1].At, true
}

// series is the seed aggregation (with the PR 8 round-up fix applied,
// matching Store.Series).
func (l *legacyStore) series(k Key, from, to time.Time) []float64 {
	step := time.Hour
	n := int((to.Sub(from) + step - 1) / step)
	sums := make([]float64, n)
	counts := make([]int, n)
	l.mu.Lock()
	for _, smp := range l.samples[k] {
		if smp.At.Before(from) || !smp.At.Before(to) {
			continue
		}
		b := int(smp.At.Sub(from) / step)
		if b >= 0 && b < n {
			sums[b] += smp.Value
			counts[b]++
		}
	}
	l.mu.Unlock()
	values := make([]float64, n)
	for b := range values {
		if counts[b] == 0 {
			values[b] = math.NaN()
		} else {
			values[b] = sums[b] / float64(counts[b])
		}
	}
	return values
}

// randomBatch builds 1..20 samples for one goroutine's key set, out of
// order, with occasional duplicate timestamps.
func randomBatch(rng *rand.Rand, keys []Key) []Sample {
	n := 1 + rng.Intn(20)
	batch := make([]Sample, n)
	for i := range batch {
		k := keys[rng.Intn(len(keys))]
		batch[i] = Sample{
			Target: k.Target, Metric: k.Metric,
			At:    t0.Add(time.Duration(rng.Intn(400)) * 15 * time.Minute),
			Value: math.Round(rng.NormFloat64()*1000) / 10,
		}
	}
	return batch
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// runEquivalence drives gor goroutines with disjoint key sets against
// one shared sharded store and per-goroutine legacy oracles, comparing
// reads in flight and raw state at the end.
func runEquivalence(t *testing.T, s *Store, gor, ops int) map[Key]*legacyStore {
	t.Helper()
	var wg sync.WaitGroup
	oracles := make(map[Key]*legacyStore)
	var om sync.Mutex
	errs := make(chan error, gor)
	for g := 0; g < gor; g++ {
		keys := make([]Key, 3)
		for m := range keys {
			keys[m] = Key{Target: fmt.Sprintf("cdbm%03d", g), Metric: fmt.Sprintf("m%d", m)}
		}
		oracle := newLegacy()
		om.Lock()
		for _, k := range keys {
			oracles[k] = oracle
		}
		om.Unlock()
		wg.Add(1)
		go func(g int, keys []Key, oracle *legacyStore) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < ops; i++ {
				switch rng.Intn(5) {
				case 0, 1:
					b := randomBatch(rng, keys)
					s.PutBatch(append([]Sample(nil), b...))
					oracle.putBatch(b)
				case 2:
					smp := randomBatch(rng, keys)[0]
					s.Put(smp)
					oracle.put(smp)
				case 3:
					k := keys[rng.Intn(len(keys))]
					from := t0.Add(time.Duration(rng.Intn(50)) * time.Hour)
					to := from.Add(time.Duration(1+rng.Intn(30)) * 15 * time.Minute * 4)
					ser, err := s.Series(k, timeseries.Hourly, from, to)
					if err != nil {
						errs <- fmt.Errorf("series %s: %v", k, err)
						return
					}
					if want := oracle.series(k, from, to); !sameSeries(ser.Values, want) {
						errs <- fmt.Errorf("series %s diverged: %v vs %v", k, ser.Values, want)
						return
					}
				case 4:
					k := keys[rng.Intn(len(keys))]
					f1, l1, ok1 := s.TimeRange(k)
					f2, l2, ok2 := oracle.timeRange(k)
					if ok1 != ok2 || (ok1 && (!f1.Equal(f2) || !l1.Equal(l2))) {
						errs <- fmt.Errorf("timerange %s diverged", k)
						return
					}
				}
			}
		}(g, keys, oracle)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return oracles
}

// checkFinalState compares every oracle key's raw samples against the
// sharded store.
func checkFinalState(t *testing.T, s *Store, oracles map[Key]*legacyStore) {
	t.Helper()
	for k, oracle := range oracles {
		want, got := oracle.raw(k), s.Raw(k)
		if len(want) != len(got) {
			t.Fatalf("%s: %d vs %d samples", k, len(got), len(want))
		}
		for i := range want {
			if !want[i].At.Equal(got[i].At) || want[i].Value != got[i].Value {
				t.Fatalf("%s[%d]: %+v vs %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestShardedMatchesLegacyUnderConcurrency(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 120
	}
	s := New() // DefaultShards, in-memory
	oracles := runEquivalence(t, s, 6, ops)
	checkFinalState(t, s, oracles)
}

// The durable variant runs the same randomized traffic against a
// WAL-backed store with tiny segments (forcing rotations and
// compactions mid-traffic), then crash-recovers — the reopened state
// must still match the single-lock oracle.
func TestDurableShardedMatchesLegacyAfterReplay(t *testing.T) {
	ops := 150
	if testing.Short() {
		ops = 60
	}
	dir := t.TempDir()
	s := openDurable(t, dir, Options{Shards: 8, SegmentBytes: 2048})
	oracles := runEquivalence(t, s, 4, ops)
	s.Compact()
	checkFinalState(t, s, oracles)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, Options{Shards: 8, SegmentBytes: 2048})
	defer r.Close()
	checkFinalState(t, r, oracles)
}
