package metricstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// workerBatch builds n idempotent samples (fixed timestamps, so
// repeated PutBatch overwrites in place and the store stays the same
// size across b.N) for one writer goroutine's key.
func workerBatch(w, n int) []Sample {
	batch := make([]Sample, n)
	for i := range batch {
		batch[i] = Sample{
			Target: fmt.Sprintf("wrk%02d", w), Metric: "cpu",
			At:    t0.Add(time.Duration(i) * 15 * time.Minute),
			Value: float64(i % 97),
		}
	}
	return batch
}

// runStoreParallel drives 8 writer identities of mixed PutBatch+Series
// traffic (disjoint keys) against s.
func runStoreParallel(b *testing.B, s *Store) {
	b.Helper()
	const writers = 8
	batches := make([][]Sample, writers)
	for w := 0; w < writers; w++ {
		batches[w] = workerBatch(w, 96)
		s.PutBatch(workerBatch(w, 2016)) // three weeks of pre-seeded history per key
	}
	var next atomic.Int64
	b.SetParallelism(writers)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1)-1) % writers
		batch := batches[w]
		k := Key{Target: batch[0].Target, Metric: batch[0].Metric}
		from, to := t0, t0.Add(24*time.Hour)
		for pb.Next() {
			s.PutBatch(batch)
			if _, err := s.Series(k, timeseries.Hourly, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreParallel measures concurrent PutBatch+Series traffic
// against a WAL-backed store at 1, 4 and 16 shards with per-batch
// fsync. The shards-1 case is the seed's single-lock behaviour: every
// fsync happens under the one lock, so the whole store stalls for the
// duration of the flush. With more shards, writers on other shards keep
// running while one is inside fsync and concurrent flushes of different
// segment files overlap in the device queue — the committed
// BENCH.json baseline records that scaling. SetParallelism keeps 8
// goroutines contending even on a single-core CI box, and GOMAXPROCS is
// raised so a thread blocked in fsync never pins the only P.
func BenchmarkStoreParallel(b *testing.B) {
	const writers = 8
	if prev := runtime.GOMAXPROCS(0); prev < writers {
		runtime.GOMAXPROCS(writers)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, shards := range []int{1, 4, 16} {
		// The shard count is zero-padded into the name (not a "-N" suffix)
		// because benchcheck strips the trailing GOMAXPROCS suffix.
		b.Run(fmt.Sprintf("putbatch-series-shards%02d", shards), func(b *testing.B) {
			s, err := Open(Options{Shards: shards, Dir: b.TempDir(), Sync: SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			s.SetObserver(obs.New(obs.Config{Metrics: true}))
			runStoreParallel(b, s)
		})
	}
}

// BenchmarkStoreParallelMem is the same traffic against the in-memory
// store — no WAL, so what it shows is the pure cost of the sharding
// layer (per-sample shard hashing and batch partitioning). Not gated:
// on a single-core runner lock contention cannot manifest, so the
// numbers say nothing about scaling.
func BenchmarkStoreParallelMem(b *testing.B) {
	const writers = 8
	if prev := runtime.GOMAXPROCS(0); prev < writers {
		runtime.GOMAXPROCS(writers)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("putbatch-series-mem-shards%02d", shards), func(b *testing.B) {
			s, err := Open(Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			s.SetObserver(obs.New(obs.Config{Metrics: true}))
			runStoreParallel(b, s)
		})
	}
}
