package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/metricstore"
	"repro/internal/planner"
	"repro/internal/workload"
)

// spec is one benchmark workload: a fleet of simulated clusters, the
// serve flags it mirrors, and how many hours one run replays.
type spec struct {
	name string
	kind experiments.Kind
	// technique, horizon and maxCandidates mirror serve's -technique,
	// -horizon and -max-candidates.
	technique     core.Technique
	horizon       int
	maxCandidates int
	// clusters is the number of simulated two-instance clusters; each
	// contributes 2 instances × 3 metrics = 6 targets.
	clusters int
	// days of history the fleet trains on (serve's -days).
	days int
	// ingestOnly runs the ingest side of the hour alone: remote-write
	// POSTs and the hourly read-back, no model fitted, no monitor.
	ingestOnly bool
	// hoursPerSecond fixes the replayed hours per --seconds, so every
	// run does the same work whatever the machine's speed: at the
	// nominal speed a run replays for about --seconds.
	hoursPerSecond float64
}

// specs lists the workloads by name. Every workload's agents poll every
// 15 minutes and ship through one remote-write shipper at its default
// batch size, the client shape of `capplan push` and of serve's agents.
var specs = map[string]spec{
	// OLTP (user base +50/day, logon surges at 07:00 and 09:00) under
	// SARIMAX: champions degrade and drift constantly, so warm refits
	// put the engine and the fit kernels on the hour's critical path.
	"refit-storm": {
		name: "refit-storm", kind: experiments.OLTP,
		technique: core.TechniqueSARIMAX, horizon: 24, maxCandidates: 8,
		clusters: 2, days: 14, hoursPerSecond: 25,
	},
	// OLAP targets under HES: fitting is cheap and rare, and the hour is
	// per-target bookkeeping in monitor, metricstore reads and the
	// planner.
	"quiet-fleet": {
		name: "quiet-fleet", kind: experiments.OLAP,
		technique: core.TechniqueHES, horizon: 24, maxCandidates: 8,
		clusters: 12, days: 14, hoursPerSecond: 30,
	},
	// 83 OLAP clusters (498 targets): each poll round all but fills one
	// 500-sample batch, four POSTs an hour, and the hour is remote-write
	// ingest, WAL appends and the read-back of every key. No model is
	// fitted. Its hours are fewer than its speed allows: the store keeps
	// every sample in memory, about 110 B each.
	"ingest-wal": {
		name: "ingest-wal", kind: experiments.OLAP,
		clusters: 83, days: 14, ingestOnly: true, hoursPerSecond: 16,
	},
}

// poll is the agents' polling interval (agent.Config.Interval in
// `capplan serve` and `capplan push`).
const poll = 15 * time.Minute

// failureRate mirrors serve's -agent-failure-rate default.
const failureRate = 0.01

// round is one poll round of the fleet: the samples every agent
// delivered at one tick, as key indexes and values.
type round struct {
	at  time.Time
	key []int32
	val []float64
}

// digest is a per-key fingerprint of the samples a key holds: their
// count and an FNV-1a hash over (timestamp, value bits) in time order.
type digest struct {
	n int
	h uint64
}

func newDigest() digest { return digest{h: fnv.New64a().Sum64()} }

// add folds one sample in; samples must arrive in time order.
func (d *digest) add(at time.Time, v float64) {
	const prime = 1099511628211
	for _, w := range [2]uint64{uint64(at.UnixNano()), math.Float64bits(v)} {
		for i := 0; i < 8; i++ {
			d.h ^= (w >> (8 * i)) & 0xff
			d.h *= prime
		}
	}
	d.n++
}

// input is everything a run feeds the program, generated from the
// seed before any timing starts.
type input struct {
	keys   []metricstore.Key
	keyIdx map[metricstore.Key]int32
	// start and end bound the training history.
	start, end time.Time
	// hours holds the replay: the poll rounds of each hour.
	hours [][]round
	// means[h][k] is the mean of key k's polls in hour h (NaN: none).
	means [][]float64
	// want fingerprints every sample a key should end up holding:
	// history plus replay.
	want    []digest
	backups []planner.BackupInfo
}

// clusterSeed derives cluster c's simulator seed from a base seed;
// cluster 0 uses the base itself, as `capplan serve -seed` does.
func clusterSeed(base uint64, c int) uint64 { return base + uint64(c)*7919 }

// memorySeed is the base seed of every cluster's memory series. Under
// SARIMAX the memory series' champion order is unstable — a different
// 1% of missed polls flips it between AR(1–3) and AR(10–22), and its
// fit cost by ten times — so memory series that varied with --seed
// would decide every time metric by which few targets drew the costly
// orders. Drawing them from fixed seeds keeps that cost in every run at
// the same level; --seed varies the CPU and IOPS series. It equals
// serve's default -seed, so a one-cluster run with --seed 42 is exactly
// `capplan serve -seed 42`'s input.
const memorySeed = 42

// recorder is an agent.Sink that keeps what it is given.
type recorder struct{ samples []metricstore.Sample }

func (r *recorder) Put(s metricstore.Sample) { r.samples = append(r.samples, s) }

// simulate builds cluster c of the fleet from simulator seed cs: the
// workload's configuration shifted into the cluster's time zone, with
// the instances renamed apart when rename is set.
func simulate(sp spec, c int, cs uint64, rename bool) (*dbsim.Cluster, dbsim.Config, error) {
	var cfg dbsim.Config
	switch sp.kind {
	case experiments.OLAP:
		cfg = workload.OLAPConfig(cs)
	case experiments.OLTP:
		cfg = workload.OLTPConfig(cs)
	default:
		return nil, cfg, fmt.Errorf("servebench: unknown kind %q", sp.kind)
	}
	shiftZone(&cfg, time.Duration(c*24/sp.clusters)*time.Hour)
	if rename {
		names := make([]string, len(cfg.InstanceNames))
		for i, n := range cfg.InstanceNames {
			names[i] = fmt.Sprintf("c%03d-%s", c, n)
		}
		cfg.InstanceNames = names
	}
	cluster, err := dbsim.New(cfg)
	return cluster, cfg, err
}

// collect polls cluster over [from, to) with an agent seeded cs+1, as
// serve's agents are, keeping the samples whose metric keep accepts.
func collect(cluster *dbsim.Cluster, cs uint64, from, to time.Time, keep func(string) bool) ([]metricstore.Sample, error) {
	rec := &recorder{}
	ag, err := agent.New(agent.Config{Interval: poll, FailureRate: failureRate, Seed: cs + 1}, cluster, rec)
	if err != nil {
		return nil, err
	}
	if _, _, err := ag.Collect(from, to); err != nil {
		return nil, err
	}
	out := rec.samples[:0]
	for _, smp := range rec.samples {
		if keep(smp.Metric) {
			out = append(out, smp)
		}
	}
	return out, nil
}

// generate simulates the fleet: history into `history` (the caller's
// durable store, left for the caller to compact and close) and `hours`
// of replay rounds into the returned input. With rename each cluster's
// instances get a "cNNN-" prefix so clusters stay apart; without it
// (one cluster only) the names are the simulator's own.
func generate(sp spec, seed uint64, hours int, rename bool, history *metricstore.Store) (*input, error) {
	if !rename && sp.clusters != 1 {
		return nil, fmt.Errorf("servebench: %d clusters need renaming", sp.clusters)
	}
	in := &input{keyIdx: map[metricstore.Key]int32{}}
	perHour := int(time.Hour / poll)
	in.hours = make([][]round, hours)
	for h := range in.hours {
		in.hours[h] = make([]round, perHour)
	}
	// sums and counts per hour and key, sized once keys are known.
	type acc struct{ sum, n []float64 }
	accs := make([]acc, hours)
	memory := dbsim.MemoryMB.String()
	isMemory := func(m string) bool { return m == memory }
	notMemory := func(m string) bool { return m != memory }

	var digests []digest
	for c := 0; c < sp.clusters; c++ {
		cs, ms := clusterSeed(seed, c), clusterSeed(memorySeed, c)
		cluster, cfg, err := simulate(sp, c, cs, rename)
		if err != nil {
			return nil, err
		}
		memCluster := cluster
		if cs != ms {
			if memCluster, _, err = simulate(sp, c, ms, rename); err != nil {
				return nil, err
			}
		}
		if c == 0 {
			in.start = cfg.Start
			in.end = cfg.Start.Add(time.Duration(sp.days) * 24 * time.Hour)
			in.backups = planner.BackupInfos(cluster, dbsim.CPU)
		}
		// The history (experiments.Build's collection) and the replay
		// (serve's agent), each from the seeded cluster for CPU and IOPS
		// and from the fixed one for memory.
		span := func(from, to time.Time) ([]metricstore.Sample, error) {
			out, err := collect(cluster, cs, from, to, notMemory)
			if err != nil {
				return nil, err
			}
			mem, err := collect(memCluster, ms, from, to, isMemory)
			return append(out, mem...), err
		}
		index := func(s metricstore.Sample) int32 {
			k := metricstore.Key{Target: s.Target, Metric: s.Metric}
			i, ok := in.keyIdx[k]
			if !ok {
				i = int32(len(in.keys))
				in.keyIdx[k] = i
				in.keys = append(in.keys, k)
				digests = append(digests, newDigest())
			}
			return i
		}
		hist, err := span(in.start, in.end)
		if err != nil {
			return nil, err
		}
		for _, s := range hist {
			digests[index(s)].add(s.At, s.Value)
		}
		history.PutBatch(hist)
		if hours == 0 {
			continue
		}
		replay, err := span(in.end, in.end.Add(time.Duration(hours)*time.Hour))
		if err != nil {
			return nil, err
		}
		for _, s := range replay {
			k := index(s)
			digests[k].add(s.At, s.Value)
			off := s.At.Sub(in.end)
			h, r := int(off/time.Hour), int((off%time.Hour)/poll)
			rd := &in.hours[h][r]
			rd.at = s.At
			rd.key = append(rd.key, k)
			rd.val = append(rd.val, s.Value)
			a := &accs[h]
			for len(a.sum) <= int(k) {
				a.sum = append(a.sum, 0)
				a.n = append(a.n, 0)
			}
			a.sum[k] += s.Value
			a.n[k]++
		}
	}
	in.want = digests
	in.means = make([][]float64, hours)
	for h := range in.means {
		m := make([]float64, len(in.keys))
		for k := range m {
			m[k] = math.NaN()
			if a := accs[h]; k < len(a.n) && a.n[k] > 0 {
				m[k] = a.sum[k] / a.n[k]
			}
		}
		in.means[h] = m
	}
	return in, nil
}

// shiftZone moves a cluster's daily schedule — activity peak, logon
// surges and backups — `tz` later in the UTC day, as if the cluster
// served users in another time zone. The fleet's clusters are spread
// evenly over the day, so their degradations and refits spread over the
// hours instead of all landing on the same surge hours.
func shiftZone(cfg *dbsim.Config, tz time.Duration) {
	if tz == 0 {
		return
	}
	w := &cfg.Workload
	w.PeakHour = math.Mod(w.PeakHour+tz.Hours(), 24)
	surges := append([]dbsim.Surge(nil), w.Surges...)
	for i := range surges {
		surges[i].StartHour = (surges[i].StartHour + int(tz.Hours())) % 24
	}
	w.Surges = surges
	backups := append([]dbsim.BackupJob(nil), cfg.Backups...)
	for i := range backups {
		backups[i].Offset = (backups[i].Offset + tz) % (24 * time.Hour)
	}
	cfg.Backups = backups
}

// batches expands an hour's poll rounds into the POST bodies the
// fleet's shipper sends: each round in batches of at most shipBatch.
func (in *input) batches(h int) [][]metricstore.Sample {
	var out [][]metricstore.Sample
	for _, r := range in.hours[h] {
		smp := make([]metricstore.Sample, len(r.key))
		for i, k := range r.key {
			key := in.keys[k]
			smp[i] = metricstore.Sample{Target: key.Target, Metric: key.Metric, At: r.at, Value: r.val[i]}
		}
		for len(smp) > 0 {
			n := min(len(smp), shipBatch)
			out = append(out, smp[:n])
			smp = smp[n:]
		}
	}
	return out
}
