package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/timeseries"
)

// Serve flags the assembled hour mirrors, at `capplan serve` defaults.
const (
	fitTimeout   = 30 * time.Second
	window       = 24
	calWindow    = 168
	phDelta      = 0.25
	phLambda     = 12
	degrade      = 2.0
	maxAge       = 7 * 24 * time.Hour
	thresholdCPU = 80
	within       = 24
	pendingTicks = 2
	resolveTicks = 2
	coldEvery    = 24
	headroom     = 0.3
	planHorizon  = 24
	planMax      = 16
)

// pair is one matched forecast–actual pair.
type pair struct{ actual, forecast float64 }

// medianAPE is the median absolute percentage error, in percent, over
// every matched forecast–actual pair of the run (0 with none). Unlike
// the mean (MAPE) it cannot be swung by the few pairs whose actual sits
// near zero.
func (s *server) medianAPE() float64 {
	if len(s.apes) == 0 {
		return 0
	}
	return 100 * median(s.apes)
}

// server is the program assembled the way `capplan serve -ingest
// -store-dir D -store-fsync rotate -plan -self-scrape=false -tick 0`
// assembles it, with every public call timed from outside.
type server struct {
	sp    spec
	in    *input
	o     *obs.Observer
	repo  *metricstore.Store
	store *core.ModelStore
	mon   *monitor.Monitor
	plan  *planner.Planner
	clock atomic.Int64
	lt    *layerTimes
	tr    *tracer
	fails []string

	// Hook accounting. inHooks is the time spent inside the refit and
	// advance hooks during the current ObserveActual; refitted marks the
	// key whose refit succeeded during it (the monitor resets its
	// rolling window then).
	inHooks  time.Duration
	refitted bool
	hookOK   int
	hookErr  int
	models   int
	refits   int
	// pairs are the matched pairs per key since the last refit; apes
	// holds every matched pair's absolute percentage error.
	pairs          map[string][]pair
	apes           []float64
	seriesThisHour time.Duration
}

// failf records a failed output check.
func (s *server) failf(format string, args ...any) {
	if len(s.fails) < 20 {
		s.fails = append(s.fails, fmt.Sprintf(format, args...))
	}
}

// now is the simulated clock serve keeps in simClock.
func (s *server) now() time.Time { return time.Unix(s.clock.Load(), 0).UTC() }

// newServer builds the model store, monitor and planner the way
// cli.CapplanServe does (serve.go: ModelStore and rules ~145–158,
// monitor.New ~256–286, planner.New ~297–305).
func newServer(sp spec, in *input, repo *metricstore.Store, o *obs.Observer, lt *layerTimes, tr *tracer) (*server, error) {
	s := &server{sp: sp, in: in, repo: repo, o: o, lt: lt, tr: tr, pairs: map[string][]pair{}}
	s.store = core.NewModelStore(core.StalePolicy{MaxAge: maxAge, DegradeFactor: degrade})
	s.store.SetObserver(o)
	s.store.SetClock(s.now)
	mon, err := monitor.New(monitor.Config{
		Store:          s.store,
		Window:         window,
		Rules:          []monitor.Rule{{Metric: "cpu", Threshold: thresholdCPU, WithinHours: within}},
		PendingTicks:   pendingTicks,
		ResolveTicks:   resolveTicks,
		Calibration:    monitor.CalibrationConfig{Window: calWindow},
		Drift:          monitor.DriftConfig{Delta: phDelta, Lambda: phLambda},
		Refit:          s.refit,
		Advance:        s.advance,
		ColdRefitEvery: coldEvery,
		Inventory: func() []string {
			var keys []string
			for _, k := range repo.Keys() {
				keys = append(keys, k.String())
			}
			return keys
		},
		Obs: o,
	})
	if err != nil {
		return nil, err
	}
	s.mon = mon
	s.plan, err = planner.New(planner.Policy{
		Metric: "cpu", Headroom: headroom, HorizonHours: planHorizon, MaxInstances: planMax,
	}, o)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *server) engineOptions() core.Options {
	return core.Options{
		Technique: s.sp.technique, Horizon: s.sp.horizon,
		MaxCandidates: s.sp.maxCandidates, FitTimeout: fitTimeout, Obs: s.o,
	}
}

// splitKey parses "target/metric" as serve does.
func splitKey(key string) (metricstore.Key, error) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 {
		return metricstore.Key{}, fmt.Errorf("servebench: malformed key %q", key)
	}
	return metricstore.Key{Target: key[:i], Metric: key[i+1:]}, nil
}

// train is serve's initial training (serve.go ~480–496): RunFleet over
// the history window, then a forecast snapshot per champion.
func (s *server) train(ctx context.Context) (*core.FleetResult, error) {
	s.clock.Store(s.in.end.Unix())
	id := s.tr.begin("core.fleet")
	res, err := core.RunFleet(ctx, s.repo, s.in.start, s.in.end, core.FleetOptions{
		Engine: core.Options{
			Technique: s.sp.technique, Horizon: s.sp.horizon,
			MaxCandidates: s.sp.maxCandidates, FitTimeout: fitTimeout,
		},
		Freq:  timeseries.Hourly,
		Store: s.store,
		Obs:   s.o,
	})
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, key := range s.store.Keys() {
		sm, _ := s.store.Peek(key)
		if sm == nil || sm.Result == nil {
			continue
		}
		k, err := splitKey(key)
		if err != nil {
			return nil, err
		}
		s.snapshot(k, sm.Result, sm.FittedAt)
	}
	return res, nil
}

// snapshot is serve's snapshotForecast (serve.go ~710–720).
func (s *server) snapshot(k metricstore.Key, res *core.Result, fittedAt time.Time) {
	fc := res.Forecast
	if fc == nil || len(fc.Mean) == 0 {
		return
	}
	s.repo.PutForecast(metricstore.ForecastSnapshot{
		Key: k, Start: fc.Start, Step: fc.Freq.Step(), Level: fc.Level,
		Mean: fc.Mean, Lower: fc.Lower, Upper: fc.Upper, SE: fc.SE,
		FittedAt: fittedAt,
	})
}

// checkForecast verifies a served forecast: horizon-long, finite,
// Lower ≤ Mean ≤ Upper, starting on the hour grid.
func (s *server) checkForecast(key string, res *core.Result) {
	fc := res.Forecast
	if fc == nil {
		s.failf("%s: champion serves no forecast", key)
		return
	}
	if len(fc.Mean) != s.sp.horizon || len(fc.Lower) != len(fc.Mean) || len(fc.Upper) != len(fc.Mean) {
		s.failf("%s: forecast has %d/%d/%d steps, want %d", key, len(fc.Lower), len(fc.Mean), len(fc.Upper), s.sp.horizon)
		return
	}
	if !fc.Start.Equal(fc.Start.Truncate(time.Hour)) || fc.Freq.Step() != time.Hour {
		s.failf("%s: forecast starts off the hour grid at %v (step %v)", key, fc.Start, fc.Freq.Step())
	}
	for i := range fc.Mean {
		lo, m, hi := fc.Lower[i], fc.Mean[i], fc.Upper[i]
		if !finite(lo) || !finite(m) || !finite(hi) || lo > m || m > hi {
			s.failf("%s: forecast step %d not finite and ordered: %v ≤ %v ≤ %v", key, i, lo, m, hi)
			return
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// refit is serve's refit closure (serve.go ~170–209), timed.
func (s *server) refit(ctx context.Context, key string, warm bool) (*core.Result, error) {
	id := s.tr.begin("core.refit")
	began := time.Now()
	res, err := s.refitOnce(ctx, key, warm)
	d := time.Since(began)
	s.tr.end(id)
	s.inHooks += d
	s.refits++
	if err != nil {
		s.hookErr++
		return res, err
	}
	s.hookOK++
	s.refitted = true
	s.models += res.ModelsEvaluated
	if res.WarmStarted {
		s.lt.add("core.refit_warm", d)
	} else {
		s.lt.add("core.refit_cold", d)
	}
	s.checkForecast(key, res)
	return res, nil
}

func (s *server) refitOnce(ctx context.Context, key string, warm bool) (*core.Result, error) {
	k, err := splitKey(key)
	if err != nil {
		return nil, err
	}
	to := s.now()
	from := to.Add(-time.Duration(s.sp.days) * 24 * time.Hour)
	if from.Before(s.in.start) {
		from = s.in.start
	}
	if f, _, ok := s.repo.TimeRange(k); ok && from.Before(f) {
		from = f
	}
	ser, err := s.repo.Series(k, timeseries.Hourly, from, to)
	if err != nil {
		return nil, err
	}
	opts := s.engineOptions()
	if warm {
		if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil {
			opts.Warm = core.WarmFromResult(sm.Result)
		}
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx, ser)
	if err == nil {
		s.snapshot(k, res, to)
	}
	return res, err
}

// advance is serve's advance closure (serve.go ~215–254), timed.
func (s *server) advance(ctx context.Context, key string, at time.Time) (*core.Result, error) {
	id := s.tr.begin("core.advance")
	began := time.Now()
	res, err := s.advanceOnce(key, at)
	d := time.Since(began)
	s.tr.end(id)
	s.inHooks += d
	if err != nil {
		s.hookErr++
		return nil, err
	}
	s.hookOK++
	s.lt.add("core.advance", d)
	s.checkForecast(key, res)
	return res, nil
}

func (s *server) advanceOnce(key string, at time.Time) (*core.Result, error) {
	sm, _ := s.store.Peek(key)
	if sm == nil || sm.Result == nil {
		return nil, fmt.Errorf("servebench: no stored model for %q", key)
	}
	if sm.Result.Live == nil || sm.Result.Forecast == nil {
		return nil, fmt.Errorf("servebench: stored model for %q has no live state", key)
	}
	k, err := splitKey(key)
	if err != nil {
		return nil, err
	}
	fc := sm.Result.Forecast
	step := fc.Freq.Step()
	ser, err := s.repo.Series(k, fc.Freq, fc.Start, at.Add(step))
	if err != nil {
		return nil, err
	}
	if ser.Len() == 0 {
		return nil, fmt.Errorf("servebench: no observations to advance %q over", key)
	}
	for _, v := range ser.Values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("servebench: gap in %q since forecast origin", key)
		}
	}
	res, err := sm.Result.Advanced(ser.Values)
	if err != nil {
		return nil, err
	}
	if !s.store.ReplaceResult(key, res) {
		return nil, fmt.Errorf("servebench: stored model for %q vanished mid-advance", key)
	}
	s.snapshot(k, res, s.now())
	return res, nil
}

// observeHour is serve's observeHour (serve.go ~667–681) with each
// Series read and each ObserveActual timed, the actual checked against
// the generated polls and the served forecast recorded. An ingest-only
// workload stops after the checked read-back.
func (s *server) observeHour(ctx context.Context, h int, from, to time.Time) {
	s.seriesThisHour = 0
	for _, k := range s.repo.Keys() {
		id := s.tr.begin("metricstore.series")
		began := time.Now()
		ser, err := s.repo.Series(k, timeseries.Hourly, from, to)
		d := time.Since(began)
		s.tr.end(id)
		s.lt.add("metricstore.series", d)
		s.seriesThisHour += d

		want := math.NaN()
		if ki, ok := s.in.keyIdx[k]; ok && h < len(s.in.means) {
			want = s.in.means[h][ki]
		}
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			if !math.IsNaN(want) {
				s.failf("%s hour %d: no actual read back, polls averaged %v", k, h, want)
			}
			continue
		}
		got := ser.Values[0]
		if !nearlyEqual(got, want, 1e-9) {
			s.failf("%s hour %d: actual %v, polls averaged %v", k, h, got, want)
		}
		if s.sp.ingestOnly {
			continue
		}
		key := k.String()
		if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil && sm.Result.Forecast != nil {
			fc := sm.Result.Forecast
			if i := int(from.Sub(fc.Start) / fc.Freq.Step()); i >= 0 && i < len(fc.Mean) {
				s.pairs[key] = append(s.pairs[key], pair{got, fc.Mean[i]})
				if got != 0 {
					if ape := math.Abs((got - fc.Mean[i]) / got); finite(ape) {
						s.apes = append(s.apes, ape)
					}
				}
			}
		}
		octx := ctx
		if tp := s.repo.LastTrace(k); tp != "" {
			if sc, perr := obs.ParseTraceParent(tp); perr == nil {
				octx = obs.ContextWithRemote(ctx, sc)
			}
		}
		s.inHooks, s.refitted = 0, false
		id = s.tr.begin("monitor.observe")
		began = time.Now()
		s.mon.ObserveActual(octx, key, from, got)
		d = time.Since(began)
		s.tr.end(id)
		s.lt.add("monitor.observe", d-s.inHooks)
		if s.refitted {
			delete(s.pairs, key)
		}
	}
}

// planStep is serve's planStep (serve.go ~307–360).
func (s *server) planStep(now time.Time) {
	pol := s.plan.Policy()
	suffix := "/" + pol.Metric
	var fcs []planner.Forecast
	var names []string
	for _, key := range s.store.Keys() {
		if strings.HasPrefix(key, monitor.DefaultSelfTarget+"/") || !strings.HasSuffix(key, suffix) {
			continue
		}
		sm, _ := s.store.Peek(key)
		if sm == nil || sm.Result == nil || sm.Result.Forecast == nil {
			continue
		}
		fc := sm.Result.Forecast
		fcs = append(fcs, planner.Forecast{
			Key: key, Start: fc.Start, Step: fc.Freq.Step(),
			Mean: fc.Mean, Upper: fc.Upper,
		})
		names = append(names, strings.TrimSuffix(key, suffix))
	}
	if len(fcs) == 0 {
		return
	}
	sort.Strings(names)
	var loads []float64
	for _, t := range names {
		ser, serr := s.repo.Series(metricstore.Key{Target: t, Metric: pol.Metric}, timeseries.Hourly, now.Add(-time.Hour), now)
		if serr != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			loads = nil
			break
		}
		loads = append(loads, ser.Values[0])
	}
	st := planner.ClusterState{
		Target: "cluster", Instances: len(names),
		NodeLoad: loads, Backups: s.in.backups,
	}
	s.plan.Plan(now, st, planner.AggregateDemand(now, pol.HorizonHours, 0, fcs))
	if rec, ok := s.plan.Recommendation(); ok {
		s.mon.ObserveCondition(st.Target, planner.GrowCondition, now,
			rec.Recommended > rec.Instances, float64(rec.Recommended), rec.PeakAt)
		s.mon.ObserveCondition(st.Target, planner.ShrinkCondition, now,
			rec.Recommended < rec.Instances, float64(rec.Recommended), rec.PeakAt)
	}
}

// checkAccuracy compares the benchmark's own pair bookkeeping with the
// monitor's: matched counts per key, and the rolling RMSE over the
// current window.
func (s *server) checkAccuracy() {
	seen := map[string]bool{}
	for _, a := range s.mon.Accuracy() {
		seen[a.Key] = true
		ps := s.pairs[a.Key]
		if a.MatchedTotal != int64(len(ps)) {
			s.failf("%s: monitor matched %d pairs, benchmark %d", a.Key, a.MatchedTotal, len(ps))
			continue
		}
		act := make([]float64, len(ps))
		fc := make([]float64, len(ps))
		for i, p := range ps {
			act[i], fc[i] = p.actual, p.forecast
		}
		want := windowRMSE(act, fc, window)
		if math.IsNaN(want) {
			want = 0 // the endpoint reports an empty window as zero
		}
		if !nearlyEqual(a.RollingRMSE, want, 1e-9) {
			s.failf("%s: monitor rolling RMSE %v, benchmark %v", a.Key, a.RollingRMSE, want)
		}
	}
	for key, ps := range s.pairs {
		if !seen[key] && len(ps) > 0 {
			s.failf("%s: benchmark matched %d pairs, monitor none", key, len(ps))
		}
	}
}

// refitCounts reads monitor_refits_total by reason and by mode.
func refitCounts(o *obs.Observer) (byReason, byMode map[string]int64, total int64) {
	byReason, byMode = map[string]int64{}, map[string]int64{}
	for series, v := range o.Registry().Snapshot().Counters {
		if !strings.HasPrefix(series, "monitor_refits_total{") {
			continue
		}
		for _, lab := range strings.Split(strings.TrimSuffix(strings.TrimPrefix(series, "monitor_refits_total{"), "}"), ",") {
			kv := strings.SplitN(lab, "=", 2)
			if len(kv) != 2 {
				continue
			}
			val := strings.Trim(kv[1], `"`)
			switch kv[0] {
			case "reason":
				byReason[val] += v
			case "refit_mode":
				byMode[val] += v
			}
		}
		total += v
	}
	return byReason, byMode, total
}
