package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/timeseries"
)

// CapplanServe runs capplan as a long-running service: train champions
// on simulated history, then replay the agent feed hour by hour while
// the monitor scores live forecast accuracy, invalidates and refits
// degraded champions, and raises capacity-breach alerts. The unified
// observability endpoint serves /healthz, /readyz, /metrics, /trace,
// /alerts, /accuracy and /debug/pprof throughout. ctx is the service
// lifetime: the cmd main wires it to SIGINT/SIGTERM, and cancellation
// reaches every in-flight candidate fit for a prompt, clean exit.
func CapplanServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("capplan serve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "oltp", "workload: olap or oltp")
	days := fs.Int("days", 14, "days of simulated history to train on before serving")
	seed := fs.Uint64("seed", 42, "simulator seed")
	technique := fs.String("technique", "sarimax", "model family: sarimax, hes, arima or tbats")
	horizon := fs.Int("horizon", 24, "forecast hours per champion")
	maxCand := fs.Int("max-candidates", 8, "candidate models per series")
	fitTimeout := fs.Duration("fit-timeout", 30*time.Second, "per-candidate fit deadline (0 = no limit); a service must not let one optimisation wedge a worker")
	failRate := fs.Float64("agent-failure-rate", 0.01, "probability an agent poll is missed")
	hours := fs.Int("hours", 0, "simulated hours to replay (0 = run until interrupted)")
	tick := fs.Duration("tick", time.Second, "wall-clock pause per simulated hour (0 = replay as fast as possible)")
	window := fs.Int("window", 24, "rolling accuracy window (observations)")
	calWindow := fs.Int("cal-window", 168, "rolling forecast-calibration window (observations) for interval coverage, PIT and residual diagnostics")
	driftOn := fs.Bool("drift", true, "run the Page\u2013Hinkley drift detector on standardized forecast residuals as a second refit trigger")
	phDelta := fs.Float64("ph-delta", 0.25, "Page\u2013Hinkley drift tolerance in standardized-residual units")
	phLambda := fs.Float64("ph-lambda", 12, "Page\u2013Hinkley alarm threshold (smaller fires faster, risks false alarms)")
	degrade := fs.Float64("degrade", 2.0, "invalidate a champion when rolling RMSE exceeds this multiple of its selection RMSE")
	maxAge := fs.Duration("max-age", 7*24*time.Hour, "simulated-time validity window per champion (the paper's one week)")
	thresholdCPU := fs.Float64("threshold-cpu", 80, "CPU % capacity threshold (0 = off)")
	thresholdMem := fs.Float64("threshold-memory", 0, "memory MB capacity threshold (0 = off)")
	thresholdIOPS := fs.Float64("threshold-iops", 0, "logical IOPS capacity threshold (0 = off)")
	within := fs.Int("within", 24, "alert when a breach is forecast within this many hours")
	pendingTicks := fs.Int("pending-ticks", 2, "consecutive breaching evaluations before an alert fires")
	resolveTicks := fs.Int("resolve-ticks", 2, "consecutive clear evaluations before a firing alert resolves")
	coldEvery := fs.Int("cold-refit-every", 24, "force every Nth refit per target to run the full cold grid search; "+
		"other refits warm-start from the stored champion and shrink the candidate grid by prior scores")
	shiftAfter := fs.Int("shift-after", 0, "inject a level shift after this many replayed hours (0 = off; drift demo)")
	shiftHours := fs.Int("shift-hours", 12, "how long the injected level shift lasts")
	shiftFactor := fs.Float64("shift-factor", 1.5, "multiplier applied to actuals during the injected shift")
	ingestOn := fs.Bool("ingest", false, "accept remote-write batches on POST "+ingest.Path+
		" and train/monitor over the ingested series instead of the built-in simulator")
	storeDir := fs.String("store-dir", "", "durable repository directory: every ingested sample and forecast snapshot is WAL-logged "+
		"and replayed on restart (requires -ingest; empty = in-memory only)")
	storeShards := fs.Int("store-shards", metricstore.DefaultShards, "repository shard count, rounded up to a power of two "+
		"(a -store-dir remembers the count it was created with)")
	retention := fs.Duration("retention", 0, "drop samples older than this horizon at WAL compaction, per series (0 = keep everything)")
	storeFsync := fs.String("store-fsync", "rotate", "WAL fsync policy: rotate (fsync on segment rotation and close; a kill loses nothing, "+
		"power loss can cost the active segment tail) or always (fsync every append)")
	ingestMaxBatch := fs.Int("ingest-max-batch", 50000, "max samples per remote-write request")
	ingestInflight := fs.Int("ingest-max-inflight", 4, "concurrent ingest requests before the collector answers 429")
	traceBuffer := fs.Int("trace-buffer", 4096, "root spans kept in memory; when full the oldest are overwritten (counted in trace_spans_dropped_total)")
	selfScrape := fs.Bool("self-scrape", true, "record the planner's own pipeline metrics (ingest rate, fit wall time, queue depth, heap) as "+
		monitor.DefaultSelfTarget+"/* forecast targets")
	selfTrain := fs.Int("self-train", 72, "hours of self-scraped history before the self targets are trained (0 = scrape but never train)")
	planOn := fs.Bool("plan", false, "run the capacity planner beside the monitor: size the fleet against each champion's horizon forecast "+
		"under the headroom policy and serve recommendations on "+planner.PlanPath)
	headroom := fs.Float64("headroom", 0.3, "fraction of per-instance capacity the planner keeps free (plan mode)")
	planHorizon := fs.Int("plan-horizon", 24, "hours of forecast the planner sizes against (plan mode)")
	planMax := fs.Int("plan-max-instances", 16, "upper bound on the planner's recommended instance count (plan mode)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tech, err := parseTechnique(*technique)
	if err != nil {
		return err
	}
	syncPolicy, err := metricstore.ParseSyncPolicy(*storeFsync)
	if err != nil {
		return err
	}
	// Flags that only govern the WAL are rejected without one, instead of
	// being silently ignored. Visit reports the flags the command line
	// actually set, which matters for -store-fsync's non-empty default.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *storeDir == "" {
		if explicit["retention"] {
			return fmt.Errorf("serve: -retention requires -store-dir (retention is enforced at WAL compaction; an in-memory repository has no WAL)")
		}
		if explicit["store-fsync"] {
			return fmt.Errorf("serve: -store-fsync requires -store-dir (the fsync policy governs the WAL; an in-memory repository has none)")
		}
	}
	if *storeDir != "" && !*ingestOn {
		return fmt.Errorf("serve: -store-dir requires -ingest (the simulated replay rebuilds its history deterministically and needs no WAL)")
	}
	if *coldEvery <= 0 {
		return fmt.Errorf("serve: -cold-refit-every must be positive (the periodic cold refit is the escape hatch that re-opens the full candidate grid; got %d)", *coldEvery)
	}
	if *of.listen == "" {
		*of.listen = "127.0.0.1:8080"
	}

	// A service logs by default; -v raises to debug. The span buffer is
	// bounded so week-long runs with tracing on don't grow without limit.
	cfg := obs.Config{Metrics: true, Trace: *of.trace, LogWriter: stdout, LogLevel: obs.LevelInfo, MaxSpans: *traceBuffer}
	if *of.verbose {
		cfg.LogLevel = obs.LevelDebug
	}
	o := obs.New(cfg)
	stopRT := obs.NewRuntimeCollector(o).Start(5 * time.Second)
	defer stopRT()

	if ctx == nil {
		ctx = context.Background()
	}
	// Parent on the caller's ctx so a cancellation from the cmd main and
	// a direct signal both stop the loop.
	ctx, cancel := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// The store's clock follows simulated time, so the paper's one-week
	// age policy works at replay speed.
	p := &pipeline{
		out:       stdout,
		obs:       o,
		store:     core.NewModelStore(core.StalePolicy{MaxAge: *maxAge, DegradeFactor: *degrade}),
		engine:    core.Options{Technique: tech, Horizon: *horizon, MaxCandidates: *maxCand, FitTimeout: *fitTimeout, Obs: o},
		window:    time.Duration(*days) * 24 * time.Hour,
		selfTrain: *selfTrain,
	}
	p.store.SetObserver(o)
	p.store.SetClock(p.now)

	var rules []monitor.Rule
	for _, r := range []monitor.Rule{
		{Metric: "cpu", Threshold: *thresholdCPU, WithinHours: *within},
		{Metric: "memory", Threshold: *thresholdMem, WithinHours: *within},
		{Metric: "logical_iops", Threshold: *thresholdIOPS, WithinHours: *within},
	} {
		if r.Threshold > 0 {
			rules = append(rules, r)
		}
	}
	p.mon, err = monitor.New(monitor.Config{
		Store:          p.store,
		Window:         *window,
		Rules:          rules,
		PendingTicks:   *pendingTicks,
		ResolveTicks:   *resolveTicks,
		Calibration:    monitor.CalibrationConfig{Window: *calWindow},
		Drift:          monitor.DriftConfig{Disabled: !*driftOn, Delta: *phDelta, Lambda: *phLambda},
		Refit:          p.refit,
		Advance:        p.advance,
		ColdRefitEvery: *coldEvery,
		Inventory: func() []string {
			var keys []string
			if r := p.repo.Load(); r != nil {
				for _, k := range r.Keys() {
					keys = append(keys, k.String())
				}
			}
			if *selfScrape {
				// Listed explicitly so the self targets show as warming on
				// /api/v1/targets before their first scrape lands.
				for _, sk := range monitor.SelfKeys("") {
					if !slices.Contains(keys, sk) {
						keys = append(keys, sk)
					}
				}
			}
			return keys
		},
		Obs: o,
	})
	if err != nil {
		return err
	}

	// The planner closes the loop over the same champions the monitor
	// scores (see pipeline.plan).
	if *planOn {
		p.planner, err = planner.New(planner.Policy{
			Metric: "cpu", Headroom: *headroom,
			HorizonHours: *planHorizon, MaxInstances: *planMax,
		}, o)
		if err != nil {
			return err
		}
	}

	// The endpoint goes up before training so /healthz answers from the
	// first second; /readyz flips once the champions are in the store.
	// In ingest mode it also carries the remote-write collector, so
	// agents can ship from the first second too.
	extra := p.mon.Handlers()
	if p.planner != nil {
		extra[planner.PlanPath] = planner.Handler(p.planner)
	}
	if *ingestOn {
		repo, err := metricstore.Open(metricstore.Options{
			Shards:    *storeShards,
			Dir:       *storeDir,
			Retention: *retention,
			Sync:      syncPolicy,
		})
		if err != nil {
			return err
		}
		defer repo.Close()
		p.useRepo(repo, *selfScrape)
		repo.SetObserver(o)
		if *storeDir != "" {
			rec := repo.Recovered()
			fmt.Fprintf(stdout, "durable store %s: %d shards, replayed %d samples and %d forecast snapshots from %d WAL segments (%d torn tails)\n",
				*storeDir, repo.Shards(), rec.Samples, rec.Forecasts, rec.Segments, rec.Torn)
		}
		col, err := ingest.NewCollector(ingest.ServerConfig{
			Store:       repo,
			MaxBatch:    *ingestMaxBatch,
			MaxInFlight: *ingestInflight,
			Obs:         o,
		})
		if err != nil {
			return err
		}
		extra[ingest.Path] = col
	}
	ln, err := of.serve(stdout, o, obs.MuxOptions{
		Ready: p.ready.Load,
		Extra: extra,
	})
	if err != nil {
		return err
	}
	defer ln.Close()

	// Both modes train on a full window and then run pipeline.step once
	// per hour; they differ only in where the repository comes from and
	// how the next hour becomes available.
	var served string
	if *ingestOn {
		// Remote agents ship into the collector: wait for a full training
		// window, then consume every hour they have completed back to
		// back, polling when none is ready.
		repo := p.repo.Load()
		poll := *tick
		if poll <= 0 {
			poll = 200 * time.Millisecond
		}
		trainHours := *days * 24
		fmt.Fprintf(stdout, "ingest mode: waiting for %d hours of remote samples on POST %s\n",
			trainHours, ingest.Path)
		// The self target is excluded from window intersection: its last
		// sample always trails the feed (it is written by this very loop),
		// so including it would stall the hour-consumption logic.
		exclude := ""
		if p.scraper != nil {
			exclude = p.scraper.Target()
		}
		var first time.Time
		for {
			f, ok := trainingWindow(repo, exclude, trainHours)
			if ok {
				first = f
				break
			}
			if !pause(ctx, poll) {
				fmt.Fprintln(stdout, "interrupted before a full training window was ingested")
				return nil
			}
		}
		trainTo := first.Add(time.Duration(trainHours) * time.Hour)
		fmt.Fprintf(stdout, "training on ingested window %s → %s (%d series)\n",
			first.Format("2006-01-02 15:04"), trainTo.Format("2006-01-02 15:04"), len(repo.Keys()))
		if ready, err := p.train(ctx, first, trainTo); !ready {
			return err
		}
		fmt.Fprintln(stdout, "ready — following the ingested feed")

		simNow, hour := trainTo, 0
		more := func() bool { return ctx.Err() == nil && (*hours == 0 || hour < *hours) }
		for more() {
			// A bucket [simNow, simNow+1h) is complete once a sample at
			// or past its end has arrived on every series.
			if _, l, ok := commonWindow(repo, exclude); ok {
				for next := simNow.Add(time.Hour); more() && !l.Before(next); next = simNow.Add(time.Hour) {
					p.step(ctx, simNow, next)
					simNow = next
					hour++
				}
			}
			pause(ctx, poll)
		}
		served = fmt.Sprintf("followed %d ingested hours (%s → %s)",
			hour, trainTo.Format("2006-01-02 15:04"), simNow.Format("2006-01-02 15:04"))
	} else {
		// The simulator builds the history, then an agent continues the
		// same deterministic feed one hour per -tick.
		fmt.Fprintf(stdout, "collecting %d days of %s history (seed %d)...\n", *days, *exp, *seed)
		ds, err := experiments.Build(experiments.Kind(strings.ToLower(*exp)), experiments.Options{
			Days: *days, Seed: *seed, AgentFailureRate: *failRate,
			MaxCandidates: *maxCand, Obs: o,
		})
		if err != nil {
			return err
		}
		p.useRepo(ds.Store, *selfScrape)
		if p.planner != nil {
			// The simulated cluster's backup schedule is a shock the
			// planner understands: it sizes backup hours around it and
			// may move jobs into forecast valleys.
			p.backups = planner.BackupInfos(ds.Cluster, dbsim.CPU)
		}
		if ready, err := p.train(ctx, ds.Start, ds.End); !ready {
			return err
		}
		fmt.Fprintf(stdout, "ready — replaying the agent feed (1 simulated hour per %v tick)\n", *tick)

		ag, err := agent.New(agent.Config{
			Interval:    15 * time.Minute,
			FailureRate: *failRate,
			Seed:        *seed + 1,
			Obs:         o,
		}, ds.Cluster, ds.Store)
		if err != nil {
			return err
		}
		simNow, hour := ds.End, 0
		for ctx.Err() == nil && (*hours == 0 || hour < *hours) {
			next := simNow.Add(time.Hour)
			if _, _, err := ag.CollectCtx(ctx, simNow, next); err != nil {
				if ctx.Err() != nil {
					break
				}
				return err
			}
			if *shiftAfter > 0 && *shiftFactor != 1 && hour >= *shiftAfter && hour < *shiftAfter+*shiftHours {
				scaleSamples(ds.Store, simNow, next, *shiftFactor)
			}
			p.step(ctx, simNow, next)
			simNow = next
			hour++
			if *tick > 0 {
				pause(ctx, *tick)
			}
		}
		served = fmt.Sprintf("replayed %d simulated hours (%s → %s)",
			hour, ds.End.Format("2006-01-02 15:04"), simNow.Format("2006-01-02 15:04"))
	}
	fmt.Fprintln(stdout, served)
	of.dumpMetrics(stdout, o)
	return nil
}

// pipeline is serve's hourly step and everything it closes over: the
// repository and model store, the monitor and planner, the simulated
// clock and the self-scraper. The monitor calls back into refit and
// advance; step runs one hour end to end.
type pipeline struct {
	out io.Writer
	obs *obs.Observer
	// repo is atomic because HTTP handlers (the targets inventory) read
	// it while the replay mode is still building it.
	repo    atomic.Pointer[metricstore.Store]
	store   *core.ModelStore
	mon     *monitor.Monitor
	planner *planner.Planner
	backups []planner.BackupInfo
	// clock is simulated now in Unix seconds; atomic because HTTP
	// handlers read it (through the model store) concurrently with step.
	clock atomic.Int64
	// ready flips /readyz once the initial champions are stored.
	ready atomic.Bool
	// scraper records the planner's own pipeline metrics as the
	// capplan.self/* targets; nil with -self-scrape=false.
	scraper *monitor.SelfScraper
	engine  core.Options
	// window is the training window a refit reads back; startAt is the
	// first trained hour, so no window opens before the history.
	window  time.Duration
	startAt time.Time
	// selfTrain is how many scraped hours a self target needs before its
	// first champion (0 = never train them).
	selfTrain int
}

func (p *pipeline) now() time.Time { return time.Unix(p.clock.Load(), 0).UTC() }

// useRepo makes repo the repository every stage reads; with selfScrape
// the pipeline's own metrics are recorded into it each hour.
func (p *pipeline) useRepo(repo *metricstore.Store, selfScrape bool) {
	p.repo.Store(repo)
	if selfScrape {
		p.scraper = monitor.NewSelfScraper(repo, p.obs, "")
	}
}

// train fits the initial champions on [from, to), persists their
// forecasts and flips /readyz. ready is false, with a nil error, when
// ctx ended mid-training.
func (p *pipeline) train(ctx context.Context, from, to time.Time) (ready bool, err error) {
	repo := p.repo.Load()
	p.startAt = from
	p.clock.Store(to.Unix())
	res, err := core.RunFleet(ctx, repo, from, to, core.FleetOptions{
		Engine: p.engine,
		Freq:   timeseries.Hourly,
		Store:  p.store,
		Obs:    p.obs,
	})
	if err != nil {
		return false, err
	}
	if res.Canceled {
		fmt.Fprintf(p.out, "initial training canceled: %d trained, %d unprocessed — shutting down\n",
			res.Trained, res.Unprocessed)
		return false, nil
	}
	fmt.Fprintf(p.out, "initial training: %d trained, %d failed in %v\n",
		res.Trained, res.Failed, res.Elapsed.Round(time.Millisecond))
	for _, key := range p.store.Keys() {
		sm, _ := p.store.Peek(key)
		k, err := metricstore.ParseKey(key)
		if sm == nil || sm.Result == nil || err != nil {
			continue
		}
		snapshotForecast(repo, k, sm.Result, sm.FittedAt)
	}
	p.ready.Store(true)
	return true, nil
}

// step runs one serve hour [from, to): scrape the pipeline's own
// metrics, advance the clock, score every series' actual (the monitor
// refits or advances the champions it invalidates), train self targets
// that have enough history, evaluate alerts and plan.
func (p *pipeline) step(ctx context.Context, from, to time.Time) {
	if p.scraper != nil {
		// Stamped at the completed hour's start so the sample lands in
		// the bucket observeHour is about to score.
		p.scraper.Sample(from)
	}
	p.clock.Store(to.Unix())
	observeHour(ctx, p.repo.Load(), p.mon, from, to)
	p.trainSelf(ctx)
	p.mon.EvaluateAlerts(to)
	p.plan(to)
}

// refit re-learns a champion from the freshest repository window; the
// monitor calls it synchronously from step. A warm request seeds the
// engine with the stored champion's parameters and prior candidate
// scores; with nothing stored the run simply goes cold.
func (p *pipeline) refit(ctx context.Context, key string, warm bool) (*core.Result, error) {
	k, err := metricstore.ParseKey(key)
	if err != nil {
		return nil, err
	}
	repo := p.repo.Load()
	to := p.now()
	from := to.Add(-p.window)
	if from.Before(p.startAt) {
		from = p.startAt
	}
	// A series that began mid-serve (the self targets do) is clamped
	// to its own first sample, or the window would open with a NaN
	// prefix no model can fit.
	if f, _, ok := repo.TimeRange(k); ok && from.Before(f) {
		from = f
	}
	ser, err := repo.Series(k, timeseries.Hourly, from, to)
	if err != nil {
		return nil, err
	}
	opts := p.engine
	if warm {
		if sm, _ := p.store.Peek(key); sm != nil && sm.Result != nil {
			opts.Warm = core.WarmFromResult(sm.Result)
		}
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx, ser)
	if err == nil {
		snapshotForecast(repo, k, res, to)
	}
	return res, err
}

// advance rolls a horizon-exhausted champion forward instead of
// refitting: the hours since the forecast origin fold into the live
// model's state and the forecast regenerates from the new origin. Any
// gap (missing samples, no live model) returns an error and the
// monitor falls back to a real refit.
func (p *pipeline) advance(_ context.Context, key string, at time.Time) (*core.Result, error) {
	sm, _ := p.store.Peek(key)
	if sm == nil || sm.Result == nil {
		return nil, fmt.Errorf("serve: no stored model for %q", key)
	}
	if sm.Result.Live == nil || sm.Result.Forecast == nil {
		return nil, fmt.Errorf("serve: stored model for %q has no live state", key)
	}
	k, err := metricstore.ParseKey(key)
	if err != nil {
		return nil, err
	}
	repo := p.repo.Load()
	fc := sm.Result.Forecast
	step := fc.Freq.Step()
	// The observations to fold in: every completed bucket from the
	// forecast origin through the hour that just exhausted it.
	ser, err := repo.Series(k, fc.Freq, fc.Start, at.Add(step))
	if err != nil {
		return nil, err
	}
	if ser.Len() == 0 {
		return nil, fmt.Errorf("serve: no observations to advance %q over", key)
	}
	for _, v := range ser.Values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("serve: gap in %q since forecast origin", key)
		}
	}
	res, err := sm.Result.Advanced(ser.Values)
	if err != nil {
		return nil, err
	}
	if !p.store.ReplaceResult(key, res) {
		return nil, fmt.Errorf("serve: stored model for %q vanished mid-advance", key)
	}
	snapshotForecast(repo, k, res, p.now())
	return res, nil
}

// trainSelf gives each self series its first champion once enough
// history has been scraped; after that the monitor refits them like any
// other target.
func (p *pipeline) trainSelf(ctx context.Context) {
	if p.scraper == nil || p.selfTrain <= 0 || ctx.Err() != nil {
		return
	}
	repo := p.repo.Load()
	for _, key := range monitor.SelfKeys("") {
		if _, ok := p.store.Peek(key); ok {
			continue
		}
		k, _ := metricstore.ParseKey(key)
		f, l, ok := repo.TimeRange(k)
		if !ok || coveredHours(f, l) < p.selfTrain {
			continue
		}
		res, err := p.refit(ctx, key, false)
		if err != nil {
			// Early self series are often near-constant; keep scraping
			// and try again next hour.
			p.obs.Debug("self target not yet trainable", "key", key, "err", err)
			continue
		}
		p.store.Put(key, res)
		p.obs.Info("self target trained", "key", key, "champion", res.Champion.Label,
			"hours", coveredHours(f, l))
	}
}

// plan closes the loop over the champions the monitor scores: it folds
// their horizon forecasts into a cluster demand curve, sizes the fleet
// under the headroom policy, exposes the recommendation on
// /api/v1/plan and feeds it to the alerter (an ignored recommendation
// escalates pending → firing). A no-op without -plan.
func (p *pipeline) plan(now time.Time) {
	if p.planner == nil {
		return
	}
	pol := p.planner.Policy()
	var fcs []planner.Forecast
	var names []string
	for _, key := range p.store.Keys() {
		// The self-scrape pseudo-target is pipeline telemetry, not
		// database capacity; it must not inflate the fleet size.
		k, err := metricstore.ParseKey(key)
		if err != nil || k.Metric != pol.Metric || k.Target == monitor.DefaultSelfTarget {
			continue
		}
		sm, _ := p.store.Peek(key)
		if sm == nil || sm.Result == nil || sm.Result.Forecast == nil {
			continue
		}
		fc := sm.Result.Forecast
		fcs = append(fcs, planner.Forecast{
			Key: key, Start: fc.Start, Step: fc.Freq.Step(),
			Mean: fc.Mean, Upper: fc.Upper,
		})
		names = append(names, k.Target)
	}
	if len(fcs) == 0 {
		return
	}
	sort.Strings(names)
	// The last completed hour's actual per instance feeds rebalance
	// detection; a missing observation disables it for the cycle.
	var loads []float64
	repo := p.repo.Load()
	for _, t := range names {
		ser, err := repo.Series(metricstore.Key{Target: t, Metric: pol.Metric}, timeseries.Hourly, now.Add(-time.Hour), now)
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			loads = nil
			break
		}
		loads = append(loads, ser.Values[0])
	}
	st := planner.ClusterState{
		Target: "cluster", Instances: len(names),
		NodeLoad: loads, Backups: p.backups,
	}
	p.planner.Plan(now, st, planner.AggregateDemand(now, pol.HorizonHours, 0, fcs))
	if rec, ok := p.planner.Recommendation(); ok {
		p.mon.ObserveCondition(st.Target, planner.GrowCondition, now,
			rec.Recommended > rec.Instances, float64(rec.Recommended), rec.PeakAt)
		p.mon.ObserveCondition(st.Target, planner.ShrinkCondition, now,
			rec.Recommended < rec.Instances, float64(rec.Recommended), rec.PeakAt)
	}
}

// pause waits d or until ctx ends, reporting whether ctx is still live.
func pause(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// observeHour feeds the monitor every series' actual for the hour
// [from, to); empty or gap buckets are skipped. When the key's latest
// samples arrived over remote write, the observation (and any refit it
// triggers) continues that batch's trace, so the push→store→observe→
// refit chain shares one trace ID across both processes.
func observeHour(ctx context.Context, repo *metricstore.Store, mon *monitor.Monitor, from, to time.Time) {
	for _, k := range repo.Keys() {
		ser, err := repo.Series(k, timeseries.Hourly, from, to)
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			continue
		}
		octx := ctx
		if tp := repo.LastTrace(k); tp != "" {
			if sc, perr := obs.ParseTraceParent(tp); perr == nil {
				octx = obs.ContextWithRemote(ctx, sc)
			}
		}
		mon.ObserveActual(octx, k.String(), from, ser.Values[0])
	}
}

// commonWindow intersects every key's covered time range, skipping keys
// under excludeTarget (the self-scrape pseudo-target, which is fed by
// the consuming loop itself). ok is false while the repository is empty.
func commonWindow(repo *metricstore.Store, excludeTarget string) (first, last time.Time, ok bool) {
	for _, k := range repo.Keys() {
		if excludeTarget != "" && k.Target == excludeTarget {
			continue
		}
		f, l, kok := repo.TimeRange(k)
		if !kok {
			continue
		}
		if !ok || f.After(first) {
			first = f
		}
		if !ok || l.Before(last) {
			last = l
		}
		ok = true
	}
	return first, last, ok
}

// trainingWindow returns the start of the common window once it holds
// trainHours complete hours: a sample at or past first+trainHours has
// arrived on every series, the rule the follow loop applies to each
// hour it consumes.
func trainingWindow(repo *metricstore.Store, excludeTarget string, trainHours int) (first time.Time, ok bool) {
	f, l, ok := commonWindow(repo, excludeTarget)
	if !ok || l.Before(f.Add(time.Duration(trainHours)*time.Hour)) {
		return time.Time{}, false
	}
	return f, true
}

// snapshotForecast persists a compact copy of res's production
// forecast into the repository, so the last promise made for k
// survives a planner restart and calibration scoring can resume
// against it.
func snapshotForecast(repo *metricstore.Store, k metricstore.Key, res *core.Result, fittedAt time.Time) {
	fc := res.Forecast
	if repo == nil || fc == nil || len(fc.Mean) == 0 {
		return
	}
	repo.PutForecast(metricstore.ForecastSnapshot{
		Key: k, Start: fc.Start, Step: fc.Freq.Step(), Level: fc.Level,
		Mean: fc.Mean, Lower: fc.Lower, Upper: fc.Upper, SE: fc.SE,
		FittedAt: fittedAt,
	})
}

// coveredHours counts the hourly buckets the closed sample range
// [first, last] touches when first sits on a bucket boundary.
func coveredHours(first, last time.Time) int {
	if last.Before(first) {
		return 0
	}
	return int(last.Sub(first)/time.Hour) + 1
}

// scaleSamples multiplies every repository sample in [from, to) by
// factor — the injected level shift of the drift demo. Put overwrites
// in place, so each sample is scaled exactly once per window.
func scaleSamples(repo *metricstore.Store, from, to time.Time, factor float64) {
	for _, k := range repo.Keys() {
		for _, smp := range repo.Raw(k) {
			if smp.At.Before(from) || !smp.At.Before(to) {
				continue
			}
			smp.Value *= factor
			repo.Put(smp)
		}
	}
}
