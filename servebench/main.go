// Command servebench times one serve hour of the capacity planner over
// a fleet of targets: remote-write ingest into the durable repository,
// the hourly read-back, scoring, refit or advance, alerts and the plan.
// It assembles the hour from the public calls `capplan serve` makes and
// times each from outside, so the program itself does not change.
//
//	go build -o servebench . && ./servebench --workload quiet-fleet --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and the speed normalisation.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/obs"
)

// processStart is as close to the process's start as Go code gets.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	clusters int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "refit-storm, quiet-fleet or ingest-wal")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 30, "run length at nominal speed; fixes the number of replayed hours")
	fs.IntVar(&opt.trace, "trace", 0, "1 records a span per timed layer call and reports per-layer metrics")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "servebench"), "directory for WAL scratch directories and trace JSONL")
	fs.IntVar(&opt.clusters, "clusters", 0, "simulate this many clusters of 6 targets, to scale the fleet (0: the workload's own count)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "servebench: unknown workload %q\n", opt.workload)
		return 2
	}
	if opt.trace != 0 && opt.trace != 1 {
		fmt.Fprintf(stderr, "servebench: -trace must be 0 or 1\n")
		return 2
	}
	if opt.clusters > 0 {
		sp.clusters = opt.clusters
	}
	// The program and the speed reference both run on one Go processor:
	// on a small shared machine the second processor's availability comes
	// and goes, and a two-goroutine reference then tracks neither the
	// serial parts of the hour nor the parallel ones (README.md, "Speed
	// normalisation").
	runtime.GOMAXPROCS(1)
	hours := int(math.Ceil(sp.hoursPerSecond * float64(opt.seconds)))
	out, err := runWorkload(context.Background(), sp, opt, hours, sp.clusters > 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	res := out.res
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the command's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a finished run: the result line plus what the fidelity
// test compares with `capplan serve`.
type outcome struct {
	res *result
	// champions maps every key to its final champion's label.
	champions        map[string]string
	byReason, byMode map[string]int64
}

// runWorkload generates the inputs, sets the service up, replays the
// hours and checks the outputs. rename prefixes each cluster's
// instance names (required with more than one cluster).
func runWorkload(ctx context.Context, sp spec, opt options, hours int, rename bool, stdout io.Writer) (*outcome, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.out, "wal-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Inputs: the history goes straight into the WAL directory, which is
	// then brought to a fixed state (every rotated segment compacted)
	// so each run's recovery reads the same files.
	hist, err := metricstore.Open(metricstore.Options{Dir: dir, Sync: metricstore.SyncRotate})
	if err != nil {
		return nil, err
	}
	in, err := generate(sp, opt.seed, hours, rename, hist)
	if err != nil {
		hist.Close()
		return nil, err
	}
	hist.Compact()
	if err := hist.Close(); err != nil {
		return nil, err
	}
	return serve(ctx, sp, opt, in, dir, stdout)
}

// setupBlocks is how many reference blocks are taken right before and
// right after the set-up, and setupEvery how often one is taken during
// it, to normalise setup_s by the machine's speed while it ran.
const (
	setupBlocks = 10
	setupEvery  = 50 * time.Millisecond
)

// leadBlocks is how many reference blocks are taken before the replay;
// one more follows every hour.
const leadBlocks = 5

// serve sets the service up on the prepared WAL directory, replays the
// input hour by hour and assembles the result.
func serve(ctx context.Context, sp spec, opt options, in *input, dir string, stdout io.Writer) (*outcome, error) {
	var tr *tracer
	if opt.trace == 1 {
		tr = newTracer()
	}
	lt := newLayerTimes()
	o := obs.New(obs.Config{Metrics: true})

	// The generator's garbage is collected before the set-up starts, so
	// no collection of the benchmark's own input lands in its time.
	runtime.GC()
	setupProbe := &speedProbe{}
	for i := 0; i < setupBlocks; i++ {
		setupProbe.sample()
	}

	// Set-up: recover the repository from its WAL, train the fleet.
	stopProbe := setupProbe.during(setupEvery)
	defer stopProbe()
	setupID := tr.begin("setup")
	began := time.Now()
	id := tr.begin("metricstore.open")
	repo, err := metricstore.Open(metricstore.Options{Dir: dir, Sync: metricstore.SyncRotate})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	openS := time.Since(began).Seconds()
	closed := false
	defer func() {
		if !closed {
			repo.Close()
		}
	}()
	repo.SetObserver(o)
	rec := repo.Recovered()
	s, err := newServer(sp, in, repo, o, lt, tr)
	if err != nil {
		return nil, err
	}
	fleet := &core.FleetResult{}
	var fleetS float64
	if !sp.ingestOnly {
		fleetBegan := time.Now()
		if fleet, err = s.train(ctx); err != nil {
			return nil, err
		}
		fleetS = time.Since(fleetBegan).Seconds()
	}
	setupS := time.Since(began).Seconds()
	tr.end(setupID)
	coldS := time.Since(processStart).Seconds()
	stopProbe()
	for i := 0; i < setupBlocks; i++ {
		setupProbe.sample()
	}

	if !sp.ingestOnly && (fleet.Failed != 0 || fleet.Trained != len(in.keys)) {
		s.failf("initial training: %d trained, %d failed of %d targets (first error %v)",
			fleet.Trained, fleet.Failed, len(in.keys), fleet.FirstErr)
	}
	if rec.Torn != 0 {
		s.failf("history recovery: %d torn segments", rec.Torn)
	}
	var busy float64
	var fits []float64
	for _, it := range fleet.Items {
		busy += it.Elapsed.Seconds()
		if it.Result != nil {
			fits = append(fits, it.Result.Elapsed.Seconds())
			s.checkForecast(it.Key, it.Result)
		}
	}
	fleet = nil

	w, err := startWire(repo, o, lt, tr)
	if err != nil {
		return nil, err
	}
	wireOpen := true
	defer func() {
		if wireOpen {
			w.close()
		}
	}()

	probe := &speedProbe{}
	for i := 0; i < leadBlocks; i++ {
		probe.sample()
	}
	reg := o.Registry()
	evals0 := reg.CounterValue("fit_objective_evals_total")
	walBytes0 := reg.CounterValue("metricstore_wal_bytes_total")

	var hourTimes, readTimes, alertTimes, planTimes []float64
	// Per hour: hours done (1), samples pushed and the time spent
	// pushing them (encode, POST, drain), for the block rates.
	var ones, hourSamples, hourPushTimes []float64
	// postHour[i] is the hour of the i-th POST.
	var postHour []int
	refitHours := 0
	simNow := in.end
	for h := 0; h < len(in.hours); h++ {
		next := simNow.Add(time.Hour)
		// Untimed: expand the hour's poll rounds into shipper batches.
		batches := in.batches(h)

		refits0, samples0, push0, posts0 := s.refits, w.samples, w.pushSecs, len(w.postTimes)
		hourID := tr.begin("hour")
		hb := time.Now()
		for _, b := range batches {
			if code, err := w.push(b); err != nil || code != 204 {
				s.failf("hour %d: POST of %d samples: status %d, err %v", h, len(b), code, err)
			}
		}
		for range w.postTimes[posts0:] {
			postHour = append(postHour, h)
		}
		s.clock.Store(next.Unix())
		s.observeHour(ctx, h, simNow, next)

		if !sp.ingestOnly {
			id := tr.begin("monitor.alerts")
			ab := time.Now()
			s.mon.EvaluateAlerts(next)
			alertTimes = append(alertTimes, time.Since(ab).Seconds())
			tr.end(id)

			id = tr.begin("planner.plan")
			pb := time.Now()
			s.planStep(next)
			planTimes = append(planTimes, time.Since(pb).Seconds())
			tr.end(id)
		}

		hourTimes = append(hourTimes, time.Since(hb).Seconds())
		tr.end(hourID)
		ones = append(ones, 1)
		hourSamples = append(hourSamples, float64(w.samples-samples0))
		hourPushTimes = append(hourPushTimes, w.pushSecs-push0)
		readTimes = append(readTimes, s.seriesThisHour.Seconds())
		if s.refits > refits0 {
			refitHours++
		}
		simNow = next

		id = tr.begin("bench.reference")
		probe.sample()
		tr.end(id)
	}
	evals := reg.CounterValue("fit_objective_evals_total") - evals0
	walBytes := reg.CounterValue("metricstore_wal_bytes_total") - walBytes0

	// Untimed checks and the run's figures.
	s.checkAccuracy()
	byReason, byMode, refitsTotal := refitCounts(o)
	if int64(s.hookOK) != refitsTotal {
		s.failf("hooks completed %d refits and advances, monitor_refits_total is %d", s.hookOK, refitsTotal)
	}
	seriesLines, renderMS, err := renderMetrics(reg)
	if err != nil {
		return nil, err
	}

	spd, setupSpd := probe.speed(), setupProbe.speed()
	raw := map[string]float64{
		"setup_s":              setupS,
		"hour_ms_p50":          1e3 * median(hourTimes),
		"hour_ms_p95":          1e3 * percentile(hourTimes, 0.95),
		"serve_hours_per_s":    blockRate(ones, hourTimes, rateBlocks),
		"ingest_samples_per_s": blockRate(hourSamples, hourPushTimes, rateBlocks),
		"ingest_post_ms_p50":   1e3 * median(w.postTimes),
		"ingest_post_ms_p99":   1e3 * percentile(w.postTimes, 0.99),
		"read_hour_ms_p50":     1e3 * median(readTimes),
	}
	// Each hour's times, and its POSTs', are normalised by the reference
	// blocks taken around that hour; the set-up by those around it.
	loc := probe.local(leadBlocks, len(hourTimes), localSpan)
	perHour := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for h, x := range xs {
			out[h] = loc[h].time(x)
		}
		return out
	}
	posts := make([]float64, len(w.postTimes))
	for i, x := range w.postTimes {
		posts[i] = loc[postHour[i]].time(x)
	}
	hours := perHour(hourTimes)
	norm := map[string]float64{
		"setup_s":              setupSpd.time(setupS),
		"hour_ms_p50":          1e3 * median(hours),
		"hour_ms_p95":          1e3 * percentile(hours, 0.95),
		"serve_hours_per_s":    blockRate(ones, hours, rateBlocks),
		"ingest_samples_per_s": blockRate(hourSamples, perHour(hourPushTimes), rateBlocks),
		"ingest_post_ms_p50":   1e3 * median(posts),
		"ingest_post_ms_p99":   1e3 * percentile(posts, 0.99),
		"read_hour_ms_p50":     1e3 * median(perHour(readTimes)),
	}
	mdape := s.medianAPE()
	walPerSample := float64(walBytes) / float64(max(w.samples, 1))
	nHours := len(hourTimes)

	// Per-layer figures, before the timings behind them are released.
	us := func(name string) float64 { return spd.time(1e6 * lt.p50(name)) }
	msP := func(name string) float64 { return spd.time(1e3 * lt.p50(name)) }
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	refitCalls := lt.count("core.refit_warm") + lt.count("core.refit_cold")
	layer := map[string]metric{
		"metricstore.put_batch_us_p50": {us("metricstore.put_batch"), "us"},
		"metricstore.put_batch_calls":  {float64(lt.count("metricstore.put_batch")), "count"},
		"metricstore.series_us_p50":    {us("metricstore.series"), "us"},
		"metricstore.series_calls":     {float64(lt.count("metricstore.series")), "count"},
		"metricstore.open_s":           {setupSpd.time(openS), "s"},
		"metricstore.replayed_samples": {float64(rec.Samples), "count"},
		"ingest.encode_us_p50":         {us("ingest.encode"), "us"},
		"ingest.wire_bytes_per_sample": {float64(w.wireBytes) / float64(max(w.samples, 1)), "B"},
		"ingest.collector_us_p50":      {us("ingest.collector"), "us"},
		"core.fleet_s":                 {setupSpd.time(fleetS), "s"},
		"core.fleet_busy_s":            {setupSpd.time(busy), "s"},
		"core.fit_ms_p50":              {setupSpd.time(1e3 * p50(fits)), "ms"},
		"core.refit_warm_ms_p50":       {msP("core.refit_warm"), "ms"},
		"core.refit_warm_calls":        {float64(lt.count("core.refit_warm")), "count"},
		"core.refit_cold_ms_p50":       {msP("core.refit_cold"), "ms"},
		"core.refit_cold_calls":        {float64(lt.count("core.refit_cold")), "count"},
		"core.models_per_refit":        {float64(s.models) / float64(max(refitCalls, 1)), "count"},
		"fit.objective_evals":          {float64(evals), "count"},
		"core.advance_us_p50":          {us("core.advance"), "us"},
		"core.advance_calls":           {float64(lt.count("core.advance")), "count"},
		"monitor.observe_us_p50":       {us("monitor.observe"), "us"},
		"monitor.alerts_ms_p50":        {spd.time(1e3 * p50(alertTimes)), "ms"},
		"planner.plan_us_p50":          {spd.time(1e6 * p50(planTimes)), "us"},
		"obs.metric_series":            {float64(seriesLines), "count"},
		"obs.render_ms":                {spd.time(renderMS), "ms"},
		"bench.speed_factor":           {spd.factor(), "ratio"},
		"bench.reference_ms_p50":       {spd.refMS, "ms"},
	}
	for _, r := range []string{"degraded", "drift", "stale", "horizon"} {
		layer["monitor.refits_"+r] = metric{float64(byReason[r]), "count"}
	}

	// heap_mb is the program's live heap: the load generator's replay
	// input, the benchmark's own bookkeeping and every per-call timing
	// are released before the final collection. What stays is the
	// store, the models, the monitor, the planner, the observer, the
	// collector and the keys and digests the store checks below need.
	in.hours, in.means = nil, nil
	s.pairs, s.apes = nil, nil
	lt.reset()
	w.postTimes = nil
	hourTimes, readTimes, alertTimes, planTimes = nil, nil, nil, nil
	ones, hourSamples, hourPushTimes, fits = nil, nil, nil, nil
	postHour, loc, posts, hours = nil, nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(s)
	runtime.KeepAlive(w)

	if err := w.close(); err != nil {
		return nil, err
	}
	wireOpen = false
	s.checkStore(repo, "live")
	closed = true
	if err := repo.Close(); err != nil {
		return nil, err
	}
	re, err := metricstore.Open(metricstore.Options{Dir: dir, Sync: metricstore.SyncRotate})
	if err != nil {
		return nil, err
	}
	if torn := re.Recovered().Torn; torn != 0 {
		s.failf("WAL recovery after the run: %d torn segments", torn)
	}
	s.checkStore(re, "recovered")
	if err := re.Close(); err != nil {
		return nil, err
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d targets, %d hours, %d POSTs of %d samples; %d refits+advances (%d hook errors); speed factor %.4f (reference %.4f ms, nominal %.2f ms), at set-up %.4f; cold set-up from process start %.3f s\n",
		sp.name, opt.seed, len(in.keys), nHours, w.posts, w.samples, s.hookOK, s.hookErr,
		spd.factor(), spd.refMS, spd.nominal, setupSpd.factor(), coldS)
	fmt.Fprintf(stdout, "refits by reason %v, by mode %v; %d of %d hours ran a refit\n", byReason, byMode, refitHours, nHours)
	fmt.Fprintf(stdout, "raw:        %s\n", fmtMetrics(raw))
	fmt.Fprintf(stdout, "normalised: %s\n", fmtMetrics(norm))
	for _, f := range s.fails {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}

	res := &result{
		Correct:   len(s.fails) == 0,
		Attempted: nHours + w.posts,
		Failed:    w.failed,
		Metrics:   map[string]metric{},
	}
	out := &outcome{res: res, champions: map[string]string{}, byReason: byReason, byMode: byMode}
	for _, key := range s.store.Keys() {
		if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil {
			out.champions[key] = sm.Result.Champion.Label
		}
	}
	if opt.trace == 0 {
		units := map[string]string{
			"setup_s": "s", "hour_ms_p50": "ms", "hour_ms_p95": "ms", "serve_hours_per_s": "hours/s",
			"ingest_samples_per_s": "samples/s", "ingest_post_ms_p50": "ms", "ingest_post_ms_p99": "ms",
			"read_hour_ms_p50": "ms",
		}
		for k, v := range norm {
			res.Metrics[k] = metric{Value: v, Unit: units[k]}
		}
		res.Metrics["heap_mb"] = metric{Value: heapMB, Unit: "MB"}
		res.Metrics["wal_bytes_per_sample"] = metric{Value: walPerSample, Unit: "B"}
		return out, nil
	}

	// Traced run: per-layer metrics, the self-time table and the spans.
	layer["monitor.forecast_mdape_pct"] = metric{mdape, "%"}
	res.Metrics = layer
	path := filepath.Join(opt.out, fmt.Sprintf("trace-%s-seed%d.jsonl", sp.name, opt.seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	cost := spanCost()
	var hourNS float64
	for _, x := range tr.spans {
		if x.Name == "hour" {
			hourNS += float64(x.End - x.Start)
		}
	}
	overhead := float64(len(tr.spans)) * float64(cost) / hourNS
	fmt.Fprintf(stdout, "trace: %d spans in %s; recording costs %v a span, about %.2f%% of the replayed hours' wall time\n",
		len(tr.spans), path, cost, 100*overhead)
	writeSelfTable(stdout, selfTimes(tr.spans))
	return out, nil
}

// renderMetrics renders the registry as the /metrics endpoint would and
// returns the number of series lines and the render time in ms.
func renderMetrics(reg *obs.Registry) (int, float64, error) {
	var prom bytes.Buffer
	began := time.Now()
	if err := reg.WritePrometheus(&prom); err != nil {
		return 0, 0, err
	}
	renderMS := float64(time.Since(began)) / float64(time.Millisecond)
	lines := 0
	for _, l := range strings.Split(prom.String(), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	return lines, renderMS, nil
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// fmtMetrics renders name=value pairs sorted by name.
func fmtMetrics(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.6g", k, m[k])
	}
	return strings.Join(parts, " ")
}

// checkStore verifies that every key holds exactly the samples the
// benchmark generated for it, history and replay, in order.
func (s *server) checkStore(repo *metricstore.Store, when string) {
	if n := len(repo.Keys()); n != len(s.in.keys) {
		s.failf("%s store: %d keys, want %d", when, n, len(s.in.keys))
	}
	for i, k := range s.in.keys {
		want := s.in.want[i]
		if got := repo.Count(k); got != want.n {
			s.failf("%s store: %s holds %d samples, want %d", when, k, got, want.n)
			continue
		}
		d := newDigest()
		for _, smp := range repo.Raw(k) {
			d.add(smp.At, smp.Value)
		}
		if d != want {
			s.failf("%s store: %s samples differ from those pushed", when, k)
		}
	}
}
