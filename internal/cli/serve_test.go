package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metricstore"
)

func TestCapplanServeReplaysAndDumps(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet and replays simulated hours")
	}
	var out bytes.Buffer
	err := Capplan(context.Background(), []string{
		"serve",
		"-exp", "oltp",
		"-days", "10",
		"-seed", "7",
		"-technique", "hes",
		"-max-candidates", "4",
		"-hours", "3",
		"-tick", "0",
		"-listen", "127.0.0.1:0",
		"-metrics",
	}, &out)
	if err != nil {
		t.Fatalf("capplan serve: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"observability endpoint on http://127.0.0.1:",
		"initial training:",
		"ready — replaying",
		"replayed 3 simulated hours",
		"monitor_actuals_total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// syncBuffer is a goroutine-safe io.Writer for commands running in the
// background of a test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCapplanServeEndpointLive probes the unified endpoint while a
// serve replay is running: /healthz answers during training, /readyz
// flips once champions are stored, and /accuracy and /alerts serve
// JSON snapshots of the live monitor.
func TestCapplanServeEndpointLive(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet and replays simulated hours")
	}
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Capplan(context.Background(), []string{
			"serve",
			"-exp", "oltp",
			"-days", "10",
			"-seed", "7",
			"-technique", "hes",
			"-max-candidates", "4",
			"-hours", "200",
			"-tick", "10ms",
			"-threshold-cpu", "60",
			"-listen", "127.0.0.1:0",
		}, &out)
	}()

	// The listen banner prints the bound address before training starts.
	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`)
	deadline := time.Now().Add(30 * time.Second)
	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before binding: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address in output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, out.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	// Wait out the initial training via /readyz.
	for {
		if code, _ := get("/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never turned ready:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), "go_goroutines") {
		t.Fatalf("metrics = %d:\n%s", code, body)
	}
	code, body := get("/accuracy")
	if code != http.StatusOK {
		t.Fatalf("accuracy = %d", code)
	}
	var scores []map[string]any
	if err := json.Unmarshal(body, &scores); err != nil {
		t.Fatalf("accuracy body %s: %v", body, err)
	}
	code, body = get("/alerts")
	if code != http.StatusOK {
		t.Fatalf("alerts = %d", code)
	}
	var alerts []map[string]any
	if err := json.Unmarshal(body, &alerts); err != nil {
		t.Fatalf("alerts body %s: %v", body, err)
	}

	// The forecast-health endpoint serves calibration rows once actuals
	// have been scored, and honours the ?key= filter.
	code, body = get("/api/v1/calibration")
	if code != http.StatusOK {
		t.Fatalf("calibration = %d", code)
	}
	var cal []map[string]any
	if err := json.Unmarshal(body, &cal); err != nil {
		t.Fatalf("calibration body %s: %v", body, err)
	}
	if len(cal) > 0 {
		key, _ := cal[0]["key"].(string)
		if key == "" {
			t.Fatalf("calibration row missing key: %v", cal[0])
		}
		if _, ok := cal[0]["coverage_ratio"]; !ok {
			t.Fatalf("calibration row missing coverage_ratio: %v", cal[0])
		}
		code, body = get("/api/v1/targets?key=" + key)
		if code != http.StatusOK {
			t.Fatalf("filtered targets = %d", code)
		}
		var rows []map[string]any
		if err := json.Unmarshal(body, &rows); err != nil || len(rows) != 1 {
			t.Fatalf("filtered targets body %s: %v", body, err)
		}
		if rows[0]["key"] != key {
			t.Fatalf("filtered targets row = %v, want key %s", rows[0], key)
		}
	}

	if err := <-done; err != nil {
		t.Fatalf("capplan serve: %v\n%s", err, out.String())
	}
}

// TestCapplanServeCtxCancel cancels the caller's context mid-replay —
// the path a SIGTERM takes through the cmd main — and expects a clean
// (error-free) exit well inside a shutdown grace period.
func TestCapplanServeCtxCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet and replays simulated hours")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Capplan(ctx, []string{
			"serve",
			"-exp", "oltp",
			"-days", "10",
			"-seed", "7",
			"-technique", "hes",
			"-max-candidates", "4",
			"-hours", "0", // run until cancelled
			"-tick", "10ms",
			"-listen", "127.0.0.1:0",
		}, &out)
	}()

	// Wait for the replay loop, then cancel like a signal would.
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(out.String(), "ready — replaying") {
		select {
		case err := <-done:
			t.Fatalf("serve exited before ready: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became ready:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled serve returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve did not exit within 10s of cancellation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "replayed") {
		t.Errorf("shutdown summary missing from output:\n%s", out.String())
	}
}

func TestCapplanServeBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := Capplan(context.Background(), []string{"serve", "-bogus"}, &out); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := CapplanServe(context.Background(), []string{"-technique", "nope"}, &out); err == nil {
		t.Fatal("bogus technique accepted")
	}
}

func TestServeStoreDirRequiresIngest(t *testing.T) {
	var out bytes.Buffer
	err := Capplan(context.Background(), []string{
		"serve", "-store-dir", t.TempDir(), "-listen", "127.0.0.1:0",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "requires -ingest") {
		t.Fatalf("err = %v, want -store-dir requires -ingest", err)
	}
}

func TestServeColdRefitEveryMustBePositive(t *testing.T) {
	var out bytes.Buffer
	for _, bad := range []string{"0", "-3"} {
		err := Capplan(context.Background(), []string{
			"serve", "-cold-refit-every", bad, "-listen", "127.0.0.1:0",
		}, &out)
		if err == nil || !strings.Contains(err.Error(), "-cold-refit-every must be positive") {
			t.Fatalf("-cold-refit-every %s: err = %v, want must-be-positive", bad, err)
		}
	}
}

func TestServeWalFlagsRequireStoreDir(t *testing.T) {
	var out bytes.Buffer
	err := Capplan(context.Background(), []string{
		"serve", "-ingest", "-retention", "24h", "-listen", "127.0.0.1:0",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "-retention requires -store-dir") {
		t.Fatalf("err = %v, want -retention requires -store-dir", err)
	}
	// Explicitly setting -store-fsync is rejected without a WAL even when
	// the value matches the default.
	for _, policy := range []string{"always", "rotate"} {
		err = Capplan(context.Background(), []string{
			"serve", "-ingest", "-store-fsync", policy, "-listen", "127.0.0.1:0",
		}, &out)
		if err == nil || !strings.Contains(err.Error(), "-store-fsync requires -store-dir") {
			t.Fatalf("-store-fsync %s: err = %v, want -store-fsync requires -store-dir", policy, err)
		}
	}
}

// TestCapplanServePlanEndpoint runs serve with the planner enabled under
// a headroom policy tight enough that the forecast demand cannot fit the
// current fleet, and expects a grow recommendation on /api/v1/plan, the
// planner counters on /metrics, and the recommendation riding the
// alerter as a plan_grow condition.
func TestCapplanServePlanEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet and replays simulated hours")
	}
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Capplan(context.Background(), []string{
			"serve",
			"-exp", "oltp",
			"-days", "10",
			"-seed", "7",
			"-technique", "hes",
			"-max-candidates", "4",
			"-hours", "200",
			"-tick", "10ms",
			"-plan",
			"-headroom", "0.8",
			"-listen", "127.0.0.1:0",
		}, &out)
	}()

	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`)
	deadline := time.Now().Add(60 * time.Second)
	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before binding: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address in output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, out.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Poll the plan endpoint until a planning cycle has emitted a grow
	// action (the forecast demand cannot fit the fleet at 0.8 headroom
	// once a busy hour enters the lead window).
	var payload struct {
		Policy struct {
			Headroom float64 `json:"headroom"`
		} `json:"policy"`
		Recommendation *struct {
			Instances   int `json:"instances"`
			Recommended int `json:"recommended"`
		} `json:"recommendation"`
		History []struct {
			Type          string `json:"type"`
			FromInstances int    `json:"from_instances"`
			ToInstances   int    `json:"to_instances"`
		} `json:"history"`
	}
	grown := -1
	for grown < 0 {
		code, body := get("/api/v1/plan")
		if code != http.StatusOK {
			t.Fatalf("plan = %d:\n%s", code, body)
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatalf("plan body %s: %v", body, err)
		}
		for i, h := range payload.History {
			if h.Type == "grow" {
				grown = i
				break
			}
		}
		if grown >= 0 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before a grow recommendation: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no grow recommendation before deadline:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if payload.Policy.Headroom != 0.8 {
		t.Fatalf("policy headroom = %v, want 0.8", payload.Policy.Headroom)
	}
	if payload.Recommendation == nil {
		t.Fatal("recommendation null after a planning cycle")
	}
	if h := payload.History[grown]; h.ToInstances <= h.FromInstances {
		t.Fatalf("grow entry %+v does not add instances", h)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), "planner_actions_total") ||
		!strings.Contains(string(body), "planner_plans_total") {
		t.Fatalf("metrics missing planner counters (code %d):\n%s", code, body)
	}

	// The ignored recommendation escalates through the alerter.
	for {
		code, body := get("/alerts")
		if code != http.StatusOK {
			t.Fatalf("alerts = %d", code)
		}
		if strings.Contains(string(body), "plan_grow") {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before a plan alert: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no plan_grow alert before deadline:\n%s", string(body))
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := <-done; err != nil {
		t.Fatalf("capplan serve: %v\n%s", err, out.String())
	}
}

func TestServeRejectsUnknownFsyncPolicy(t *testing.T) {
	var out bytes.Buffer
	err := Capplan(context.Background(), []string{
		"serve", "-ingest", "-store-dir", t.TempDir(), "-store-fsync", "everysecond", "-listen", "127.0.0.1:0",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "fsync policy") {
		t.Fatalf("err = %v, want unknown fsync policy", err)
	}
}

// Ingest mode trains only once the window's final hour is complete on
// every series: 15-minute polls through 23:00 reach the start of a
// one-day window's last hour, not its end.
func TestIngestTrainingWaitsForFullWindow(t *testing.T) {
	start := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	repo := metricstore.New()
	put := func(metric string, at time.Time) {
		repo.Put(metricstore.Sample{Target: "cdbm011", Metric: metric, At: at, Value: 1})
	}
	for at := start; !at.After(start.Add(23 * time.Hour)); at = at.Add(15 * time.Minute) {
		put("cpu", at)
		put("memory", at)
	}
	if _, ok := trainingWindow(repo, "", 24); ok {
		t.Fatal("trained with the window's last hour holding one of its four polls")
	}
	put("cpu", start.Add(24*time.Hour))
	if _, ok := trainingWindow(repo, "", 24); ok {
		t.Fatal("trained before every series completed the window")
	}
	put("memory", start.Add(24*time.Hour))
	first, ok := trainingWindow(repo, "", 24)
	if !ok || !first.Equal(start) {
		t.Fatalf("trainingWindow = %v, %v; want %v, true", first, ok, start)
	}
}
