package cli

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The serve hour is pinned by its outcome: the champion each key ends
// with and how many refits the monitor ran, by reason and by mode. Both
// hour sources — the simulated replay and the remote-write feed — run
// the same step, so a refactor of the hourly loop must leave these
// numbers exactly as they are.

var (
	// "workload trained key=K … champion=L" from the initial fleet run
	// and "champion refitted key=K … champion=L" from each refit;
	// advances keep the champion.
	pinChampLine  = regexp.MustCompile(`(?m)(?:workload trained|champion refitted) key=(\S+) .*?champion=("(?:[^"\\]|\\.)*"|\S+)`)
	pinRefitsLine = regexp.MustCompile(`(?m)^monitor_refits_total\{reason="([^"]+)",refit_mode="([^"]+)"\} (\d+)$`)
)

// servePin is the outcome a serve run is pinned by.
type servePin struct {
	champions        map[string]string
	byReason, byMode map[string]int64
}

func parseServePin(t *testing.T, out string) servePin {
	t.Helper()
	p := servePin{champions: map[string]string{}, byReason: map[string]int64{}, byMode: map[string]int64{}}
	for _, m := range pinChampLine.FindAllStringSubmatch(out, -1) {
		label := m[2]
		if uq, err := strconv.Unquote(label); err == nil {
			label = uq
		}
		p.champions[m[1]] = label
	}
	for _, m := range pinRefitsLine.FindAllStringSubmatch(out, -1) {
		n, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", m[0], err)
		}
		p.byReason[m[1]] += n
		p.byMode[m[2]] += n
	}
	return p
}

func (p servePin) check(t *testing.T, want servePin, log string) {
	t.Helper()
	if len(p.champions) != len(want.champions) {
		t.Errorf("%d champions, want %d", len(p.champions), len(want.champions))
	}
	for key, w := range want.champions {
		if got := p.champions[key]; got != w {
			t.Errorf("%s: champion %q, want %q", key, got, w)
		}
	}
	for _, m := range []struct {
		what      string
		got, want map[string]int64
	}{{"reason", p.byReason, want.byReason}, {"mode", p.byMode, want.byMode}} {
		keys := map[string]bool{}
		for k := range m.got {
			keys[k] = true
		}
		for k := range m.want {
			keys[k] = true
		}
		for k := range keys {
			if m.got[k] != m.want[k] {
				t.Errorf("refits with %s %q: %d, want %d", m.what, k, m.got[k], m.want[k])
			}
		}
	}
	if t.Failed() {
		t.Logf("serve output:\n%s", log)
	}
}

// waitForOutput polls a background command's output for substr, failing
// if the command exits first or the deadline passes.
func waitForOutput(t *testing.T, out *syncBuffer, done <-chan error, substr string, deadline time.Time) string {
	t.Helper()
	for {
		if s := out.String(); strings.Contains(s, substr) {
			return s
		}
		select {
		case err := <-done:
			t.Fatalf("command exited before %q: %v\n%s", substr, err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q before the deadline:\n%s", substr, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeHourPinnedReplay replays two simulated days with a level
// shift injected, so drift and degradation refits run beside the
// horizon advances.
func TestServeHourPinnedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet and replays two simulated days")
	}
	var out syncBuffer
	err := Capplan(context.Background(), []string{
		"serve", "-exp", "oltp", "-days", "10", "-seed", "7",
		"-technique", "hes", "-max-candidates", "4",
		"-hours", "48", "-shift-after", "12",
		"-tick", "0", "-self-scrape=false", "-plan", "-metrics",
		"-listen", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatalf("capplan serve: %v\n%s", err, out.String())
	}
	log := out.String()
	parseServePin(t, log).check(t, servePin{
		champions: map[string]string{
			"cdbm011/cpu":          "HES Holt-Winters-damped",
			"cdbm011/logical_iops": "HES Holt-Winters-damped",
			"cdbm011/memory":       "HES Holt-damped",
			"cdbm012/cpu":          "HES SES",
			"cdbm012/logical_iops": "HES Holt-Winters-damped",
			"cdbm012/memory":       "HES Holt-Winters-damped",
		},
		byReason: map[string]int64{"degraded": 13, "drift": 3, "horizon": 2},
		byMode:   map[string]int64{"advance": 2, "warm": 16},
	}, log)
}

// TestServeHourPinnedIngest feeds `serve -ingest` through `capplan
// push`. A first serve with a training window longer than the feed
// only collects into a WAL; the pinned serve then starts on that WAL,
// so its training window is complete on the first look and the run
// does not depend on how the pushed batches interleave with serve's
// polling.
func TestServeHourPinnedIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("ships a workload over HTTP, trains a fleet and follows two days")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var colOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Capplan(ctx, []string{
			"serve", "-ingest", "-store-dir", dir, "-days", "30",
			"-tick", "0", "-self-scrape=false", "-listen", "127.0.0.1:0",
		}, &colOut)
	}()
	deadline := time.Now().Add(60 * time.Second)
	banner := waitForOutput(t, &colOut, done, "waiting for", deadline)
	addr := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`).FindStringSubmatch(banner)
	if addr == nil {
		t.Fatalf("no listen address in output:\n%s", banner)
	}
	var pushOut syncBuffer
	if err := Capplan(context.Background(), []string{
		"push", "-collector", "http://" + addr[1], "-exp", "oltp", "-days", "10", "-seed", "7",
	}, &pushOut); err != nil {
		t.Fatalf("capplan push: %v\n%s", err, pushOut.String())
	}
	if !strings.Contains(pushOut.String(), " 0 dropped") {
		t.Fatalf("push reported loss:\n%s", pushOut.String())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("collecting serve: %v\n%s", err, colOut.String())
	}

	var out syncBuffer
	err := Capplan(context.Background(), []string{
		"serve", "-ingest", "-store-dir", dir, "-days", "7",
		"-technique", "hes", "-max-candidates", "4",
		"-hours", "48", "-tick", "0", "-self-scrape=false", "-plan", "-metrics",
		"-listen", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatalf("capplan serve -ingest: %v\n%s", err, out.String())
	}
	log := out.String()
	if !strings.Contains(log, "followed 48 ingested hours") {
		t.Fatalf("serve did not follow 48 hours:\n%s", log)
	}
	parseServePin(t, log).check(t, servePin{
		champions: map[string]string{
			"cdbm011/cpu":          "HES Holt-Winters",
			"cdbm011/logical_iops": "HES Holt-Winters-damped",
			"cdbm011/memory":       "HES Holt-Winters",
			"cdbm012/cpu":          "HES Holt-Winters",
			"cdbm012/logical_iops": "HES Holt-Winters",
			"cdbm012/memory":       "HES Holt-Winters-damped",
		},
		byReason: map[string]int64{"degraded": 9, "drift": 1, "horizon": 5},
		byMode:   map[string]int64{"advance": 5, "warm": 10},
	}, log)
}
