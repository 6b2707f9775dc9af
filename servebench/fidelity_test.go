package main

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
)

// TestHourMatchesCapplanServe pins the assembled hour to the program:
// one cluster, a fixed seed and three days of replay through the
// benchmark must end with the same champion per target and the same
// refit counts by reason and mode as `capplan serve` with the matching
// flags, read from serve's logs and its -metrics dump.
func TestHourMatchesCapplanServe(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a cluster twice and replays three days")
	}
	const seed, hours = 42, 72
	for _, c := range []struct {
		exp       experiments.Kind
		technique string
		tech      core.Technique
	}{
		{experiments.OLTP, "sarimax", core.TechniqueSARIMAX},
		{experiments.OLAP, "hes", core.TechniqueHES},
	} {
		t.Run(string(c.exp)+"-"+c.technique, func(t *testing.T) {
			var log bytes.Buffer
			err := cli.CapplanServe(context.Background(), []string{
				"-exp", string(c.exp), "-technique", c.technique,
				"-days", "14", "-seed", strconv.Itoa(seed), "-hours", strconv.Itoa(hours),
				"-tick", "0", "-self-scrape=false", "-plan", "-metrics",
				"-listen", "127.0.0.1:0",
			}, &log)
			if err != nil {
				t.Fatalf("capplan serve: %v\n%s", err, log.String())
			}
			wantChamps, wantReason, wantMode := parseServe(t, log.String())

			sp := spec{
				name: "fidelity", kind: c.exp, technique: c.tech, horizon: 24, maxCandidates: 8,
				clusters: 1, days: 14,
			}
			out, err := runWorkload(context.Background(), sp, options{seed: seed, out: t.TempDir()}, hours, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !out.res.Correct {
				t.Fatalf("benchmark output checks failed")
			}
			if len(out.champions) != len(wantChamps) || len(wantChamps) != 6 {
				t.Fatalf("benchmark has %d champions, serve %d (want 6)", len(out.champions), len(wantChamps))
			}
			for key, want := range wantChamps {
				if got := out.champions[key]; got != want {
					t.Errorf("%s: benchmark champion %q, serve %q", key, got, want)
				}
			}
			for _, m := range []struct {
				what      string
				got, want map[string]int64
			}{{"reason", out.byReason, wantReason}, {"mode", out.byMode, wantMode}} {
				if len(m.want) == 0 {
					t.Errorf("serve reported no refits by %s", m.what)
				}
				for k := range union(m.got, m.want) {
					if m.got[k] != m.want[k] {
						t.Errorf("refits with %s %q: benchmark %d, serve %d", m.what, k, m.got[k], m.want[k])
					}
				}
			}
		})
	}
}

// TestIngestOnlyRun runs a small ingest-only workload end to end: every
// POST answered, every hourly read-back and both store checks passing,
// no model trained, and a round that outgrows one batch split as the
// shipper splits it.
func TestIngestOnlyRun(t *testing.T) {
	sp := specs["ingest-wal"]
	sp.clusters = 90 // 540 targets: each round is one batch of 500 and one of the rest
	const hours = 3
	out, err := runWorkload(context.Background(), sp, options{seed: 3, out: t.TempDir()}, hours, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r := out.res
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("correct %v, failed %d", r.Correct, r.Failed)
	}
	if len(out.champions) != 0 {
		t.Errorf("ingest-only run trained %d models", len(out.champions))
	}
	if want := hours + hours*4*2; r.Attempted != want {
		t.Errorf("attempted %d (hours + POSTs), want %d", r.Attempted, want)
	}
	for _, name := range []string{"setup_s", "hour_ms_p50", "ingest_samples_per_s", "read_hour_ms_p50", "wal_bytes_per_sample", "heap_mb"} {
		if v := r.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

var (
	// "workload trained key=K champion=L" from the initial fleet run and
	// "champion refitted key=K … champion=L" from each refit; advances
	// keep the champion.
	champLine  = regexp.MustCompile(`(?m)(?:workload trained|champion refitted) key=(\S+) .*?champion=("(?:[^"\\]|\\.)*"|\S+)`)
	refitsLine = regexp.MustCompile(`(?m)^monitor_refits_total\{reason="([^"]+)",refit_mode="([^"]+)"\} (\d+)$`)
)

// parseServe reads the final champion per key and the refit counts by
// reason and mode from serve's output.
func parseServe(t *testing.T, out string) (champs map[string]string, byReason, byMode map[string]int64) {
	t.Helper()
	champs = map[string]string{}
	for _, m := range champLine.FindAllStringSubmatch(out, -1) {
		label := m[2]
		if uq, err := strconv.Unquote(label); err == nil {
			label = uq
		}
		champs[m[1]] = label
	}
	byReason, byMode = map[string]int64{}, map[string]int64{}
	for _, m := range refitsLine.FindAllStringSubmatch(out, -1) {
		n, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", m[0], err)
		}
		byReason[m[1]] += n
		byMode[m[2]] += n
	}
	return champs, byReason, byMode
}

func union(a, b map[string]int64) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}
