// Command benchcheck maintains the committed performance baseline,
// BENCH.json, and gates changes against it, in the spirit of benchstat
// but dependency-free. It parses standard `go test -bench -benchmem`
// output from stdin (or a file argument):
//
//	BenchmarkFitSARIMAX-8   100   17044828 ns/op   290772 B/op   70 allocs/op
//
// Two modes:
//
//	go test -bench ... | benchcheck -update
//	    rewrite the baseline from the measured numbers.
//
//	go test -bench ... | benchcheck
//	    compare against the baseline and exit non-zero on a large
//	    regression. allocs/op is machine-independent, so its gate is
//	    strict (default 1.25x + 16 absolute slack); bytes/op gets 1.5x;
//	    ns/op varies wildly across CI machines, so its gate is loose
//	    (default 8x) and only catches order-of-magnitude blow-ups.
//
// GOMAXPROCS suffixes (-8) are stripped so baselines written on one
// machine compare on another.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded statistics.
type Entry struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// Baseline is the committed JSON document.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note       string           `json:"note"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// ratioSpec is one -ratio assertion: measured ns/op of Num divided by
// measured ns/op of Den must not exceed Max. Unlike the baseline factors,
// a ratio compares two benchmarks from the same run on the same machine,
// so it is stable across hardware and can be gated tightly (e.g. a warm
// refit must cost at most 0.2x a cold one).
type ratioSpec struct {
	Num, Den string
	Max      float64
}

// ratioFlags collects repeated -ratio 'NameA/NameB<=X' flags.
type ratioFlags []ratioSpec

func (r *ratioFlags) String() string {
	parts := make([]string, len(*r))
	for i, s := range *r {
		parts[i] = fmt.Sprintf("%s/%s<=%g", s.Num, s.Den, s.Max)
	}
	return strings.Join(parts, ",")
}

func (r *ratioFlags) Set(v string) error {
	names, max, ok := strings.Cut(v, "<=")
	if !ok {
		return fmt.Errorf("ratio %q: want NameA/NameB<=X", v)
	}
	num, den, ok := strings.Cut(names, "/")
	if !ok || num == "" || den == "" {
		return fmt.Errorf("ratio %q: want NameA/NameB<=X", v)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(max), 64)
	if err != nil || x <= 0 {
		return fmt.Errorf("ratio %q: bad bound %q", v, max)
	}
	*r = append(*r, ratioSpec{Num: strings.TrimSpace(num), Den: strings.TrimSpace(den), Max: x})
	return nil
}

// checkRatios asserts every -ratio bound over the measured ns/op numbers,
// reporting each verdict; it returns the number of violations. Ratios are
// enforced in compare AND update modes — a baseline refresh must not bless
// numbers that break the relative-cost contract.
func checkRatios(measured map[string]Entry, ratios ratioFlags) int {
	failures := 0
	for _, r := range ratios {
		num, okN := measured[r.Num]
		den, okD := measured[r.Den]
		if !okN || !okD {
			fmt.Printf("  FAIL  ratio %s/%s: benchmark not measured\n", r.Num, r.Den)
			failures++
			continue
		}
		if den.NsOp <= 0 {
			fmt.Printf("  FAIL  ratio %s/%s: denominator ns/op is zero\n", r.Num, r.Den)
			failures++
			continue
		}
		got := num.NsOp / den.NsOp
		verdict := "ok"
		if got > r.Max {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("  %-5s ratio %s/%s = %.4f (max %g)\n", verdict, r.Num, r.Den, got, r.Max)
	}
	return failures
}

func main() {
	baselinePath := flag.String("baseline", "BENCH.json", "baseline JSON path")
	update := flag.Bool("update", false, "rewrite the baseline from the measured numbers")
	allocsFactor := flag.Float64("max-allocs-factor", 1.25, "fail when allocs/op exceeds baseline by this factor")
	bytesFactor := flag.Float64("max-bytes-factor", 1.5, "fail when bytes/op exceeds baseline by this factor")
	nsFactor := flag.Float64("max-ns-factor", 8, "fail when ns/op exceeds baseline by this factor")
	var ratios ratioFlags
	flag.Var(&ratios, "ratio", "assert measured ns/op ratio 'NameA/NameB<=X' (repeatable; enforced in compare and update modes)")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *update {
		if n := checkRatios(measured, ratios); n > 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: %d ratio assertion(s) violated; baseline not written\n", n)
			os.Exit(1)
		}
		doc := Baseline{
			Note:       "benchmark gate baseline; regenerate with `make bench-baseline`, compare with `make bench-check`",
			Benchmarks: measured,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(measured), *baselinePath)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var doc Baseline
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *baselinePath, err))
	}

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	failures := 0
	for _, name := range names {
		got := measured[name]
		want, ok := doc.Benchmarks[name]
		if !ok {
			fmt.Printf("  new   %-24s %s (no baseline entry)\n", name, got)
			continue
		}
		// Absolute slack keeps tiny baselines from failing on one stray
		// allocation or page.
		bad := exceeds(got.AllocsOp, want.AllocsOp, *allocsFactor, 16) ||
			exceeds(got.BytesOp, want.BytesOp, *bytesFactor, 4096) ||
			exceeds(got.NsOp, want.NsOp, *nsFactor, 0)
		verdict := "ok"
		if bad {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("  %-5s %-24s %s  (baseline %s)\n", verdict, name, got, want)
	}
	for name := range doc.Benchmarks {
		if _, ok := measured[name]; !ok {
			fmt.Printf("  gone  %-24s in baseline but not measured\n", name)
			failures++
		}
	}
	failures += checkRatios(measured, ratios)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d benchmark(s) regressed past the gate (allocs x%.2f, bytes x%.2f, ns x%.2f)\n",
			failures, *allocsFactor, *bytesFactor, *nsFactor)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmark(s) within the gate\n", len(names))
}

// String renders an entry compactly for the comparison report.
func (e Entry) String() string {
	return fmt.Sprintf("%.0f ns/op, %.0f B/op, %.0f allocs/op", e.NsOp, e.BytesOp, e.AllocsOp)
}

// exceeds reports whether got regressed past factor x baseline + slack.
func exceeds(got, base, factor, slack float64) bool {
	return got > base*factor+slack
}

// parseBench extracts Benchmark lines from `go test -bench -benchmem`
// output, averaging repeated runs (-count > 1) per benchmark.
func parseBench(f *os.File) (map[string]Entry, error) {
	sums := map[string]Entry{}
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Echo so the gate's log keeps the raw go test output too.
		fmt.Println(line)
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		var e Entry
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsOp = v
				seen = true
			case "B/op":
				e.BytesOp = v
			case "allocs/op":
				e.AllocsOp = v
			}
		}
		if !seen {
			continue
		}
		s := sums[name]
		s.NsOp += e.NsOp
		s.BytesOp += e.BytesOp
		s.AllocsOp += e.AllocsOp
		sums[name] = s
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, s := range sums {
		n := float64(counts[name])
		sums[name] = Entry{NsOp: s.NsOp / n, BytesOp: s.BytesOp / n, AllocsOp: s.AllocsOp / n}
	}
	return sums, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
