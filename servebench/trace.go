package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call of a traced run. Trace groups the spans
// of one serve hour, one set-up or one ingest POST; Parent is 0 for a
// root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
// The stack is the chain of open spans; the collector handler runs on
// the HTTP server's goroutine but only while the hour loop is blocked
// on that very POST, so one stack serves both (the mutex orders them).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	trace int64
	stack []int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span; a span opened with
// nothing open starts a new trace.
func (t *tracer) begin(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	sp := span{ID: t.next, Name: name, Start: int64(time.Since(t.epoch))}
	if n := len(t.stack); n > 0 {
		sp.Parent = t.stack[n-1]
	} else {
		t.trace = sp.ID
	}
	sp.Trace = t.trace
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, sp.ID)
	return sp.ID
}

// end closes span id (normally the innermost open span).
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := int64(time.Since(t.epoch))
	// Spans are appended in ID order starting at 1.
	t.spans[id-1].End = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, the call count, the total duration
// and the self time: a span's duration minus the part of it that its
// children cover. Children of one span never overlap (one goroutine
// runs the loop at a time), so their durations simply add up.
func selfTimes(spans []span) []layerSelf {
	child := make(map[int64]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	rows := map[string]*layerSelf{}
	for _, sp := range spans {
		r := rows[sp.Name]
		if r == nil {
			r = &layerSelf{Name: sp.Name}
			rows[sp.Name] = r
		}
		d := sp.End - sp.Start
		r.Count++
		r.Total += time.Duration(d)
		r.Self += time.Duration(d - child[sp.ID])
	}
	out := make([]layerSelf, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSelfTable prints the self-time table.
func writeSelfTable(w io.Writer, rows []layerSelf) {
	fmt.Fprintf(w, "%-24s %9s %12s %12s %10s\n", "layer", "calls", "self_ms", "total_ms", "self_us/call")
	for _, r := range rows {
		per := 0.0
		if r.Count > 0 {
			per = float64(r.Self) / float64(r.Count) / 1e3
		}
		fmt.Fprintf(w, "%-24s %9d %12.2f %12.2f %10.1f\n", r.Name, r.Count,
			float64(r.Self)/1e6, float64(r.Total)/1e6, per)
	}
}

// spanCost measures what recording one span costs on this machine, so
// the traced run can state its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	began := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe"))
	}
	return time.Since(began) / n
}
