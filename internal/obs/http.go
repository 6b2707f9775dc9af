package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves the observer's metrics registry: Prometheus
// text by default, JSON with `?format=json`. A nil observer (or one
// without metrics) serves an empty exposition, so the endpoint can be
// registered unconditionally.
func MetricsHandler(o *Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reg := o.Registry()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
}

// TraceHandler serves the observer's recorded span trees: plain text by
// default, JSON with `?format=json`, newline-delimited JSON (one root
// span per line, ready for `jq`/log shippers) with `?format=jsonl`.
func TraceHandler(o *Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			buf, err := o.TraceJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(buf)
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			for _, sp := range o.Spans() {
				if err := enc.Encode(sp); err != nil {
					return
				}
			}
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			o.WriteSpanTree(w)
		}
	})
}

// ExemplarsPath is the exemplars endpoint's route on the shared mux.
const ExemplarsPath = "/api/v1/exemplars"

// ExemplarsHandler serves every histogram's bucket exemplars as a JSON
// array — the bridge from a latency band on /metrics to the trace that
// produced it. Without a registry it serves an empty array.
func ExemplarsHandler(o *Observer) http.Handler {
	return JSONHandler(func(*http.Request) any {
		if ex := o.Registry().Exemplars(); ex != nil {
			return ex
		}
		return []ExemplarSeries{}
	})
}

// JSONHandler serves body(req) as two-space-indented JSON, the shape of
// every JSON endpoint on the shared mux.
func JSONHandler(body func(*http.Request) any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body(req)) //nolint:errcheck // best-effort endpoint
	})
}

// HealthzHandler reports liveness: always 200 with a small JSON body
// carrying process uptime since `started`.
func HealthzHandler(started time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.3f}\n", time.Since(started).Seconds())
	})
}

// ReadyzHandler reports readiness: 200 once ready() returns true, 503
// before (e.g. while the initial fleet training is still running). A nil
// ready function means always ready.
func ReadyzHandler(ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if ready != nil && !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"not ready"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
}

// MuxOptions configures the unified observability endpoint.
type MuxOptions struct {
	// Started stamps the uptime origin for /healthz (zero → now).
	Started time.Time
	// Ready gates /readyz (nil → always ready).
	Ready func() bool
	// Extra maps additional paths (e.g. "/alerts", "/accuracy") onto
	// handlers supplied by the caller.
	Extra map[string]http.Handler
}

// NewServeMux builds the shared observability mux every command serves
// behind -listen: /healthz, /readyz, /metrics, /trace and the stdlib
// /debug/pprof profiles, plus any Extra endpoints.
func NewServeMux(o *Observer, opt MuxOptions) *http.ServeMux {
	if opt.Started.IsZero() {
		opt.Started = time.Now()
	}
	mux := http.NewServeMux()
	mux.Handle("/healthz", HealthzHandler(opt.Started))
	mux.Handle("/readyz", ReadyzHandler(opt.Ready))
	mux.Handle("/metrics", MetricsHandler(o))
	mux.Handle("/trace", TraceHandler(o))
	mux.Handle(ExemplarsPath, ExemplarsHandler(o))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range opt.Extra {
		mux.Handle(path, h)
	}
	return mux
}

// Serve listens on addr and serves h on a background goroutine until
// the returned listener is closed.
func Serve(addr string, h http.Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, h) //nolint:errcheck // ends when the listener closes
	return ln, nil
}
