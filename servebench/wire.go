package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/ingest"
	"repro/internal/metricstore"
	"repro/internal/obs"
)

// shipBatch is the shipper's default BatchSize: a poll round larger
// than this goes out as several POSTs.
const shipBatch = 500

// timedStore is the collector's sink: the repository, with every
// PutBatch timed as the metricstore layer.
type timedStore struct {
	*metricstore.Store
	lt *layerTimes
	tr *tracer
}

func (s timedStore) PutBatch(batch []metricstore.Sample) {
	id := s.tr.begin("metricstore.put_batch")
	began := time.Now()
	s.Store.PutBatch(batch)
	s.lt.add("metricstore.put_batch", time.Since(began))
	s.tr.end(id)
}

// wire is the remote-write path: an ingest.Collector behind a loopback
// HTTP server, and one keep-alive client connection to it.
type wire struct {
	srv    *http.Server
	done   chan error
	url    string
	client *http.Client
	lt     *layerTimes
	tr     *tracer

	posts, failed int
	samples       int
	wireBytes     int64
	postTimes     []float64 // seconds
	// pushSecs is the time spent in push so far: encoding, the POST and
	// draining the response.
	pushSecs float64
}

// startWire mounts a collector over repo, as `capplan serve -ingest`
// does (serve's -ingest-max-batch and -ingest-max-inflight defaults),
// and connects one client to it.
func startWire(repo *metricstore.Store, o *obs.Observer, lt *layerTimes, tr *tracer) (*wire, error) {
	col, err := ingest.NewCollector(ingest.ServerConfig{
		Store:       timedStore{Store: repo, lt: lt, tr: tr},
		MaxBatch:    50000,
		MaxInFlight: 4,
		Obs:         o,
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(ingest.Path, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin("ingest.collector")
		began := time.Now()
		col.ServeHTTP(w, r)
		lt.add("ingest.collector", time.Since(began))
		tr.end(id)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &wire{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + ingest.Path,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		lt: lt, tr: tr,
	}
	go func() { w.done <- w.srv.Serve(ln) }()
	return w, nil
}

// push encodes samples as one remote-write batch and POSTs it. It
// returns the HTTP status.
func (w *wire) push(samples []metricstore.Sample) (int, error) {
	batch := w.tr.begin("ingest.batch")
	defer w.tr.end(batch)
	pushed := time.Now()
	defer func() { w.pushSecs += time.Since(pushed).Seconds() }()

	id := w.tr.begin("ingest.encode")
	began := time.Now()
	var body bytes.Buffer
	err := ingest.EncodeBatchTraced(&body, samples, "")
	w.lt.add("ingest.encode", time.Since(began))
	w.tr.end(id)
	if err != nil {
		return 0, err
	}
	w.wireBytes += int64(body.Len())

	id = w.tr.begin("ingest.post")
	began = time.Now()
	code, err := w.post(body.Bytes())
	d := time.Since(began)
	w.tr.end(id)
	w.posts++
	w.postTimes = append(w.postTimes, d.Seconds())
	if err != nil || code != http.StatusNoContent {
		w.failed++
		return code, err
	}
	w.samples += len(samples)
	return code, nil
}

// post sends one encoded batch the way the shipper does and drains the
// response so the connection is reused.
func (w *wire) post(body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); cerr == nil {
		cerr = err
	}
	return resp.StatusCode, cerr
}

// close shuts the server down and waits for it to exit.
func (w *wire) close() error {
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = fmt.Errorf("servebench: collector server: %w", serr)
	}
	return err
}
