package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"burstsnn/internal/serve"
)

// Request fates. A request fails when it errors, is shed (HTTP 429 /
// serve.ErrOverloaded), or — found by the oracle check — answers with
// neither the sequential engine's outcome nor the float32 lockstep
// plane's.
const (
	fateOK = iota
	fateShed
	fateError
	fateMismatch
)

// record is one request as the client saw it.
type record struct {
	key   imageKey
	label int
	due   time.Time     // open loop: scheduled send time; closed loop: send time
	late  time.Duration // open loop: how late the generator sent it
	lat   time.Duration // client-observed latency, counted from due
	fate  int
	err   string
	res   serve.ClassifyResult
	seq   int // span slot of a traced HTTP request, -1 otherwise
}

// phase is one timed stretch of load.
type phase struct {
	recs       []record
	start, end time.Time // first send; last completion
}

// drive runs one phase of the workload's load for dur and returns every
// request it sent. Closed loops stop sending at the deadline and wait
// for the requests in flight; open loops send the whole schedule.
func drive(ctx context.Context, sys *system, feed <-chan *item, dur time.Duration, seed uint64) (*phase, error) {
	if sys.wl.Mode == modeOpen {
		return driveOpen(ctx, sys, feed, dur, seed)
	}
	return driveClosed(ctx, sys, feed, dur)
}

// driveClosed is the closed loop: wl.Clients keep-alive connections,
// each sending its next request when the previous answer is read.
func driveClosed(ctx context.Context, sys *system, feed <-chan *item, dur time.Duration) (*phase, error) {
	clients := sys.wl.Clients
	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	url := sys.base + "/v1/classify"

	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(dur)
	per := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				it, ok := <-feed
				if !ok {
					return
				}
				per[c] = append(per[c], post(ctx, client, url, it, sys.tracer.seq()))
			}
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	for _, rs := range per {
		ph.recs = append(ph.recs, rs...)
	}
	return ph, ctx.Err()
}

// post sends one request and reads the whole answer.
func post(ctx context.Context, client *http.Client, url string, it *item, seq int) record {
	rec := record{key: it.key, label: it.label, seq: seq}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(it.body))
	if err != nil {
		rec.fate, rec.err = fateError, err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	rec.due = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		rec.lat = time.Since(rec.due)
		rec.fate, rec.err = fateError, err.Error()
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.lat = time.Since(rec.due)
	switch {
	case err != nil:
		rec.fate, rec.err = fateError, err.Error()
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.fate, rec.err = fateShed, string(body)
	case resp.StatusCode != http.StatusOK:
		rec.fate, rec.err = fateError, fmt.Sprintf("%s: %s", resp.Status, body)
	default:
		if err := json.Unmarshal(body, &rec.res); err != nil {
			rec.fate, rec.err = fateError, err.Error()
		}
	}
	return rec
}

// driveOpen is the open loop: Poisson arrivals at wl.Rate from one
// scheduler goroutine, each request on its own goroutine, latency
// counted from the request's due time.
func driveOpen(ctx context.Context, sys *system, feed <-chan *item, dur time.Duration, seed uint64) (*phase, error) {
	n := int(sys.wl.Rate * dur.Seconds())
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e))
	offsets := make([]time.Duration, n)
	at := 0.0
	for i := range offsets {
		at += rng.ExpFloat64() / sys.wl.Rate
		offsets[i] = time.Duration(at * float64(time.Second))
	}
	recs := make([]record, n)
	ph := &phase{start: time.Now().Add(10 * time.Millisecond)}
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		it := <-feed
		due := ph.start.Add(offsets[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i] = record{key: it.key, label: it.label, due: due, late: time.Since(due), seq: -1}
		wg.Add(1)
		go func(rec *record, image []float64) {
			defer wg.Done()
			res, err := sys.srv.Classify(ctx, serve.ClassifyRequest{Model: sys.wl.Model, Image: image})
			rec.lat = time.Since(rec.due)
			switch {
			case err == nil:
				rec.res = res
			case isShed(err):
				rec.fate, rec.err = fateShed, err.Error()
			default:
				rec.fate, rec.err = fateError, err.Error()
			}
		}(&recs[i], it.image)
	}
	wg.Wait()
	ph.end = time.Now()
	ph.recs = recs
	return ph, ctx.Err()
}

func isShed(err error) bool {
	return err != nil && (errors.Is(err, serve.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded))
}
