package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/fleet"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

// The traced run records spans from outside the program: a wrapper
// around the HTTP handler it serves, a wrapper around each fleet shard
// worker, and the stage spans the program already keeps in its trace
// rings. Nothing is added inside the program.

// seqHeader numbers a traced HTTP request so the handler wrapper can
// file its span where the client will look for it.
const seqHeader = "X-Perfbench-Seq"

type spanKey struct{}

// span is one traced request's outside-in timings.
type span struct {
	handler  time.Duration // wrapped handler wall time
	reqBytes int64         // request body bytes
	// fleet: the wrapped Worker.Classify calls the front made for the
	// request, and the answering shard's own report.
	worker      time.Duration
	workerCalls int
	childLatMs  float64
	childID     string
	shard       int
}

// tracer owns the spans of a traced phase. It is nil in untraced runs,
// where no wrapper is installed at all.
type tracer struct {
	on    atomic.Bool
	next  atomic.Int64
	spans []span
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

// seq hands out the next span slot, or -1 when tracing is off or full.
func (t *tracer) seq() int {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := int(t.next.Add(1) - 1)
	if i >= len(t.spans) {
		return -1
	}
	return i
}

// handler wraps next so that, while tracing is on, a numbered request's
// handler time and body size are recorded and its span rides the
// request context down to the fleet's workers.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		i, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || i < 0 || i >= len(t.spans) {
			next.ServeHTTP(w, r)
			return
		}
		sp := &t.spans[i]
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		sp.handler = time.Since(start)
		sp.reqBytes = r.ContentLength
	})
}

// procShard is the fleet.Worker the benchmark's WorkerFactory returns:
// the snnserve -worker process, with its Classify calls timed when the
// request carries a span.
type procShard struct {
	*fleet.ProcWorker
	shard int
}

func (w *procShard) Classify(ctx context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	sp, _ := ctx.Value(spanKey{}).(*span)
	if sp == nil {
		return w.ProcWorker.Classify(ctx, req)
	}
	start := time.Now()
	res, err := w.ProcWorker.Classify(ctx, req)
	sp.worker += time.Since(start)
	sp.workerCalls++
	if err == nil {
		sp.childLatMs, sp.childID, sp.shard = res.LatencyMs, res.RequestID, w.shard
	}
	return res, err
}

// traceKey names one server-side trace: the shard (0 for an in-process
// server) and the request id the server returned.
type traceKey struct {
	shard int
	id    string
}

// traceBook gathers the program's own per-request stage traces.
type traceBook struct {
	mu     sync.Mutex
	traces map[traceKey]obs.Trace
}

func newTraceBook() *traceBook { return &traceBook{traces: map[traceKey]obs.Trace{}} }

func (b *traceBook) add(shard int, ts []obs.Trace) {
	b.mu.Lock()
	for _, t := range ts {
		b.traces[traceKey{shard, t.ID}] = t
	}
	b.mu.Unlock()
}

func (b *traceBook) get(k traceKey) (obs.Trace, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.traces[k]
	return t, ok
}

// pollShardTraces reads every shard's GET /v1/trace ring until stop is
// closed, then once more. A shard keeps only its newest 256 traces, so
// the poll runs faster than a shard fills its ring.
func pollShardTraces(sys *system, book *traceBook, stop <-chan struct{}) error {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	poll := func() error {
		for i := 0; i < sys.fl.Shards(); i++ {
			w, ok := sys.fl.Worker(i).(*procShard)
			if !ok {
				continue
			}
			resp, err := client.Get("http://" + w.Addr() + "/v1/trace?n=256")
			if err != nil {
				return fmt.Errorf("shard %d traces: %w", i, err)
			}
			var page struct {
				Recent []obs.Trace `json:"recent"`
			}
			err = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("shard %d traces: %w", i, err)
			}
			book.add(i, page.Recent)
		}
		return nil
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return poll()
		case <-tick.C:
			if err := poll(); err != nil {
				return err
			}
		}
	}
}
