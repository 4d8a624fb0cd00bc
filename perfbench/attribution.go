package main

import (
	"sort"

	"burstsnn/internal/obs"
)

// attribution is one traced request's client-observed latency split
// along its blocking path (wire → fleet → batcher → engine), in
// milliseconds. unattributed is the residual, so the parts sum to
// client by construction; what the closure test checks is that no part
// is negative, i.e. no span is counted twice.
type attribution struct {
	client       float64
	wireClient   float64 // client round trip minus the handler: the load generator's own cost
	handlerSelf  float64 // handler minus the classify call it makes (and, on the fleet, routing)
	route        float64 // fleet routing: image hash plus ring walk
	proc         float64 // fleet: Worker.Classify minus the shard's own latency
	queue        float64 // batcher: admission queue and replica checkout wait
	form         float64 // batcher: this request's wait in its batch's forming window
	engine       float64 // encode + simulate + readout
	unattributed float64
	trace        obs.Trace
	shard        int
}

func (a attribution) parts() []float64 {
	return []float64{a.wireClient, a.handlerSelf, a.route, a.proc, a.queue, a.form, a.engine, a.unattributed}
}

// attribute splits one answered, traced request; ok is false when a
// span it needs was not recorded.
func attribute(mode string, rec *record, tr *tracer, book *traceBook, routeMs map[imageKey]float64) (attribution, bool) {
	a := attribution{client: ms(rec.lat)}
	inner := a.client // the server's own Classify latency, once known
	key := traceKey{0, rec.res.RequestID}
	switch mode {
	case modeHTTP, modeFleet:
		if rec.seq < 0 {
			return a, false
		}
		sp := &tr.spans[rec.seq]
		if sp.handler == 0 {
			return a, false
		}
		handler := ms(sp.handler)
		a.wireClient = a.client - handler
		if mode == modeHTTP {
			inner = rec.res.LatencyMs
			a.handlerSelf = handler - inner
			break
		}
		if sp.workerCalls == 0 {
			return a, false
		}
		worker := ms(sp.worker)
		a.route = routeMs[rec.key]
		a.handlerSelf = handler - worker - a.route
		inner = sp.childLatMs
		a.proc = worker - inner
		key = traceKey{sp.shard, sp.childID}
		a.shard = sp.shard
	}
	t, ok := book.get(key)
	if !ok {
		return a, false
	}
	a.trace = t
	// The program's queue span runs from the request's enqueue to its
	// batch's execution start; its form span is the batch's whole
	// forming window, which a request that joined the batch late only
	// partly waited through. The request's forming wait is the part of
	// its queue span the window can cover.
	a.form = min(t.FormMs, t.QueueMs)
	a.queue = t.QueueMs - a.form
	a.engine = t.EncodeMs + t.SimulateMs + t.ReadoutMs
	a.unattributed = inner - a.queue - a.form - a.engine
	return a, true
}

// lanesMean reconstructs microbatches from their requests' traces and
// returns the mean requests per batch. Every request of one batch
// carries the batch's exact forming duration and starts executing at
// the same instant (trace start + queue span, to within the few
// microseconds between Classify entry and enqueue).
func lanesMean(as []attribution) (float64, int) {
	type group struct {
		shard int
		form  float64
	}
	groups := map[group][]float64{}
	n := 0
	for _, a := range as {
		if a.trace.Cached {
			continue
		}
		exec := float64(a.trace.Start.UnixNano())/1e6 + a.trace.QueueMs
		g := group{a.shard, a.trace.FormMs}
		groups[g] = append(groups[g], exec)
		n++
	}
	batches := 0
	for _, execs := range groups {
		sort.Float64s(execs)
		batches++
		for i := 1; i < len(execs); i++ {
			if execs[i]-execs[i-1] > 1 {
				batches++
			}
		}
	}
	return ratio(float64(n), float64(batches)), batches
}
