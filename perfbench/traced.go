package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/experiments"
	"burstsnn/internal/fleet"
	"burstsnn/internal/serve"
)

// counters are the program's own /metrics counters the per-layer
// metrics difference over the traced phase.
type counters struct {
	quantHits, quantMisses int64
	histHits, histMisses   int64
	dispatched, fallbacks  []int64 // per shard (fleet)
	respawns               int64
}

func (s *system) counters() (counters, error) {
	var c counters
	var snap serve.Snapshot
	if s.fl != nil {
		fs := s.fl.Snapshot()
		snap = fs.Models[s.wl.Model].Counters
		for _, sh := range fs.PerShard {
			c.dispatched = append(c.dispatched, sh.Dispatched)
			c.fallbacks = append(c.fallbacks, sh.Fallbacks)
			c.respawns += sh.Respawns
		}
	} else {
		m, err := s.srv.Registry().Get(s.wl.Model)
		if err != nil {
			return c, err
		}
		snap = m.Metrics().Snapshot()
	}
	c.quantHits, c.quantMisses = snap.EncoderCacheHits, snap.EncoderCacheMisses
	c.histHits, c.histMisses = snap.ExitHistoryHits, snap.ExitHistoryMisses
	return c, nil
}

// traceInputs is everything the per-layer report is computed from.
type traceInputs struct {
	tr      *tracer
	book    *traceBook
	phA     *phase // untraced half of the run
	phB     *phase // traced half
	c0, c1  counters
	routeMs map[imageKey]float64
	setups  []setupTimes
	check   checkStats
	replay  *replayResult
	allocs  float64
	bytes   float64
}

// tracedPhase runs the traced half: spans on, the program's trace rings
// collected, counters taken on both sides.
func tracedPhase(ctx context.Context, sys *system, tr *tracer, runPhase func(int, time.Duration) (*phase, error), d time.Duration) (*traceInputs, error) {
	tin := &traceInputs{tr: tr, book: newTraceBook()}
	var err error
	if tin.c0, err = sys.counters(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	polled := make(chan error, 1)
	if sys.fl != nil {
		go func() { polled <- pollShardTraces(sys, tin.book, stop) }()
	} else {
		polled <- nil
	}
	tr.on.Store(true)
	tin.phB, err = runPhase(streamTraced, d)
	tr.on.Store(false)
	close(stop)
	if perr := <-polled; err == nil {
		err = perr
	}
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	if sys.srv != nil {
		tin.book.add(0, sys.srv.Traces().Recent(0))
	}
	if tin.c1, err = sys.counters(); err != nil {
		return nil, err
	}
	if tin.c1.respawns > 0 {
		return nil, fmt.Errorf("%d fleet shard respawns during the run", tin.c1.respawns)
	}
	return tin, nil
}

// visitRoute returns the oracle visitor that times the fleet's routing
// decision for each image — coding.HashImage plus the ring walk
// Fleet.Classify makes (fleet.Ring.Sequence over every shard) — on a
// ring of the fleet's shape. nil for other workloads.
func (t *traceInputs) visitRoute(wl *Workload) func(imageKey, []float64) {
	if wl.Mode != modeFleet {
		return nil
	}
	shards := runtime.NumCPU()
	ring, err := fleet.NewRing(shards, 0)
	if err != nil {
		return nil
	}
	t.routeMs = map[imageKey]float64{}
	return func(k imageKey, image []float64) {
		if _, ok := t.routeMs[k]; ok {
			return
		}
		times := make([]float64, 5)
		for i := range times {
			start := time.Now()
			ring.Sequence(coding.HashImage(image), shards)
			times[i] = ms(time.Since(start))
		}
		t.routeMs[k] = median(times)
	}
}

// replayImages are the workload's own first measured images, as many as
// keep the replays to a fraction of a second.
func replayImages(ctx context.Context, om *serve.Model, gen generator, wl *Workload) (*replayResult, error) {
	n := 256
	if wl.Model == "textures10" {
		n = 96
	}
	var imgs [][]float64
	for c := 0; len(imgs) < n; c++ {
		for _, s := range gen.chunk(streamMeasure, c) {
			if len(imgs) < n {
				imgs = append(imgs, s.Image)
			}
		}
	}
	return replay(ctx, om, imgs)
}

// allocReplay counts heap allocations per in-process Server.Classify
// call at concurrency one, on a fresh server with the workload's model.
func allocReplay(ctx context.Context, m *experiments.Model, wl *Workload, gen generator) (allocs, bytes float64, err error) {
	srv := serve.New(serverConfig(false))
	defer srv.Shutdown(context.Background())
	if _, err := srv.Register(modelConfig(wl.Model), m.Net, m.Set.Train); err != nil {
		return 0, 0, err
	}
	classify := func(c int) error {
		for _, s := range gen.chunk(streamReplay, c) {
			if _, err := srv.Classify(ctx, serve.ClassifyRequest{Model: wl.Model, Image: s.Image}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := classify(0); err != nil { // warm
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for c := 1; c <= 2; c++ {
		if err := classify(c); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(2 * chunkSize)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// perLayerReport computes the traced run's metrics.
func perLayerReport(wl *Workload, t *traceInputs) *report {
	r := newReport(perLayerMetrics)
	var as []attribution
	traced, shed := 0, 0
	var reqBytes []float64
	cached := 0
	for i := range t.phB.recs {
		rec := &t.phB.recs[i]
		if rec.fate == fateShed {
			shed++
		}
		if rec.fate != fateOK {
			continue
		}
		traced++
		if rec.res.Cached {
			cached++
		}
		if rec.seq >= 0 {
			reqBytes = append(reqBytes, float64(t.tr.spans[rec.seq].reqBytes))
		}
		if a, ok := attribute(wl.Mode, rec, t.tr, t.book, t.routeMs); ok {
			as = append(as, a)
		}
	}
	pick := func(f func(attribution) float64, uncachedOnly bool) []float64 {
		var vs []float64
		for _, a := range as {
			if uncachedOnly && a.trace.Cached {
				continue
			}
			vs = append(vs, f(a))
		}
		return vs
	}
	onWire := wl.Mode != modeOpen
	onFleet := wl.Mode == modeFleet
	setQ := func(name string, vs []float64, p float64, on bool) {
		if !on {
			r.set(name, 0, 0)
			return
		}
		r.set(name, quantile(vs, p), len(vs))
	}
	self := pick(func(a attribution) float64 { return a.handlerSelf }, false)
	setQ("wire.handler_self_ms_p50", self, 0.5, onWire)
	setQ("wire.handler_self_ms_p99", self, 0.99, onWire)
	setQ("wire.client_ms_p50", pick(func(a attribution) float64 { return a.wireClient }, false), 0.5, onWire)
	r.set("wire.req_bytes", mean(reqBytes), len(reqBytes))
	proc := pick(func(a attribution) float64 { return a.proc }, false)
	setQ("wire.proc_ms_p50", proc, 0.5, onFleet)
	setQ("wire.proc_ms_p99", proc, 0.99, onFleet)
	setQ("fleet.route_ms_p50", pick(func(a attribution) float64 { return a.route }, false), 0.5, onFleet)

	var disp []float64
	total, fallbacks := 0.0, 0.0
	for i := range t.c1.dispatched {
		d := float64(t.c1.dispatched[i] - t.c0.dispatched[i])
		disp = append(disp, d)
		total += d
		fallbacks += float64(t.c1.fallbacks[i] - t.c0.fallbacks[i])
	}
	r.set("fleet.fallback_share", ratio(fallbacks, total), int(total))
	skew := 0.0
	for _, d := range disp {
		skew = max(skew, ratio(d, mean(disp)))
	}
	r.set("fleet.shard_skew", skew, int(total))

	r.set("cache.resp_hit_share", ratio(float64(cached), float64(traced)), traced)
	qh, qm := t.c1.quantHits-t.c0.quantHits, t.c1.quantMisses-t.c0.quantMisses
	r.set("cache.quant_hit_share", ratio(float64(qh), float64(qh+qm)), int(qh+qm))
	hh, hm := t.c1.histHits-t.c0.histHits, t.c1.histMisses-t.c0.histMisses
	r.set("cache.exit_history_hit_share", ratio(float64(hh), float64(hh+hm)), int(hh+hm))

	form := pick(func(a attribution) float64 { return a.form }, true)
	r.set("batcher.form_ms_p50", quantile(form, 0.5), len(form))
	queue := pick(func(a attribution) float64 { return a.queue }, true)
	r.set("batcher.queue_ms_p99", quantile(queue, 0.99), len(queue))
	un := pick(func(a attribution) float64 { return a.unattributed }, false)
	r.set("batcher.unattributed_ms_p50", quantile(un, 0.5), len(un))
	r.set("batcher.unattributed_ms_p99", quantile(un, 0.99), len(un))
	lanes, batches := lanesMean(as)
	r.set("batcher.lanes_mean", lanes, batches)
	lock := pick(func(a attribution) float64 {
		if a.trace.Lockstep {
			return 1
		}
		return 0
	}, true)
	r.set("batcher.lockstep_share", mean(lock), len(lock))
	r.set("batcher.shed_share", ratio(float64(shed), float64(len(t.phB.recs))), len(t.phB.recs))
	r.set("batcher.allocs_per_req", t.allocs, 2*chunkSize)
	r.set("batcher.bytes_per_req", t.bytes, 2*chunkSize)

	engine := pick(func(a attribution) float64 { return a.engine }, true)
	r.set("engine.span_ms_p50", quantile(engine, 0.5), len(engine))
	rp := t.replay
	r.set("engine.seq_us_per_img", rp.seqUs, rp.images)
	for _, b := range []int{2, 4, 8} {
		r.set(fmt.Sprintf("engine.lockstep_us_per_img_b%d", b), rp.lockstepUs[b], rp.images/b*b)
	}
	r.set("engine.encode_us_per_img", rp.encodeUs, rp.images)
	r.set("engine.readout_us_per_img", rp.readoutUs, rp.images)
	r.set("engine.f32_spike_divergence_share", ratio(float64(t.check.divergent), float64(t.check.checked)), t.check.checked)
	r.set("engine.f32_exit_divergence_share", ratio(float64(t.check.exitDivergent), float64(t.check.checked)), t.check.checked)

	perStep := func(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
	r.set("snn.in.seq_ns_per_step", perStep(rp.seq.in, rp.seq.steps), rp.seq.steps)
	r.set("snn.in.events_per_img", rp.inEvents, rp.images)
	for i := 0; i < hiddenLayers; i++ {
		l := fmt.Sprintf("snn.L%d.", i)
		if i >= rp.layers {
			for _, m := range []string{"seq_ns_per_step", "lockstep_ns_per_lane_step", "spikes_per_img", "burst_share"} {
				r.set(l+m, 0, 0)
			}
			continue
		}
		r.set(l+"seq_ns_per_step", perStep(rp.seq.layers[i], rp.seq.steps), rp.seq.steps)
		r.set(l+"lockstep_ns_per_lane_step", perStep(rp.lock.layers[i], rp.lock.laneSteps), rp.lock.laneSteps)
		r.set(l+"spikes_per_img", rp.spikes[i], rp.images)
		r.set(l+"burst_share", rp.burstShare[i], rp.images)
	}
	r.set("snn.out.seq_ns_per_step", perStep(rp.seq.out, rp.seq.steps), rp.seq.steps)
	r.set("snn.out.lockstep_ns_per_lane_step", perStep(rp.lock.out, rp.lock.laneSteps), rp.lock.laneSteps)
	r.set("snn.seq_closure_share", ratio(float64(rp.seqTotal()), float64(rp.simulate)), rp.seq.steps)
	r.set("kernels.synops_per_img", rp.synopsPerIm, rp.images)
	var lockNs time.Duration
	for _, d := range rp.lock.layers {
		lockNs += d
	}
	r.set("kernels.lockstep_ns_per_synop", ratio(float64(lockNs+rp.lock.out), rp.lockSynop), int(rp.lockSynop))

	var train, register, spawn []float64
	for _, s := range t.setups {
		train = append(train, s.train.Seconds())
		register = append(register, s.register.Seconds())
		spawn = append(spawn, s.spawn.Seconds())
	}
	r.set("setup.train_s", median(train), len(train))
	r.set("setup.register_s", median(register), len(register))
	r.set("setup.spawn_s", median(spawn), len(spawn))

	p50 := func(ph *phase) (float64, int) {
		var lat []float64
		for _, rec := range ph.recs {
			if rec.fate == fateOK {
				lat = append(lat, ms(rec.lat))
			}
		}
		return quantile(lat, 0.5), len(lat)
	}
	untraced, _ := p50(t.phA)
	withTrace, n := p50(t.phB)
	r.set("trace.overhead_p50_share", ratio(withTrace, untraced)-1, n)
	r.set("trace.coverage_share", ratio(float64(len(as)), float64(traced)), traced)
	return r
}

// seqTotal is the sequential replay's per-stage time summed: the side
// of the snn closure that the engine's simulate span must match.
func (r *replayResult) seqTotal() time.Duration {
	total := r.seq.in + r.seq.out
	for _, d := range r.seq.layers {
		total += d
	}
	return total
}
