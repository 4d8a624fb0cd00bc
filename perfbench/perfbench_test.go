package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"burstsnn/internal/experiments"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
	"burstsnn/internal/snn"
)

// BENCHMARK.json, the workload table and the metric tables must agree:
// the harness reads one, the benchmark runs the others.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var benchNames []string
	for _, w := range bench.Workloads {
		benchNames = append(benchNames, w.Name)
	}
	if !reflect.DeepEqual(names, benchNames) {
		t.Errorf("workloads: BENCHMARK.json %v, config.go %v", benchNames, names)
	}
	var e2e, perLayer []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(perLayer, perLayerMetrics) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", perLayer, perLayerMetrics)
	}
}

// The same seed gives the same requests; another seed gives others.
func TestFeedIsSeeded(t *testing.T) {
	take := func(seed uint64, n int) []*item {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		gen := generator{model: "digits", seed: seed}
		hot := gen.hotSet(8)
		feed := gen.feed(ctx, streamMeasure, true, hot, 0.8)
		var out []*item
		for len(out) < n {
			out = append(out, <-feed)
		}
		return out
	}
	a, b, c := take(3, 300), take(3, 300), take(4, 300)
	hot := 0
	for i := range a {
		if a[i].key != b[i].key || string(a[i].body) != string(b[i].body) {
			t.Fatalf("request %d differs between two runs of seed 3", i)
		}
		if a[i].key.stream == streamHot {
			hot++
		}
	}
	if string(a[0].body) == string(c[0].body) && string(a[1].body) == string(c[1].body) {
		t.Error("seeds 3 and 4 sent the same first requests")
	}
	if share := float64(hot) / float64(len(a)); share < 0.7 || share > 0.9 {
		t.Errorf("hot share %.2f, want about 0.8", share)
	}
	var req serve.ClassifyRequest
	if err := json.Unmarshal(a[0].body, &req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Image, a[0].image) {
		t.Error("the encoded body does not decode to the image")
	}
}

// Every answer that is neither the sequential engine's nor the float32
// lockstep plane's is a failed request; the plane's own answer, where it
// differs from the sequential engine's, is counted as divergence.
func TestOracleMarksMismatches(t *testing.T) {
	lab := testModel(t, "digits")
	om, err := oracleModel(lab, "digits")
	if err != nil {
		t.Fatal(err)
	}
	gen := generator{model: "digits", seed: 9}
	rep, err := om.Pool().Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var recs []*record
	for i := 0; i < 8; i++ {
		k := imageKey{streamMeasure, i}
		o := serve.Classify(rep.Net, gen.sample(k).Image, om.Config().Exit)
		recs = append(recs, &record{key: k, res: serve.ClassifyResult{Prediction: o.Prediction, Steps: o.Steps, Spikes: o.TotalSpikes()}})
	}
	om.Pool().Put(rep)
	recs[1].res.Prediction = (recs[1].res.Prediction + 1) % 10
	recs[2].res.Steps++
	recs[3].res.Spikes++
	recs[4].fate = fateShed
	// The plane's answers for two images, as if it had diverged from the
	// sequential engine on them.
	planeWant := map[imageKey]oracleOut{}
	plane := func(rep *serve.Replica, p serve.ExitPolicy) (engine, error) {
		return func(image []float64) oracleOut {
			for _, i := range []int{6, 7} {
				if reflect.DeepEqual(image, gen.sample(recs[i].key).Image) {
					return planeWant[recs[i].key]
				}
			}
			return outcome(serve.Classify(rep.Net, image, p))
		}, nil
	}
	recs[6].res.Steps++
	recs[7].res.Spikes++
	for _, i := range []int{6, 7} {
		planeWant[recs[i].key] = oracleOut{recs[i].res.Prediction, recs[i].res.Steps, recs[i].res.Spikes}
	}
	st, err := checkRecords(context.Background(), om, gen, nil, recs, plane, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.checked != 7 || st.mismatches != 3 || st.exitDivergent != 1 || st.divergent != 1 {
		t.Errorf("checked %d mismatches %d exit-divergent %d divergent %d, want 7 3 1 1",
			st.checked, st.mismatches, st.exitDivergent, st.divergent)
	}
	for i, want := range []int{fateOK, fateMismatch, fateMismatch, fateMismatch, fateShed, fateOK, fateOK, fateOK} {
		if recs[i].fate != want {
			t.Errorf("request %d: fate %d, want %d", i, recs[i].fate, want)
		}
	}
}

// The float32 plane at one lane answers like a lane of a full batch.
func TestLockstep32LaneIndependent(t *testing.T) {
	lab := testModel(t, "digits")
	om, err := oracleModel(lab, "digits")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := om.Pool().Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer om.Pool().Put(rep)
	one, err := lockstep32(rep, om.Config().Exit)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator{model: "digits", seed: 9}
	const b = 8
	var imgs [][]float64
	for i := 0; i < b; i++ {
		imgs = append(imgs, gen.sample(imageKey{streamMeasure, i}).Image)
	}
	net, err := rep.Net.Clone()
	if err != nil {
		t.Fatal(err)
	}
	bn, err := snn.NewBatchNetwork32(net, b)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := serve.ClassifyBatch(bn, imgs, policies(om.Config().Exit, b))
	for i, o := range outs {
		if got := one(imgs[i]); got != outcome(o) {
			t.Errorf("lane %d: one lane %+v, batch of %d %+v", i, got, b, outcome(o))
		}
	}
}

// Requests of one microbatch share its forming duration and execution
// start; lanesMean must rebuild the batches from that.
func TestLanesMean(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tr := func(startUs, queueMs, formMs float64) attribution {
		return attribution{trace: obs.Trace{Start: t0.Add(time.Duration(startUs * 1e3)), QueueMs: queueMs, FormMs: formMs}}
	}
	as := []attribution{
		tr(0, 2.0, 1.9), tr(500, 1.5, 1.9), tr(900, 1.1, 1.9), // one batch of three
		tr(3000, 2.0, 1.9), // same forming duration, a later batch
		tr(100, 2.0, 2.1),  // another batch of one
	}
	lanes, batches := lanesMean(as)
	if batches != 3 || math.Abs(lanes-5.0/3) > 1e-9 {
		t.Errorf("lanes %g over %d batches, want 5/3 over 3", lanes, batches)
	}
}

// The replayed per-stage times of the simulator must add up to the
// engine's own simulate span, and every stage must have run.
func TestSNNStagesSumToSimulate(t *testing.T) {
	m := testModel(t, "textures10")
	om, err := oracleModel(m, "textures10")
	if err != nil {
		t.Fatal(err)
	}
	gen := generator{model: "textures10", seed: 2}
	var imgs [][]float64
	for _, s := range gen.chunk(streamMeasure, 0)[:16] {
		imgs = append(imgs, s.Image)
	}
	rp, err := replay(context.Background(), om, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if rp.layers != hiddenLayers {
		t.Fatalf("LeNetMini has %d layers, the metrics name %d", rp.layers, hiddenLayers)
	}
	if share := float64(rp.seqTotal()) / float64(rp.simulate); math.Abs(share-1) > 0.05 {
		t.Errorf("snn stages sum to %.3f of the simulate span", share)
	}
	for i, d := range rp.seq.layers {
		if d <= 0 || rp.lock.layers[i] <= 0 || rp.spikes[i] <= 0 {
			t.Errorf("layer %d: seq %v lockstep %v spikes %g", i, d, rp.lock.layers[i], rp.spikes[i])
		}
	}
	if rp.synopsPerIm <= 0 || rp.lockSynop <= 0 || rp.lock.laneSteps <= rp.lock.steps {
		t.Errorf("synops %g lockstep synops %g lane-steps %d steps %d", rp.synopsPerIm, rp.lockSynop, rp.lock.laneSteps, rp.lock.steps)
	}
}

// On every workload's blocking path the self times plus the
// unattributed residual sum to the client-observed latency, and no part
// is negative — no span is counted twice.
func TestAttributionCloses(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			wl := w
			if wl.Mode == modeOpen {
				// Light enough to keep up under the race detector.
				wl.Rate = 60
			}
			snnserve := ""
			if wl.Mode == modeFleet {
				if testing.Short() {
					t.Skip("builds snnserve")
				}
				snnserve = buildSnnserve(t)
			}
			as, coverage := tracedAttributions(t, &wl, snnserve)
			if len(as) < 50 || coverage < 0.9 {
				t.Fatalf("%d attributed requests, coverage %.2f", len(as), coverage)
			}
			var client, sum float64
			for _, a := range as {
				parts := 0.0
				for i, p := range a.parts() {
					// Spans are read from one monotonic clock per process;
					// allow a few microseconds across the fleet's processes.
					if p < -0.01 {
						t.Errorf("part %d of a request is %.4f ms: %+v", i, p, a)
					}
					parts += p
				}
				if math.Abs(parts-a.client) > 1e-6 {
					t.Errorf("parts sum to %.6f ms, client saw %.6f ms", parts, a.client)
				}
				client += a.client
				sum += parts
			}
			if math.Abs(sum/client-1) > 1e-9 {
				t.Errorf("mean attribution %.6f of the client latency", sum/client)
			}
		})
	}
}

// tracedAttributions builds the workload, runs two seconds of traced
// load, and attributes every answered request.
func tracedAttributions(t *testing.T, wl *Workload, snnserve string) ([]attribution, float64) {
	t.Helper()
	ctx := context.Background()
	gen := generator{model: wl.Model, seed: 5}
	tr := newTracer(1 << 14)
	sys, err := buildSystem(wl, buildOptions{dir: t.TempDir(), snnserve: snnserve, tracer: tr, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	var hot *hotSet
	if wl.Mode == modeFleet {
		hot = gen.hotSet(wl.HotSet)
	}
	run := phaseRunner(ctx, sys, gen, hot)
	if hot != nil {
		if _, err := drive(ctx, sys, hot.primer(), time.Minute, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run(streamWarmup, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tin, err := tracedPhase(ctx, sys, tr, run, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	if visit := tin.visitRoute(wl); visit != nil {
		var keys []imageKey
		for _, r := range tin.phB.recs {
			keys = append(keys, r.key)
		}
		if err := images(ctx, gen, hot, keys, visit); err != nil {
			t.Fatal(err)
		}
	}
	var as []attribution
	answered := 0
	for i := range tin.phB.recs {
		rec := &tin.phB.recs[i]
		if rec.fate != fateOK {
			t.Fatalf("request failed: %s", rec.err)
		}
		answered++
		if a, ok := attribute(wl.Mode, rec, tr, tin.book, tin.routeMs); ok {
			as = append(as, a)
		}
	}
	return as, float64(len(as)) / float64(answered)
}

func testModel(t *testing.T, name string) *experiments.Model {
	t.Helper()
	sys, err := buildSystem(&Workload{Name: "t", Model: name, Mode: modeOpen, Rate: 1, LimitMs: 1}, buildOptions{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	return sys.model
}

// buildSnnserve compiles the fleet's worker binary for the test.
func buildSnnserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "snnserve")
	out, err := exec.Command("go", "build", "-o", bin, "burstsnn/cmd/snnserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build snnserve: %v\n%s", err, out)
	}
	return bin
}
