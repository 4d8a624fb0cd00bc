package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"burstsnn/internal/benchkit"
	"burstsnn/internal/coding"
	"burstsnn/internal/convert"
	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/mathx"
	"burstsnn/internal/serve"
)

// The hot-path benchmark mode (-hotpath FILE) measures the simulator and
// serving fast paths against the retained reference implementations and
// writes a machine-readable artifact, so CI records a perf trajectory
// run over run instead of throwing benchmark output away.

type hotpathBench struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"nsPerOp"`
	AllocsPerOp int64              `json:"allocsPerOp"`
	BytesPerOp  int64              `json:"bytesPerOp"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type hotpathArtifact struct {
	Schema     string         `json:"schema"` // bump on layout changes
	When       string         `json:"when"`
	GoVersion  string         `json:"goVersion"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPUs       int            `json:"cpus"`
	Benchmarks []hotpathBench `json:"benchmarks"`
	// Speedups maps a benchmark family to nsPerOp(ref)/nsPerOp(fast).
	Speedups map[string]float64 `json:"speedups"`
}

func record(name string, r testing.BenchmarkResult) hotpathBench {
	b := hotpathBench{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		b.Metrics = map[string]float64{}
		for k, v := range r.Extra {
			b.Metrics[k] = v
		}
	}
	return b
}

// hotpathModel trains the small conv-bearing LeNetMini used by the
// end-to-end benches (same recipe as the bench_test micro model).
func hotpathModel() (*dnn.Network, *dataset.Set, error) {
	cfg := dataset.DefaultTexturesConfig()
	cfg.TrainPerClass, cfg.TestPerClass = 40, 8
	set := dataset.SynthTextures(cfg)
	net, err := dnn.Build(dnn.LeNetMini(3, 16, 16, 10), mathx.NewRNG(1))
	if err != nil {
		return nil, nil, err
	}
	dnn.Train(net, set, dnn.NewAdam(0.005), dnn.TrainConfig{Epochs: 3, BatchSize: 32, Seed: 2})
	return net, set, nil
}

func runHotpath(outPath string) error {
	art := hotpathArtifact{
		Schema:    "burstsnn/bench-hotpath/v1",
		When:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Speedups:  map[string]float64{},
	}
	add := func(name string, fn func(b *testing.B)) hotpathBench {
		fmt.Fprintf(os.Stderr, "hotpath: %s...\n", name)
		res := record(name, testing.Benchmark(fn))
		art.Benchmarks = append(art.Benchmarks, res)
		return res
	}
	pair := func(family string, fast, ref hotpathBench) {
		if fast.NsPerOp > 0 {
			art.Speedups[family] = ref.NsPerOp / fast.NsPerOp
		}
	}

	// Per-layer micro-benchmarks on the canonical benchkit workloads
	// (identical to the go-test Hotpath benchmarks).
	stepBench := func(in []coding.Event, step func(int, float64, []coding.Event) []coding.Event) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step(i, 1, in)
			}
		}
	}
	convLayer, convIn := benchkit.HotpathConv()
	pair("conv-step",
		add("conv-step/fast", stepBench(convIn, convLayer.Step)),
		add("conv-step/ref", stepBench(convIn, convLayer.StepSlow)))

	denseLayer, denseIn := benchkit.HotpathDense()
	pair("dense-step",
		add("dense-step/fast", stepBench(denseIn, denseLayer.Step)),
		add("dense-step/ref", stepBench(denseIn, denseLayer.StepSlow)))

	// End-to-end conv-bearing model: train once, convert per hybrid.
	net, set, err := hotpathModel()
	if err != nil {
		return err
	}
	conv, err := convert.Convert(net, set.Train, convert.DefaultOptions(coding.Phase, coding.Burst))
	if err != nil {
		return err
	}
	img := set.Test[0].Image
	runBench := func(ref bool) func(b *testing.B) {
		return func(b *testing.B) {
			conv.Net.Ref = ref
			defer func() { conv.Net.Ref = false }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conv.Net.Run(img, 64)
			}
		}
	}
	pair("snn-run",
		add("snn-run/fast", runBench(false)),
		add("snn-run/ref", runBench(true)))

	// The early-exit engine on one replica — allocsPerOp must be 0.
	policy := serve.DefaultExitPolicy(96)
	serve.Classify(conv.Net, img, policy)
	classify := add("serve-classify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve.Classify(conv.Net, img, policy)
		}
	})
	if classify.AllocsPerOp != 0 {
		fmt.Fprintf(os.Stderr, "hotpath: WARNING: serve-classify allocates %d objects/op, want 0\n",
			classify.AllocsPerOp)
	}

	// End-to-end serving throughput: batching queue + replica pool +
	// early exit under parallel load.
	srv := serve.New(serve.Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	model, err := srv.Register(serve.ModelConfig{
		Name:   "hotpath",
		Hybrid: core.NewHybrid(coding.Phase, coding.Burst),
		Steps:  96,
	}, net, set.Train)
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	add("serving-throughput", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s := set.Test[i%len(set.Test)]
				if _, err := srv.Classify(ctx, serve.ClassifyRequest{Model: "hotpath", Image: s.Image}); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		snap := model.Metrics().Snapshot()
		b.ReportMetric(snap.MeanSteps, "steps/req")
		b.ReportMetric(snap.EarlyExitRate*100, "early-exit%")
		// Per-stage mean latencies from the telemetry plane ride along in
		// the artifact, so the trajectory records where serving time goes,
		// not just how much of it there is.
		for _, st := range []string{"queue", "simulate", "readout"} {
			if ss, ok := snap.Stages[st]; ok && ss.Count > 0 {
				b.ReportMetric(ss.Mean, st+"-ms")
			}
		}
	})

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hotpath: artifact written to %s\n", outPath)
	for fam, s := range art.Speedups {
		fmt.Fprintf(os.Stderr, "hotpath: %-12s %.2fx\n", fam, s)
	}
	return nil
}

// compareHotpath is the perf-trajectory regression gate: it reads a
// previous BENCH_hotpath.json and the one just written and fails when a
// gated benchmark's ns/op regressed by more than tolerance (fractional,
// e.g. 0.20 = 20%). Reference-path benchmarks are informational and the
// parallel serving-throughput benchmark is too machine-sensitive, so
// only the fast-path/serve benchmarks gate. A schema or CPU-count change
// skips the comparison (see comparable).
func compareHotpath(prevPath, newPath string, tolerance float64) error {
	prevArt, err := loadArtifact[hotpathArtifact](prevPath)
	if err != nil {
		return err
	}
	cur, err := loadArtifact[hotpathArtifact](newPath)
	if err != nil {
		return err
	}
	if !comparable("hotpath", prevArt.Schema, cur.Schema, prevArt.CPUs, cur.CPUs) {
		return nil
	}
	prev := map[string]hotpathBench{}
	for _, b := range prevArt.Benchmarks {
		prev[b.Name] = b
	}
	gated := func(name string) bool {
		return !strings.HasSuffix(name, "/ref") && name != "serving-throughput"
	}
	var failures []string
	for _, c := range cur.Benchmarks {
		name := c.Name
		p, ok := prev[name]
		if !ok || !gated(name) || p.NsPerOp <= 0 {
			continue
		}
		ratio := c.NsPerOp/p.NsPerOp - 1
		mark := " "
		if ratio > tolerance {
			mark = "!"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, p.NsPerOp, c.NsPerOp, ratio*100))
		}
		fmt.Fprintf(os.Stderr, "hotpath:%s %-18s %+.1f%% vs previous\n", mark, name, ratio*100)
	}
	if len(failures) > 0 {
		return fmt.Errorf("hot-path regression beyond %.0f%%:\n  %s", tolerance*100, strings.Join(failures, "\n  "))
	}
	return nil
}
