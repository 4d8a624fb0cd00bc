// Command perfbench is the repository benchmark. It builds the serving
// stack for one workload, drives it with seeded load, checks every
// answer against the sequential engine and the float32 lockstep plane,
// and prints the workload's
// end-to-end metrics (or, with -trace 1, its per-layer metrics) as one
// JSON line on stdout. A human-readable report, with every metric's
// unit and sample count and the like-for-like record of the run, goes
// to stderr.
//
// Run it through perfbench/run.sh from the repository root, which
// builds it and the snnserve binary the fleet workload spawns:
//
//	bash perfbench/run.sh --workload mlp-http --seed 1 --seconds 10 --trace 0
//
// The workloads, their rates, latency limits and seeds are in config.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"burstsnn/internal/kernels"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runLimit bounds one run end to end; every phase honours it.
const runLimit = 170 * time.Second

// options are one run's command line.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	snnserve string
	work     string
}

// result is the JSON line printed last on stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload name (see config.go)")
		seed     = fs.Int64("seed", -1, "workload seed (negative: the default seed)")
		seconds  = fs.Float64("seconds", 10, "measured seconds (a traced run splits them between its untraced and traced phases)")
		trace    = fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end metrics")
		snnserve = fs.String("snnserve", ".bench_build/bin/snnserve", "snnserve binary for the fleet workload's shards")
		work     = fs.String("work", ".bench_build/work", "scratch directory for trained models")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o := options{seed: defaultSeed, seconds: *seconds, traced: *trace == 1, snnserve: *snnserve}
	if *seed >= 0 {
		o.seed = uint64(*seed)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	o.work = filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(o.work)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res, err := execute(ctx, wl, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one workload: set up (several times, for setup_s), warm
// up, measure, tear down, check every answer, and report.
func execute(ctx context.Context, wl *Workload, o options, log io.Writer) (*result, error) {
	kv(log, "workload", wl.Name, "seed", o.seed, "holdout_seed", holdoutSeed, "seconds", o.seconds, "traced", o.traced)
	kv(log, "nproc", runtime.NumCPU(), "gomaxprocs", runtime.GOMAXPROCS(0), "replicas", runtime.NumCPU(),
		"kernel", kernels.Kind(), "detected_tier", kernels.DetectedLevel(), "go", runtime.Version())
	kv(log, "mode", wl.Mode, "model", wl.Model, "clients", wl.Clients, "rate", wl.Rate, "limit_ms", wl.LimitMs)
	gen := generator{model: wl.Model, seed: o.seed}
	measure := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.traced {
		measure /= 2
		tr = newTracer(tracerCapacity(wl, measure))
	}

	var sys *system
	closeSys := func() error {
		if sys == nil {
			return nil
		}
		err := sys.close()
		sys = nil
		return err
	}
	defer closeSys()
	build := func(i int) error {
		if err := closeSys(); err != nil {
			return fmt.Errorf("tear down build %d: %w", i, err)
		}
		s, err := buildSystem(wl, buildOptions{dir: buildDir(o.work, i), snnserve: o.snnserve, tracer: tr, traced: o.traced})
		sys = s
		return err
	}
	var setups []setupTimes
	for i := 0; i < setupRepeats; i++ {
		if err := build(i); err != nil {
			return nil, err
		}
		setups = append(setups, sys.times)
	}

	var hot *hotSet
	if wl.Mode == modeFleet {
		hot = gen.hotSet(wl.HotSet)
	}
	var runPhase func(int, time.Duration) (*phase, error)
	var m *measured
	for attempt := 1; ; attempt++ {
		// A phase measured again runs on a fresh build, so it starts from
		// the state the first attempt did: caches and heaps not yet grown.
		if attempt > 1 {
			m = nil
			if err := build(setupRepeats + attempt); err != nil {
				return nil, err
			}
		}
		runPhase = phaseRunner(ctx, sys, gen, hot)
		if hot != nil {
			if _, err := drive(ctx, sys, hot.primer(), runLimit, 0); err != nil {
				return nil, fmt.Errorf("prime the hot set: %w", err)
			}
		}
		if _, err := runPhase(streamWarmup, time.Duration(warmupSeconds*float64(time.Second))); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		var err error
		if m, err = measurePhase(sys, runPhase, measure); err != nil {
			return nil, err
		}
		kv(log, "attempt", attempt, "cpu_steal_share", fmt.Sprintf("%.4f", m.steal), "steal_limit", stealLimit)
		if m.steal <= stealLimit {
			break
		}
		if attempt == measureAttempts {
			fmt.Fprintf(log, "warning: CPU steal over %g in each of %d measured phases; reporting the last\n", stealLimit, attempt)
			break
		}
	}
	model := sys.model
	phA := m.ph
	var tin *traceInputs
	if o.traced {
		var err error
		tin, err = tracedPhase(ctx, sys, tr, runPhase, measure)
		if err != nil {
			return nil, err
		}
	}
	if err := checkLateness(log, wl, phA, tin); err != nil {
		return nil, err
	}
	if err := closeSys(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}

	// Every answer against the sequential engine and the float32
	// lockstep plane, on a conversion of the model made independently
	// of the system under test.
	om, err := oracleModel(model, wl.Model)
	if err != nil {
		return nil, err
	}
	recs := ptrs(phA.recs)
	var visit func(imageKey, []float64)
	if tin != nil {
		recs = append(recs, ptrs(tin.phB.recs)...)
		visit = tin.visitRoute(wl)
	}
	check, err := checkRecords(ctx, om, gen, hot, recs, lockstep32, visit)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(log, "oracle: %d answers checked, %d mismatched (failed), %d with the f32 plane's spike divergence, %d with its exit divergence\n",
		check.checked, check.mismatches, check.divergent, check.exitDivergent)
	res := &result{Correct: check.mismatches == 0, Attempted: len(recs)}
	for _, r := range recs {
		if r.fate != fateOK {
			if res.Failed == 0 {
				fmt.Fprintf(log, "first failed request: %s\n", r.err)
			}
			res.Failed++
		}
	}

	e2e := endToEnd(wl, phA, measure, setups, m.cpu, m.mem)
	rep := e2e
	if o.traced {
		tin.setups, tin.check, tin.phA = setups, check, phA
		if tin.replay, err = replayImages(ctx, om, gen, wl); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if tin.allocs, tin.bytes, err = allocReplay(ctx, model, wl, gen); err != nil {
			return nil, fmt.Errorf("allocation replay: %w", err)
		}
		rep = perLayerReport(wl, tin)
		e2e.print(log, "end-to-end (untraced phase of the traced run):")
	}
	if missing := rep.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	failed := 0
	for _, r := range phA.recs {
		if r.fate != fateOK {
			failed++
		}
	}
	fmt.Fprintf(log, "failed_share %.6g (%d of %d attempted: errors, sheds and oracle mismatches)\n",
		ratio(float64(failed), float64(len(phA.recs))), failed, len(phA.recs))
	if o.traced {
		rep.print(log, "per-layer (traced run):")
	} else {
		rep.print(log, "end-to-end:")
	}
	res.Metrics = rep.metrics()
	return res, nil
}

// phaseRunner returns a function that drives one phase of the
// workload's load from the given image stream.
func phaseRunner(ctx context.Context, sys *system, gen generator, hot *hotSet) func(stream int, d time.Duration) (*phase, error) {
	wl := sys.wl
	return func(stream int, d time.Duration) (*phase, error) {
		pctx, stop := context.WithCancel(ctx)
		defer stop()
		feed := gen.feed(pctx, stream, wl.Mode != modeOpen, hot, wl.HotShare)
		return drive(ctx, sys, feed, d, mix(gen.seed, uint64(stream)))
	}
}

// measured is one measured phase with what the serving processes used
// during it.
type measured struct {
	ph    *phase
	cpu   time.Duration
	mem   int64   // summed peak resident set sizes during the phase
	steal float64 // machine-wide share of CPU time stolen by the hypervisor
}

// measurePhase runs the measured phase. It collects this process's
// garbage and resets every serving process's peak resident size first,
// so mem covers serving only, not the set-up builds before it.
func measurePhase(sys *system, runPhase func(int, time.Duration) (*phase, error), d time.Duration) (*measured, error) {
	pids := sys.shardPids()
	debug.FreeOSMemory()
	for _, pid := range append([]int{0}, pids...) {
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
	}
	cpu0, err := serving(pids, cpuNanos)
	if err != nil {
		return nil, err
	}
	steal0, ticks0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	m := &measured{}
	if m.ph, err = runPhase(streamMeasure, d); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	steal1, ticks1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	m.steal = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	cpu1, err := serving(pids, cpuNanos)
	if err != nil {
		return nil, err
	}
	m.cpu = time.Duration(cpu1 - cpu0)
	if m.mem, err = serving(pids, peakRSS); err != nil {
		return nil, err
	}
	return m, nil
}

func ptrs(recs []record) []*record {
	out := make([]*record, len(recs))
	for i := range recs {
		out[i] = &recs[i]
	}
	return out
}

// tracerCapacity bounds the traced phase's requests generously: the
// open-loop count plus headroom, or 20k/s for a closed loop.
func tracerCapacity(wl *Workload, d time.Duration) int {
	rate := 20000.0
	if wl.Mode == modeOpen {
		rate = 2 * wl.Rate
	}
	return int(rate*d.Seconds()) + 1024
}

// checkLateness rejects an open-loop run whose generator fell behind its
// schedule: its latencies would understate what the schedule asked for.
func checkLateness(log io.Writer, wl *Workload, phA *phase, tin *traceInputs) error {
	if wl.Mode != modeOpen {
		return nil
	}
	phases := []*phase{phA}
	if tin != nil {
		phases = append(phases, tin.phB)
	}
	for _, ph := range phases {
		late := make([]float64, len(ph.recs))
		for i, r := range ph.recs {
			late[i] = ms(r.late)
		}
		m := mean(late)
		kv(log, "generator_lateness_mean_ms", fmt.Sprintf("%.4f", m), "p50_ms", fmt.Sprintf("%.4f", quantile(late, 0.5)),
			"p99_ms", fmt.Sprintf("%.4f", quantile(late, 0.99)), "mean_limit_ms", latenessMeanLimitMs)
		if m > latenessMeanLimitMs {
			return fmt.Errorf("rejected: the generator sent requests %.2f ms after their due times on average, over the %g ms bound",
				m, latenessMeanLimitMs)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windows is how many equal stretches of the measured phase the tail
// latency and the throughput are taken over; each reports the median
// stretch, so one stall (a collection pause, a descheduled CPU) moves
// the run's figure no more than a stretch's worth.
const windows = 10

// endToEnd computes the user-visible metrics of one measured phase of
// length d.
func endToEnd(wl *Workload, ph *phase, d time.Duration, setups []setupTimes, cpu time.Duration, mem int64) *report {
	r := newReport(endToEndMetrics)
	var setup []float64
	for _, s := range setups {
		setup = append(setup, s.total.Seconds())
	}
	r.set("setup_s", median(setup), len(setup))
	attempted := len(ph.recs)
	var lat []float64
	winLat := make([][]float64, windows)
	ok, inSLO, right := 0, 0, 0
	steps, spikes := 0.0, 0.0
	for _, rec := range ph.recs {
		if rec.fate != fateOK {
			continue
		}
		ok++
		l := ms(rec.lat)
		lat = append(lat, l)
		w := min(max(int(rec.due.Sub(ph.start)*windows/d), 0), windows-1)
		winLat[w] = append(winLat[w], l)
		if l <= wl.LimitMs {
			inSLO++
		}
		if rec.res.Prediction == rec.label {
			right++
		}
		steps += float64(rec.res.Steps)
		spikes += float64(rec.res.Spikes)
	}
	var winP99, winRate []float64
	smallest := ok
	for _, wlat := range winLat {
		winP99 = append(winP99, quantile(wlat, 0.99))
		winRate = append(winRate, float64(len(wlat))/(d.Seconds()/windows))
		smallest = min(smallest, len(wlat))
	}
	r.set("throughput_img_s", median(winRate), ok)
	r.set("latency_p50_ms", quantile(lat, 0.5), len(lat))
	r.set("latency_p99_ms", median(winP99), smallest)
	r.set("within_slo_share", ratio(float64(inSLO), float64(attempted)), attempted)
	r.set("ok_share", ratio(float64(ok), float64(attempted)), attempted)
	r.set("accuracy", ratio(float64(right), float64(attempted)), attempted)
	r.set("steps_per_img", ratio(steps, float64(ok)), ok)
	r.set("spikes_per_img", ratio(spikes, float64(ok)), ok)
	r.set("cpu_ms_per_img", ratio(ms(cpu), float64(ok)), ok)
	r.set("mem_mb", float64(mem)/(1<<20), 1)
	return r
}
