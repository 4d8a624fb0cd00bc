// Command snnbench regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	snnbench -run all                 # every table and figure
//	snnbench -run table1,fig4         # a subset
//	snnbench -run table2 -steps 384   # scale the budget up
//
// The hot-path mode skips the exhibits and instead benchmarks the
// simulator/serving fast paths against the retained reference paths,
// writing a machine-readable perf-trajectory artifact:
//
//	snnbench -hotpath BENCH_hotpath.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"burstsnn/internal/experiments"
	"burstsnn/internal/kernels"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated list: fig1,fig2,table1,fig3,fig4,table2,fig5,chip,ablations or all")
		steps     = flag.Int("steps", 192, "simulation time steps per image")
		images    = flag.Int("images", 40, "test images per configuration")
		psteps    = flag.Int("pattern-steps", 128, "steps per image for spike-pattern recordings")
		pimgs     = flag.Int("pattern-images", 3, "images per spike-pattern recording")
		dir       = flag.String("dir", "", "model cache directory (default: system temp)")
		tiny      = flag.Bool("tiny", false, "use the reduced test-scale recipes")
		out       = flag.String("o", "", "also write the report to this file")
		csvDir    = flag.String("csv", "", "also export per-exhibit CSV files into this directory")
		hotpath   = flag.String("hotpath", "", "run the hot-path benchmarks and write the JSON artifact to this path (skips the exhibits)")
		hotPrev   = flag.String("hotpath-prev", "", "previous BENCH_hotpath.json to gate against after -hotpath (exit nonzero on regression)")
		hotTol    = flag.Float64("hotpath-tolerance", 0.20, "allowed fractional ns/op regression vs -hotpath-prev")
		batchOut  = flag.String("batch", "", "run the batched-throughput sweep (every kernel dispatch tier this machine supports) and write the JSON artifact to this path (skips the exhibits)")
		batchPrev = flag.String("batch-prev", "", "previous BENCH_batch.json to gate against after -batch (like-for-like tiers only; exit nonzero on regression)")
		batchTol  = flag.Float64("batch-tolerance", 0.25, "allowed fractional lockstep img/s regression vs -batch-prev")
		fleetOut  = flag.String("fleet", "", "run the fleet saturation sweep (shard counts 1..NumCPU at fixed offered load) and write the JSON artifact to this path (skips the exhibits)")
		fleetPrev = flag.String("fleet-prev", "", "previous BENCH_fleet.json to gate against after -fleet (like-for-like shard counts only; exit nonzero on regression)")
		fleetTol  = flag.Float64("fleet-tolerance", 0.30, "allowed fractional saturation img/s regression vs -fleet-prev")
		probe     = flag.String("probe-level", "", "exit 0 iff the named kernel dispatch tier (purego, sse, avx2) is available on this machine and build, else 1 (CI capability gating)")
	)
	flag.Parse()

	if *probe != "" {
		avail := kernels.Available()
		for _, lv := range avail {
			if lv == *probe {
				fmt.Printf("level %s available (ladder: %s, detected %s)\n",
					*probe, strings.Join(avail, " "), kernels.DetectedLevel())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "snnbench: level %q unavailable (ladder: %s)\n", *probe, strings.Join(avail, " "))
		os.Exit(1)
	}

	if *hotpath != "" {
		if err := runHotpath(*hotpath); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: hotpath: %v\n", err)
			os.Exit(1)
		}
		if *hotPrev != "" {
			if err := compareHotpath(*hotPrev, *hotpath, *hotTol); err != nil {
				fmt.Fprintf(os.Stderr, "snnbench: hotpath gate: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *batchOut != "" {
		if err := runBatchBench(*batchOut); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: batch: %v\n", err)
			os.Exit(1)
		}
		if *batchPrev != "" {
			if err := compareBatch(*batchPrev, *batchOut, *batchTol); err != nil {
				fmt.Fprintf(os.Stderr, "snnbench: batch gate: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *fleetOut != "" {
		if err := runFleetBench(*fleetOut); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: fleet: %v\n", err)
			os.Exit(1)
		}
		if *fleetPrev != "" {
			if err := compareFleet(*fleetPrev, *fleetOut, *fleetTol); err != nil {
				fmt.Fprintf(os.Stderr, "snnbench: fleet gate: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	settings := experiments.DefaultSettings()
	settings.Log = os.Stderr
	settings.Steps = *steps
	settings.Images = *images
	settings.PatternSteps = *psteps
	settings.PatternImages = *pimgs
	settings.Tiny = *tiny
	if *dir != "" {
		settings.ModelDir = *dir
	}
	lab := experiments.NewLab(settings)

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]

	var report strings.Builder
	emit := func(s string) {
		fmt.Print(s)
		report.WriteString(s)
	}

	writeCSV := func(name string, export func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %v\n", err)
			return
		}
		path := *csvDir + "/" + name + ".csv"
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %v\n", err)
			return
		}
		defer f.Close()
		if err := export(f); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: writing %s: %v\n", path, err)
		}
	}

	type experiment struct {
		name string
		run  func() (string, error)
	}
	exps := []experiment{
		{"fig1", func() (string, error) {
			return experiments.Fig1(0.7, 64).Render(), nil
		}},
		{"fig2", func() (string, error) {
			r, err := experiments.Fig2(lab)
			if err != nil {
				return "", err
			}
			writeCSV("fig2", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"table1", func() (string, error) {
			r, err := experiments.Table1(lab)
			if err != nil {
				return "", err
			}
			writeCSV("table1", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"fig3", func() (string, error) {
			r, err := experiments.Fig3(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig4", func() (string, error) {
			r, err := experiments.Fig4(lab)
			if err != nil {
				return "", err
			}
			writeCSV("fig4", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"table2", func() (string, error) {
			r, err := experiments.Table2(lab)
			if err != nil {
				return "", err
			}
			writeCSV("table2", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"fig5", func() (string, error) {
			r, err := experiments.Fig5(lab)
			if err != nil {
				return "", err
			}
			writeCSV("fig5", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"chip", func() (string, error) {
			r, err := experiments.ChipEnergy(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ablations", func() (string, error) {
			var sb strings.Builder
			beta, err := experiments.AblationBeta(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(beta.Render() + "\n")
			norm, err := experiments.AblationNorm(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(norm.Render() + "\n")
			ttfs, err := experiments.ExtensionTTFS(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(ttfs.Render() + "\n")
			leak, err := experiments.ExtensionLeak(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(leak.Render())
			return sb.String(), nil
		}},
	}

	ran := 0
	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		s, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		emit("## " + e.name + "\n\n" + s + "\n")
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "snnbench: nothing selected by -run=%q\n", *run)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
}

// loadArtifact reads one BENCH_*.json artifact for a -*-prev gate.
func loadArtifact[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art T
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// comparable reports whether a -*-prev gate may judge the current
// artifact against the previous one. A schema change or a different CPU
// count makes the points unlike, so the gate is skipped with a note on
// stderr (the first run after such a change records a baseline).
func comparable(gate, prevSchema, curSchema string, prevCPUs, curCPUs int) bool {
	switch {
	case prevSchema != curSchema:
		fmt.Fprintf(os.Stderr, "%s: schema changed (%s -> %s), skipping comparison\n", gate, prevSchema, curSchema)
	case prevCPUs != curCPUs:
		fmt.Fprintf(os.Stderr, "%s: CPU count changed (%d -> %d), skipping comparison\n", gate, prevCPUs, curCPUs)
	default:
		return true
	}
	return false
}
