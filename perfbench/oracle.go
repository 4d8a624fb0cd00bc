package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"burstsnn/internal/dataset"
	"burstsnn/internal/experiments"
	"burstsnn/internal/serve"
	"burstsnn/internal/snn"
)

// oracleOut is one engine's answer for one image.
type oracleOut struct{ pred, steps, spikes int }

func outcome(o serve.Outcome) oracleOut { return oracleOut{o.Prediction, o.Steps, o.TotalSpikes()} }

// checkStats summarizes an oracle check.
type checkStats struct {
	checked int // answered requests compared with the oracle
	// mismatches answered with neither the sequential engine's outcome
	// nor the float32 lockstep plane's: the request failed.
	mismatches int
	// divergent and exitDivergent answered with the float32 lockstep
	// plane's outcome where it differs from the sequential engine's:
	// divergent in the spike count only, exitDivergent in the prediction
	// or the exit step. The plane's tolerance contract allows both on
	// near-tied readout potentials (internal/README.md). Counted, not
	// failed.
	divergent, exitDivergent int
}

// oracleModel converts the served model again, independently of the
// system under test, with one replica per CPU for the check.
func oracleModel(m *experiments.Model, name string) (*serve.Model, error) {
	cfg := modelConfig(name)
	cfg.Replicas = runtime.NumCPU()
	om, err := serve.NewRegistry().Prepare(cfg, m.Net, m.Set.Train)
	if err != nil {
		return nil, fmt.Errorf("oracle model: %w", err)
	}
	return om, nil
}

// images regenerates the images of keys in stream order, calling fn
// for each on the calling goroutine.
func images(ctx context.Context, gen generator, hot *hotSet, keys []imageKey, fn func(imageKey, []float64)) error {
	keys = append([]imageKey(nil), keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stream != keys[j].stream {
			return keys[i].stream < keys[j].stream
		}
		return keys[i].index < keys[j].index
	})
	curStream, curChunk := -1, -1
	var chunk []dataset.Sample
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		if k.stream == streamHot {
			fn(k, hot.items[k.index].image)
			continue
		}
		if k.stream != curStream || k.index/chunkSize != curChunk {
			curStream, curChunk = k.stream, k.index/chunkSize
			chunk = gen.chunk(curStream, curChunk)
		}
		fn(k, chunk[k.index%chunkSize].Image)
	}
	return nil
}

// engine answers one image on one oracle replica.
type engine func([]float64) oracleOut

// engineFactory builds an engine on an oracle replica.
type engineFactory func(*serve.Replica, serve.ExitPolicy) (engine, error)

// sequential is the sequential engine on the replica's network.
func sequential(rep *serve.Replica, p serve.ExitPolicy) (engine, error) {
	return func(image []float64) oracleOut { return outcome(serve.Classify(rep.Net, image, p)) }, nil
}

// lockstep32 is the float32 lockstep plane the servers batch on, one
// lane wide, built on a clone of the replica's network. A lane's outcome
// does not depend on the other lanes of its batch, so one lane gives
// what a lane of any served batch gives.
func lockstep32(rep *serve.Replica, p serve.ExitPolicy) (engine, error) {
	net, err := rep.Net.Clone()
	if err != nil {
		return nil, err
	}
	bn, err := snn.NewBatchNetwork32(net, 1)
	if err != nil {
		return nil, err
	}
	ps := []serve.ExitPolicy{p}
	return func(image []float64) oracleOut {
		outs, _ := serve.ClassifyBatch(bn, [][]float64{image}, ps)
		return outcome(outs[0])
	}, nil
}

// runOracle computes the outcome of every key on the engine newEngine
// builds, one worker per oracle replica. visit, when non-nil, sees each
// image once on the calling goroutine before it is classified.
func runOracle(ctx context.Context, om *serve.Model, gen generator, hot *hotSet, keys []imageKey,
	newEngine engineFactory, visit func(imageKey, []float64)) (map[imageKey]oracleOut, error) {
	type job struct {
		key   imageKey
		image []float64
	}
	jobs := make(chan job, 64) // a few chunks' worth of lookahead
	out := make(map[imageKey]oracleOut, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	policy := om.Config().Exit
	fail := func(err error) (map[imageKey]oracleOut, error) {
		close(jobs)
		wg.Wait()
		return nil, err
	}
	for w := 0; w < om.Pool().Size(); w++ {
		rep, err := om.Pool().Get(ctx)
		if err != nil {
			return fail(err)
		}
		classify, err := newEngine(rep, policy)
		if err != nil {
			om.Pool().Put(rep)
			return fail(err)
		}
		wg.Add(1)
		go func(rep *serve.Replica) {
			defer wg.Done()
			defer om.Pool().Put(rep)
			for j := range jobs {
				o := classify(j.image)
				mu.Lock()
				out[j.key] = o
				mu.Unlock()
			}
		}(rep)
	}
	err := images(ctx, gen, hot, keys, func(k imageKey, image []float64) {
		if visit != nil {
			visit(k, image)
		}
		jobs <- job{k, image}
	})
	close(jobs)
	wg.Wait()
	return out, err
}

// checkRecords computes the sequential engine's outcome of every image
// the records sent, and the float32 lockstep plane's outcome (on the
// engine plane builds, lockstep32 outside tests) of every image answered
// otherwise. It marks each answered request that matches neither as
// failed (fateMismatch).
func checkRecords(ctx context.Context, om *serve.Model, gen generator, hot *hotSet, recs []*record,
	plane engineFactory, visit func(imageKey, []float64)) (checkStats, error) {
	served := func(r *record) oracleOut { return oracleOut{r.res.Prediction, r.res.Steps, r.res.Spikes} }
	unique := func(keep func(*record) bool) []imageKey {
		seen := map[imageKey]bool{}
		var keys []imageKey
		for _, r := range recs {
			if keep(r) && !seen[r.key] {
				seen[r.key] = true
				keys = append(keys, r.key)
			}
		}
		return keys
	}
	keys := unique(func(*record) bool { return true })
	want, err := runOracle(ctx, om, gen, hot, keys, sequential, visit)
	if err != nil {
		return checkStats{}, err
	}
	keys = unique(func(r *record) bool { return r.fate == fateOK && served(r) != want[r.key] })
	alt, err := runOracle(ctx, om, gen, hot, keys, plane, nil)
	if err != nil {
		return checkStats{}, err
	}
	var st checkStats
	for _, r := range recs {
		if r.fate != fateOK {
			continue
		}
		st.checked++
		got, o := served(r), want[r.key]
		switch {
		case got == o:
		case got != alt[r.key]:
			r.fate = fateMismatch
			r.err = fmt.Sprintf("oracle: image %v: sequential prediction %d steps %d spikes %d, f32 lockstep %+v, served prediction %d steps %d spikes %d",
				r.key, o.pred, o.steps, o.spikes, alt[r.key], got.pred, got.steps, got.spikes)
			st.mismatches++
		case got.pred != o.pred || got.steps != o.steps:
			st.exitDivergent++
		default:
			st.divergent++
		}
	}
	return st, nil
}
