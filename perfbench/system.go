package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/experiments"
	"burstsnn/internal/fleet"
	"burstsnn/internal/serve"
)

// steps is the per-request budget, snnserve's default; the exit policy
// is the serving default for it (serve.DefaultExitPolicy).
const steps = 192

// modelConfig is the registration every workload serves: the paper's
// phase-input / burst-hidden hybrid at the snnserve defaults. Replicas
// is left to the server default (GOMAXPROCS) except in fleet shards.
func modelConfig(name string) serve.ModelConfig {
	return serve.ModelConfig{Name: name, Hybrid: core.NewHybrid(coding.Phase, coding.Burst), Steps: steps}
}

// serverConfig is the serve.Config every in-process server uses: the
// program defaults, with a trace ring large enough to keep every
// request of a traced run.
func serverConfig(traced bool) serve.Config {
	var cfg serve.Config
	if traced {
		cfg.TraceCapacity = 1 << 16
	}
	return cfg
}

// setupTimes splits one build of the system under test.
type setupTimes struct {
	train    time.Duration // lab.Model: train the tiny recipe and save it
	register time.Duration // convert + register in process
	spawn    time.Duration // fleet: spawn every snnserve -worker shard
	total    time.Duration
}

// system is one running build of the serving stack for a workload.
type system struct {
	wl    *Workload
	model *experiments.Model

	srv      *serve.Server // http and open modes
	fl       *fleet.Fleet  // fleet mode
	httpSrv  *http.Server  // http and fleet modes
	httpDone chan error
	base     string // http://host:port of the listener

	mu      sync.Mutex
	spawned []*procShard // every worker the factory built, respawns included

	closeOnce sync.Once
	closeErr  error

	tracer *tracer
	times  setupTimes
}

// buildOptions are what buildSystem needs beyond the workload.
type buildOptions struct {
	dir      string // model cache directory for this build (fresh each time)
	snnserve string // snnserve binary for fleet shards
	tracer   *tracer
	traced   bool
}

// buildSystem trains the model, converts and registers it, and for the
// fleet spawns the shards: everything between start and ready, timed.
func buildSystem(wl *Workload, o buildOptions) (*system, error) {
	sys := &system{wl: wl, tracer: o.tracer}
	start := time.Now()
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	lab := experiments.NewLab(experiments.Settings{Tiny: true, ModelDir: o.dir})
	m, err := lab.Model(wl.Model)
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", wl.Model, err)
	}
	sys.model = m
	sys.times.train = time.Since(start)

	switch wl.Mode {
	case modeHTTP, modeOpen:
		t := time.Now()
		sys.srv = serve.New(serverConfig(o.traced))
		if _, err := sys.srv.Register(modelConfig(wl.Model), m.Net, m.Set.Train); err != nil {
			sys.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		sys.times.register = time.Since(t)
		if wl.Mode == modeHTTP {
			if err := sys.listen(sys.srv.Handler()); err != nil {
				sys.close()
				return nil, err
			}
		}
	case modeFleet:
		t := time.Now()
		args := []string{"-worker", "-tiny", "-models", wl.Model, "-dir", o.dir, "-replicas", "1", "-steps", fmt.Sprint(steps)}
		sys.fl, err = fleet.New(fleet.Config{Shards: runtime.NumCPU()}, func(shard int) (fleet.Worker, error) {
			pw, err := fleet.SpawnProcWorker(o.snnserve, args, time.Minute)
			if err != nil {
				return nil, err
			}
			w := &procShard{ProcWorker: pw, shard: shard}
			sys.mu.Lock()
			sys.spawned = append(sys.spawned, w)
			sys.mu.Unlock()
			return w, nil
		})
		if err != nil {
			return nil, fmt.Errorf("spawn fleet: %w", err)
		}
		sys.times.spawn = time.Since(t)
		if err := sys.listen(fleet.NewFront(sys.fl).Handler()); err != nil {
			sys.close()
			return nil, err
		}
	}
	sys.times.total = time.Since(start)
	return sys, nil
}

// listen serves h, wrapped by the tracer, on a loopback port.
func (s *system) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.tracer.handler(h), ReadHeaderTimeout: 10 * time.Second}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.httpSrv.Serve(ln) }()
	return nil
}

// shardPids returns the live shard workers' process ids (fleet mode).
func (s *system) shardPids() []int {
	var pids []int
	if s.fl == nil {
		return nil
	}
	for i := 0; i < s.fl.Shards(); i++ {
		if w, ok := s.fl.Worker(i).(*procShard); ok {
			pids = append(pids, w.Pid())
		}
	}
	return pids
}

// close stops everything the build started and waits for it: the
// listener, the server's queues, and every shard process. Later calls
// return the first call's result.
func (s *system) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown() })
	return s.closeErr
}

func (s *system) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		if err := <-s.httpDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.fl != nil {
		errs = append(errs, s.fl.Close())
		// A shard the supervisor replaced is closed on a goroutine of its
		// own; close any such process here too, so none outlives the run.
		live := map[*procShard]bool{}
		for i := 0; i < s.fl.Shards(); i++ {
			if w, ok := s.fl.Worker(i).(*procShard); ok {
				live[w] = true
			}
		}
		s.mu.Lock()
		for _, w := range s.spawned {
			if !live[w] {
				errs = append(errs, w.Close())
			}
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// buildDir is a fresh model directory for setup repetition i.
func buildDir(work string, i int) string {
	return filepath.Join(work, fmt.Sprintf("build-%d-%d", os.Getpid(), i))
}
