package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/snn"
)

// This file is the serving scheduling plane: every decision about *how*
// a formed microbatch executes — lockstep through the batch simulator or
// back to back on the replica, and in what lane order — lives behind the
// Scheduler interface instead of constants scattered through the
// batcher. One implementation ships: CostSched, which routes each
// microbatch by the engine cost it has measured on the model it serves.
// Scheduling is outcome-invariant by construction: a scheduler only
// reorders which requests share a microbatch and picks the execution
// mode — per-request Outcomes stay pinned by the bit-identity/tolerance
// contracts either way.

// Decision reasons, the `reason` label on the steering counters
// (burstsnn_sched_decisions_total and Snapshot.SchedReasons). They make
// a steering regression diagnosable from a metrics scrape alone: a
// plane stuck on "unmeasured" never measured one of its routes, one
// whose "explore" count grows with traffic keeps finding its
// measurements stale.
const (
	// ReasonForced: -lockstep on/off pinned the route.
	ReasonForced = "forced"
	// ReasonCost: both routes were measured at this lane count and the
	// cheaper one won.
	ReasonCost = "cost"
	// ReasonExplore: the batch runs a route that is unmeasured or stale
	// at this lane count, to measure it.
	ReasonExplore = "explore"
	// ReasonUnmeasured: a route is unmeasured but it was not this
	// batch's turn to explore; the batch runs sequentially, the route
	// every replica can run.
	ReasonUnmeasured = "unmeasured"
)

// Decision is a scheduler's verdict for one formed microbatch.
type Decision struct {
	// Lockstep selects the batch simulator; false runs the requests back
	// to back on the replica.
	Lockstep bool
	// Reason names why (the Reason* constants), for the steering
	// counters and the selftest decision trace.
	Reason string
}

// Scheduler owns the lockstep-vs-sequential decision for multi-request
// microbatches. Implementations must be safe for concurrent use: the
// batcher calls Decide from every batch-execution goroutine and feeds
// ObserveCost back from both execution paths.
type Scheduler interface {
	// Decide picks the execution mode for a formed microbatch of lanes
	// live (deduped) requests.
	Decide(lanes int) Decision
	// ObserveCost feeds back one executed route's engine time
	// (encode + simulate + readout): one image on the sequential route
	// (lanes 1, lockstep false), or one lockstep chunk of lanes live
	// lanes.
	ObserveCost(lockstep bool, lanes int, engine time.Duration)
	// Name identifies the policy in /metrics and bench output.
	Name() string
}

// Cost scheduler tuning. costEWMAWeight smooths per-image and per-chunk
// engine times, whose spread follows each image's exit step and, on a
// busy host, preemption. exploreEvery fixes the share of decisions that
// may explore (one in exploreEvery), and costStaleAfter is how many
// decisions a route's measurement stays trusted without a fresh sample:
// the chosen route is re-measured by every batch it runs, so only the
// rejected one goes stale, and it is re-tried at most once per
// costStaleAfter decisions at each lane count.
const (
	costEWMAWeight = 1.0 / 32
	exploreEvery   = 8
	costStaleAfter = 256
)

// costEWMA is one route's smoothed engine time. It averages its first
// 1/costEWMAWeight samples plainly and then decays, and it restarts
// from scratch when a sample arrives after the measurement went stale,
// so an old estimate never outweighs a fresh exploration.
type costEWMA struct {
	ns float64 // 0 = never measured
	n  int     // samples since the last restart
	at int64   // decision count at the last sample
}

func (e *costEWMA) observe(ns float64, now int64) {
	if now-e.at > costStaleAfter {
		e.n = 0
	}
	e.n++
	e.ns += max(1/float64(e.n), costEWMAWeight) * (ns - e.ns)
	e.at = now
}

// CostSched is the per-model cost scheduler behind LockstepBatch
// "auto": it sends an L-lane batch lockstep exactly when the measured
// engine time of an L-lane lockstep chunk is below L times the measured
// per-image sequential engine time. Both costs come from the batcher's
// own engine spans on live traffic, so the break-even is the served
// model's, not a constant calibrated on another network: the burst-coded
// MLP, which exits in a few steps, measures sequential cheaper at every
// lane count, while the conv layers of LeNetMini amortize across lanes.
//
// A route that has never been measured at L, or whose measurement is
// older than costStaleAfter decisions, is tried on at most one in
// exploreEvery decisions. Outcomes do not depend on the route under the
// tolerance contract, so exploring costs only time. With a forced
// route (LockstepOn / LockstepOff) Decide never consults the costs.
type CostSched struct {
	force *bool // nil: route by cost; else the pinned route

	mu        sync.Mutex
	decisions int64
	seq       costEWMA                        // ns per image
	lock      [snn.MaxBatchLanes + 1]costEWMA // ns per chunk, by live lanes
}

// NewCostSched builds the scheduler for a LockstepBatch mode: auto
// routes by measured cost, on and off force the route.
func NewCostSched(mode string) *CostSched {
	c := &CostSched{}
	switch mode {
	case LockstepOn, LockstepOff:
		on := mode == LockstepOn
		c.force = &on
	}
	return c
}

// Decide applies the cost rule (or the forced route) to an L-lane batch.
// Batches wider than the lockstep simulator run as full-width chunks,
// so they are judged at the simulator's width.
func (c *CostSched) Decide(lanes int) Decision {
	if c.force != nil {
		return Decision{Lockstep: *c.force, Reason: ReasonForced}
	}
	l := min(lanes, snn.MaxBatchLanes)
	c.mu.Lock()
	defer c.mu.Unlock()
	explore := c.decisions%exploreEvery == 0
	c.decisions++
	seq, lock := c.seq, c.lock[l]
	if explore {
		if c.stale(lock) {
			return Decision{Lockstep: true, Reason: ReasonExplore}
		}
		if c.stale(seq) {
			return Decision{Reason: ReasonExplore}
		}
	}
	if seq.ns == 0 || lock.ns == 0 {
		return Decision{Reason: ReasonUnmeasured}
	}
	return Decision{Lockstep: lock.ns < float64(l)*seq.ns, Reason: ReasonCost}
}

func (c *CostSched) stale(e costEWMA) bool {
	return e.ns == 0 || c.decisions-e.at > costStaleAfter
}

// ObserveCost folds one executed route's engine time into its EWMA.
func (c *CostSched) ObserveCost(lockstep bool, lanes int, engine time.Duration) {
	if engine <= 0 || lanes < 1 || lanes > snn.MaxBatchLanes {
		return
	}
	ns := float64(engine.Nanoseconds())
	c.mu.Lock()
	if lockstep {
		c.lock[lanes].observe(ns, c.decisions)
	} else {
		c.seq.observe(ns, c.decisions)
	}
	c.mu.Unlock()
}

// Name identifies the policy.
func (c *CostSched) Name() string {
	switch {
	case c.force == nil:
		return "cost"
	case *c.force:
		return "lockstep"
	default:
		return "sequential"
	}
}

// OrderByPredictedExit returns the lane indices 0..len(preds)-1 stably
// sorted by predicted exit step ascending, with unpredicted lanes
// (preds[i] <= 0) after every predicted one, in arrival order. This is
// the exit-aware batch-forming rule: grouping lanes predicted to retire
// together keeps lockstep occupancy high — a chunk of early-exiters
// retires as a block instead of each chunk dragging one late lane to
// the end at occupancy 1.
func OrderByPredictedExit(preds []int) []int {
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := preds[order[i]], preds[order[j]]
		if pi <= 0 || pj <= 0 {
			return pi > 0 && pj <= 0 // predicted lanes before unpredicted
		}
		return pi < pj
	})
	return order
}

// DefaultExitHistoryEntries bounds a model's exit history: each entry
// keeps the source image for collision verification (~6.3 KB at MNIST
// scale), so the default costs at most ~13 MB per model — the same
// bound and reasoning as coding.DefaultQuantCacheEntries.
const DefaultExitHistoryEntries = 2048

// ExitHistory is the tiny bounded (image hash → observed exit step)
// memory behind exit-aware batch forming: the batcher records every
// classified request's exit step and consults the history when forming
// the next batch, so lanes predicted to retire together share a chunk.
//
// The discipline is coding.QuantCache's, exactly: keys go through
// coding.HashImage, every hit verifies pixel equality against the
// stored image (a hash collision degrades to "no prediction", never to
// another image's exit step), and an entry — with its verification
// image copy — is only stored on a key's second sighting, so
// unique-image traffic never allocates history entries. The observed
// step count is policy-dependent (budget, stability window), so the
// policy is part of the key. Safe for concurrent use.
type ExitHistory struct {
	mu      sync.Mutex
	max     int
	entries map[exitKey]exitEntry
	seen    map[exitKey]struct{}

	hits   atomic.Int64
	misses atomic.Int64
}

type exitKey struct {
	hash   uint64
	policy ExitPolicy
}

type exitEntry struct {
	image []float64
	steps int
}

// NewExitHistory returns a history bounded to maxEntries (<= 0 uses
// DefaultExitHistoryEntries). When full, an arbitrary entry is evicted
// per insert, like the quant cache: the workloads this serves are
// dominated by a small hot set.
func NewExitHistory(maxEntries int) *ExitHistory {
	if maxEntries <= 0 {
		maxEntries = DefaultExitHistoryEntries
	}
	return &ExitHistory{
		max:     maxEntries,
		entries: map[exitKey]exitEntry{},
		seen:    map[exitKey]struct{}{},
	}
}

// Stats returns the lifetime predict hit/miss counters (surfaced as
// exitHistoryHits/exitHistoryMisses in /metrics).
func (h *ExitHistory) Stats() (hits, misses int64) {
	return h.hits.Load(), h.misses.Load()
}

// Predict returns the exit step observed the last time this exact
// (image, policy) pair was classified. hash must be
// coding.HashImage(image) — the batcher hashes each request once at
// submit and reuses it here and in dedupe. A key match with different
// pixel contents counts as a miss.
func (h *ExitHistory) Predict(hash uint64, image []float64, p ExitPolicy) (int, bool) {
	h.mu.Lock()
	e, ok := h.entries[exitKey{hash: hash, policy: p}]
	h.mu.Unlock()
	if ok && coding.SameImage(e.image, image) {
		h.hits.Add(1)
		return e.steps, true
	}
	h.misses.Add(1)
	return 0, false
}

// Record notes one observed exit step for (image, policy). The first
// sighting of a key only marks it seen; the second stores the entry
// (copying the image for collision verification); later sightings
// update the step count in place. A colliding key (same hash, different
// pixels) replaces the stored entry, mirroring QuantCache's re-store.
func (h *ExitHistory) Record(hash uint64, image []float64, p ExitPolicy, steps int) {
	if steps <= 0 {
		return
	}
	k := exitKey{hash: hash, policy: p}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[k]; ok {
		if coding.SameImage(e.image, image) {
			e.steps = steps
			h.entries[k] = e
			return
		}
		// Collision (or changed pixels under the same hash): replace.
		h.entries[k] = exitEntry{image: append([]float64(nil), image...), steps: steps}
		return
	}
	if _, ok := h.seen[k]; !ok {
		if len(h.seen) >= h.max {
			for old := range h.seen {
				delete(h.seen, old)
				break
			}
		}
		h.seen[k] = struct{}{}
		return
	}
	if len(h.entries) >= h.max {
		for old := range h.entries {
			delete(h.entries, old)
			break
		}
	}
	h.entries[k] = exitEntry{image: append([]float64(nil), image...), steps: steps}
}
