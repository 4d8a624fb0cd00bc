package main

import (
	"context"
	"fmt"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/neuromorphic"
	"burstsnn/internal/serve"
	"burstsnn/internal/snn"
)

// The replays time the engine and each simulator layer on the
// workload's own images, through the public engine entry points
// (serve.ClassifyStaged / serve.ClassifyBatchStaged) on clones of the
// converted network. Timing wraps the network's exported encoder and
// layers; counting uses snn's AttachProbe hooks.

// stepClock books contiguous wall time to the stage that ends each
// interval: the encoder, each layer, and — for the gap from the last
// layer to the next step (readout layer, argmax, lane retirement) —
// the output stage. Summed over a replay it covers the engine's
// simulate span, which the closure check compares against.
type stepClock struct {
	last      time.Time
	pending   bool // the last layer has run; the output stage is open
	in        time.Duration
	layers    []time.Duration
	out       time.Duration
	steps     int // Step calls (sequential) or lockstep steps
	laneSteps int // Σ active lanes over lockstep steps
}

func newStepClock(layers int) *stepClock { return &stepClock{layers: make([]time.Duration, layers)} }

// encStart opens a step: it closes the previous step's output interval.
func (c *stepClock) encStart() time.Time {
	now := time.Now()
	if c.pending {
		c.out += now.Sub(c.last)
		c.pending = false
	}
	return now
}

func (c *stepClock) encEnd(start time.Time) {
	c.last = time.Now()
	c.in += c.last.Sub(start)
	c.steps++
}

func (c *stepClock) layerEnd(i int) {
	now := time.Now()
	c.layers[i] += now.Sub(c.last)
	c.last = now
	c.pending = i == len(c.layers)-1
}

// finish closes the final output interval when the engine returns, and
// takes out the readout margin time the engine books separately.
func (c *stepClock) finish(end time.Time, readout time.Duration) {
	if c.pending {
		c.out += end.Sub(c.last)
		c.pending = false
	}
	c.out -= readout
}

type timedEncoder struct {
	coding.InputEncoder
	c *stepClock
}

func (e *timedEncoder) Reset(image []float64) {
	e.c.pending = false
	e.InputEncoder.Reset(image)
}

func (e *timedEncoder) Step(t int) []coding.Event {
	start := e.c.encStart()
	ev := e.InputEncoder.Step(t)
	e.c.encEnd(start)
	return ev
}

type timedLayer struct {
	snn.Layer
	c *stepClock
	i int
}

func (l *timedLayer) Step(t int, biasScale float64, in []coding.Event) []coding.Event {
	ev := l.Layer.Step(t, biasScale, in)
	l.c.layerEnd(l.i)
	return ev
}

type timedBatchEncoder struct {
	coding.BatchEncoder
	c *stepClock
}

func (e *timedBatchEncoder) SetLane(lane int, image []float64) {
	e.c.pending = false
	e.BatchEncoder.SetLane(lane, image)
}

func (e *timedBatchEncoder) Step32(t, lanes int, out *coding.BatchEvents32) {
	start := e.c.encStart()
	e.BatchEncoder.Step32(t, lanes, out)
	e.c.encEnd(start)
	e.c.laneSteps += lanes
}

type timedBatchLayer struct {
	snn.BatchLayer32
	c *stepClock
	i int
}

func (l *timedBatchLayer) Step(t int, biasScale float64, lanes int, in *coding.BatchEvents32) *coding.BatchEvents32 {
	ev := l.BatchLayer32.Step(t, biasScale, lanes, in)
	l.c.layerEnd(l.i)
	return ev
}

// replayResult is everything the replays measured.
type replayResult struct {
	images int
	layers int // hidden layers of the model

	// Unwrapped engine costs per image.
	seqUs, encodeUs, readoutUs float64
	lockstepUs                 map[int]float64 // by lane count
	// Lockstep lanes compared with the sequential engine.
	lockstepLanes, lockstepMismatch, lockstepDivergent int

	// Sequential per-stage time per step, and its closure: the engine's
	// own simulate span over the same calls.
	seq       *stepClock
	simulate  time.Duration
	lock      *stepClock // lockstep at lockstepTraceLanes lanes
	lockSynop float64    // synaptic ops in the lockstep replay

	// Probe counts per image.
	inEvents    float64
	spikes      []float64 // per hidden layer
	burstShare  []float64
	synopsPerIm float64
}

// lockstepTraceLanes is the lane count the per-layer lockstep replay runs
// at: the microbatch cap, where lockstep pays most.
const lockstepTraceLanes = 8

// replay runs every replay over images on clones of the model's network.
func replay(ctx context.Context, om *serve.Model, images [][]float64) (*replayResult, error) {
	rep, err := om.Pool().Get(ctx)
	if err != nil {
		return nil, err
	}
	proto := rep.Net
	defer om.Pool().Put(rep)
	clone := func() (*snn.Network, error) { return proto.Clone() }
	policy := om.Config().Exit
	n := len(images)
	res := &replayResult{images: n, layers: len(proto.Layers), lockstepUs: map[int]float64{}}

	// Warm pass, then the unwrapped sequential engine: the oracle for
	// the lockstep comparisons and the engine.* costs.
	net, err := clone()
	if err != nil {
		return nil, err
	}
	for _, img := range images {
		serve.Classify(net, img, policy)
	}
	seqOut := make([]serve.Outcome, n)
	var total, encode, readout time.Duration
	for i, img := range images {
		o, st := serve.ClassifyStaged(net, img, policy)
		seqOut[i] = o
		total += st.Encode + st.Simulate + st.Readout
		encode += st.Encode
		readout += st.Readout
	}
	res.seqUs = us(total, n)
	res.encodeUs = us(encode, n)
	res.readoutUs = us(readout, n)

	// Unwrapped lockstep at each lane count.
	for _, b := range []int{2, 4, 8} {
		bn, err := snn.NewLockstep(net, b, true)
		if err != nil {
			return nil, fmt.Errorf("lockstep B=%d: %w", b, err)
		}
		serve.ClassifyBatch(bn, images[:b], policies(policy, b)) // warm the lanes' buffers
		var total time.Duration
		for lo := 0; lo+b <= n; lo += b {
			outs, _, st := serve.ClassifyBatchStaged(bn, images[lo:lo+b], policies(policy, b))
			total += st.Encode + st.Simulate + st.Readout
			for i, o := range outs {
				res.compareLane(o, seqOut[lo+i])
			}
		}
		res.lockstepUs[b] = us(total, n/b*b)
	}

	// Sequential with every stage timed.
	tnet, err := clone()
	if err != nil {
		return nil, err
	}
	res.seq = newStepClock(len(tnet.Layers))
	tnet.Encoder = &timedEncoder{InputEncoder: tnet.Encoder, c: res.seq}
	for i, l := range tnet.Layers {
		tnet.Layers[i] = &timedLayer{Layer: l, c: res.seq, i: i}
	}
	for _, img := range images {
		_, st := serve.ClassifyStaged(tnet, img, policy)
		res.seq.finish(time.Now(), st.Readout)
		res.simulate += st.Simulate
	}

	// Lockstep with every stage timed.
	lnet, err := clone()
	if err != nil {
		return nil, err
	}
	ls, err := snn.NewBatchNetwork32(lnet, lockstepTraceLanes)
	if err != nil {
		return nil, err
	}
	res.lock = newStepClock(len(ls.Layers))
	ls.Encoder = &timedBatchEncoder{BatchEncoder: ls.Encoder, c: res.lock}
	for i, l := range ls.Layers {
		ls.Layers[i] = &timedBatchLayer{BatchLayer32: l, c: res.lock, i: i}
	}
	lockImages := n / lockstepTraceLanes * lockstepTraceLanes
	serve.ClassifyBatch(ls, images[:lockstepTraceLanes], policies(policy, lockstepTraceLanes))
	*res.lock = stepClock{layers: make([]time.Duration, len(ls.Layers))}
	for lo := 0; lo < lockImages; lo += lockstepTraceLanes {
		_, _, st := serve.ClassifyBatchStaged(ls, images[lo:lo+lockstepTraceLanes], policies(policy, lockstepTraceLanes))
		res.lock.finish(time.Now(), st.Readout)
	}

	// Probe counts: events, burst continuations, synaptic operations.
	pnet, err := clone()
	if err != nil {
		return nil, err
	}
	counts, err := countSpikes(pnet, images, policy, lockImages)
	if err != nil {
		return nil, err
	}
	res.inEvents = counts.in / float64(n)
	res.spikes = make([]float64, len(pnet.Layers))
	res.burstShare = make([]float64, len(pnet.Layers))
	for i := range pnet.Layers {
		res.spikes[i] = counts.spikes[i] / float64(n)
		if counts.spikes[i] > 0 {
			res.burstShare[i] = counts.bursts[i] / counts.spikes[i]
		}
	}
	res.synopsPerIm = counts.synops / float64(n)
	res.lockSynop = counts.lockSynops
	return res, nil
}

func (r *replayResult) compareLane(got, want serve.Outcome) {
	r.lockstepLanes++
	switch {
	case got.Prediction != want.Prediction || got.Steps != want.Steps:
		r.lockstepMismatch++
	case got.TotalSpikes() != want.TotalSpikes():
		r.lockstepDivergent++
	}
}

func policies(p serve.ExitPolicy, n int) []serve.ExitPolicy {
	ps := make([]serve.ExitPolicy, n)
	for i := range ps {
		ps[i] = p
	}
	return ps
}

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// spikeCounts are probe totals over a sequential replay.
type spikeCounts struct {
	in         float64
	spikes     []float64
	bursts     []float64 // spikes of a neuron that also fired the step before
	synops     float64   // Σ input events × fan-out, every layer and the readout
	lockSynops float64   // synops over the first lockImages images
}

// countSpikes replays images with a probe on the encoder and every layer.
// A spike counts as a burst spike when its neuron also fired on the
// previous step (the paper's burst: consecutive spikes, Eq. 8).
func countSpikes(net *snn.Network, images [][]float64, policy serve.ExitPolicy, lockImages int) (*spikeCounts, error) {
	layers := len(net.Layers)
	c := &spikeCounts{spikes: make([]float64, layers), bursts: make([]float64, layers)}
	// fan[k][j] is how many synapses neuron j of the population feeding
	// layer k drives (k == layers: the readout).
	topo, err := neuromorphic.ExtractTopology(net)
	if err != nil {
		return nil, err
	}
	fan := make([][]int, layers+1)
	for k := range fan {
		src := topo.Layers[k]
		fan[k] = make([]int, src.Neurons)
		for j := range fan[k] {
			fan[k][j] = len(src.FanOut(j))
		}
	}
	lastFired := make([][]int, layers)
	for i, l := range net.Layers {
		lastFired[i] = make([]int, l.NumNeurons())
		for j := range lastFired[i] {
			lastFired[i][j] = -2
		}
	}
	base := 0     // global step of this image's t=0; images are 2 apart
	synops := 0.0 // running total
	feeds := func(next int, events []coding.Event) {
		for _, e := range events {
			synops += float64(fan[next][e.Index])
		}
	}
	net.AttachProbe(-1, func(t int, events []coding.Event) {
		c.in += float64(len(events))
		feeds(0, events)
	})
	for i := range net.Layers {
		i := i
		net.AttachProbe(i, func(t int, events []coding.Event) {
			g := base + t
			c.spikes[i] += float64(len(events))
			for _, e := range events {
				if lastFired[i][e.Index] == g-1 {
					c.bursts[i]++
				}
				lastFired[i][e.Index] = g
			}
			feeds(i+1, events)
		})
	}
	for k, img := range images {
		o := serve.Classify(net, img, policy)
		base += o.Steps + 2
		if k == lockImages-1 {
			c.lockSynops = synops
		}
	}
	c.synops = synops
	return c, nil
}
