package main

import (
	"context"
	"strconv"

	"burstsnn/internal/dataset"
)

// Image streams. Every request image is drawn from a seeded stream of
// the synthetic generators; a (stream, index) key regenerates it, so the
// oracle and the replays see exactly the pixels the program received.
const (
	streamMeasure = iota // the measured phase's fresh images
	streamWarmup         // warm-up load, disjoint from the measured images
	streamHot            // fleet-hot's repeated hot set
	streamTraced         // the traced phase of a --trace 1 run
	streamReplay         // the allocation replay's images
)

// chunkSize images are generated per stream chunk (10 per class).
const chunkSize = 100

type imageKey struct{ stream, index int }

// item is one request the load generator sends.
type item struct {
	key   imageKey
	label int
	image []float64
	body  []byte // JSON request body; nil for in-process workloads
}

// generator renders a workload's images from the workload seed.
type generator struct {
	model string
	seed  uint64
}

// mix derives a chunk's dataset seed from the workload seed (splitmix64
// finalizer, so neighbouring chunks and seeds are unrelated).
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// chunk renders chunk c of a stream: chunkSize labeled images in the
// same distribution the model's tiny lab recipe trains on.
func (g generator) chunk(stream, c int) []dataset.Sample {
	seed := mix(g.seed, uint64(stream), uint64(c))
	if g.model == "textures10" {
		cfg := dataset.DefaultTexturesConfig()
		cfg.TrainPerClass, cfg.TestPerClass, cfg.Seed = 0, chunkSize/10, seed
		return dataset.SynthTextures(cfg).Test
	}
	return dataset.SynthDigits(dataset.DigitsConfig{TestPerClass: chunkSize / 10, Noise: 0.04, Seed: seed}).Test
}

// sample regenerates one image (the hot set; the feed walks chunks in
// order instead).
func (g generator) sample(k imageKey) dataset.Sample {
	return g.chunk(k.stream, k.index/chunkSize)[k.index%chunkSize]
}

// hotSet is fleet-hot's repeated images with their encoded bodies.
type hotSet struct {
	items []*item
}

func (g generator) hotSet(n int) *hotSet {
	hs := &hotSet{}
	for i := 0; i < n; i++ {
		k := imageKey{streamHot, i}
		s := g.sample(k)
		hs.items = append(hs.items, &item{key: k, label: s.Label, image: s.Image, body: encodeBody(g.model, s.Image)})
	}
	return hs
}

// primer sends every hot image twice, in order, then closes: the
// response cache admits an image on its second sighting, so after the
// primer the whole hot set is cached on its owning shard.
func (h *hotSet) primer() <-chan *item {
	ch := make(chan *item, 2*len(h.items))
	for range 2 {
		for _, it := range h.items {
			ch <- it
		}
	}
	close(ch)
	return ch
}

// feed produces a phase's requests in order on the returned channel
// until ctx ends. Fresh images are numbered consecutively within the
// stream; with a hot set, a seeded draw per request picks a hot image
// with probability hotShare instead. The buffer lets the open-loop
// scheduler take a ready request at each due time.
func (g generator) feed(ctx context.Context, stream int, encode bool, hot *hotSet, hotShare float64) <-chan *item {
	ch := make(chan *item, 256) // ~0.1 s of the fastest workload's load
	go func() {
		defer close(ch)
		var cur []dataset.Sample
		curChunk := -1
		fresh := 0
		for i := 0; ; i++ {
			var it *item
			if hot != nil && float64(mix(g.seed, uint64(stream), uint64(i), 1)>>11)/(1<<53) < hotShare {
				it = hot.items[mix(g.seed, uint64(stream), uint64(i), 2)%uint64(len(hot.items))]
			} else {
				if c := fresh / chunkSize; c != curChunk {
					cur, curChunk = g.chunk(stream, c), c
				}
				s := cur[fresh%chunkSize]
				it = &item{key: imageKey{stream, fresh}, label: s.Label, image: s.Image}
				if encode {
					it.body = encodeBody(g.model, s.Image)
				}
				fresh++
			}
			select {
			case ch <- it:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// encodeBody writes a /v1/classify body with every pixel at full float64
// precision (shortest round-trip form, so the server decodes exactly the
// pixels the oracle sees).
func encodeBody(model string, image []float64) []byte {
	b := make([]byte, 0, 32+len(image)*20)
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, model)
	b = append(b, `,"image":[`...)
	for i, v := range image {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}"...)
}
