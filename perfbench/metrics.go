package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the serving stack sees, measured
// with tracing off; BENCHMARK.json lists exactly these. ok_share is
// 1 − failed_share: the share of attempted requests answered, unshed
// and equal to the oracle (a metric that reads 0 has no relative bound).
// latency_p99_ms and throughput_img_s are medians over the run's
// windows (see endToEnd); their sample count is the smallest window's.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_img_s", "img/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"within_slo_share", "share"},
	{"ok_share", "share"},
	{"accuracy", "share"},
	{"steps_per_img", "steps"},
	{"spikes_per_img", "spikes"},
	{"cpu_ms_per_img", "ms"},
	{"mem_mb", "MB"},
}

// hiddenLayers is how many simulator layers the per-layer metrics name:
// LeNetMini's five (the MLP has one; its L1–L4 read 0).
const hiddenLayers = 5

// perLayerMetrics are the traced run's metrics. A layer the workload's
// path does not cross (the wire and fleet in process, the CNN's extra
// layers on the MLP) reads 0: no work done there.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"wire.handler_self_ms_p50", "ms"},
		{"wire.handler_self_ms_p99", "ms"},
		{"wire.client_ms_p50", "ms"},
		{"wire.req_bytes", "B"},
		{"wire.proc_ms_p50", "ms"},
		{"wire.proc_ms_p99", "ms"},
		{"fleet.route_ms_p50", "ms"},
		{"fleet.fallback_share", "share"},
		{"fleet.shard_skew", "ratio"},
		{"cache.resp_hit_share", "share"},
		{"cache.quant_hit_share", "share"},
		{"cache.exit_history_hit_share", "share"},
		{"batcher.form_ms_p50", "ms"},
		{"batcher.queue_ms_p99", "ms"},
		{"batcher.unattributed_ms_p50", "ms"},
		{"batcher.unattributed_ms_p99", "ms"},
		{"batcher.lanes_mean", "lanes"},
		{"batcher.lockstep_share", "share"},
		{"batcher.shed_share", "share"},
		{"batcher.allocs_per_req", "allocs"},
		{"batcher.bytes_per_req", "B"},
		{"engine.span_ms_p50", "ms"},
		{"engine.seq_us_per_img", "us"},
		{"engine.lockstep_us_per_img_b2", "us"},
		{"engine.lockstep_us_per_img_b4", "us"},
		{"engine.lockstep_us_per_img_b8", "us"},
		{"engine.encode_us_per_img", "us"},
		{"engine.readout_us_per_img", "us"},
		{"engine.f32_spike_divergence_share", "share"},
		{"engine.f32_exit_divergence_share", "share"},
		{"snn.in.seq_ns_per_step", "ns"},
		{"snn.in.events_per_img", "events"},
	}
	for i := 0; i < hiddenLayers; i++ {
		l := fmt.Sprintf("snn.L%d.", i)
		defs = append(defs,
			metricDef{l + "seq_ns_per_step", "ns"},
			metricDef{l + "lockstep_ns_per_lane_step", "ns"},
			metricDef{l + "spikes_per_img", "spikes"},
			metricDef{l + "burst_share", "share"})
	}
	return append(defs,
		metricDef{"snn.out.seq_ns_per_step", "ns"},
		metricDef{"snn.out.lockstep_ns_per_lane_step", "ns"},
		metricDef{"snn.seq_closure_share", "share"},
		metricDef{"kernels.synops_per_img", "synops"},
		metricDef{"kernels.lockstep_ns_per_synop", "ns"},
		metricDef{"setup.train_s", "s"},
		metricDef{"setup.register_s", "s"},
		metricDef{"setup.spawn_s", "s"},
		metricDef{"trace.overhead_p50_share", "share"},
		metricDef{"trace.coverage_share", "share"},
	)
}()

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics with their sample counts.
type report struct {
	defs   []metricDef
	values map[string]float64
	counts map[string]int
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, counts: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	r.counts[name] = n
}

// missing lists defined metrics the run did not set.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// metrics is the result line's metrics object.
func (r *report) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		out[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// print writes one line per metric: name, value, unit, sample count.
func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-36s %14.6g %-7s n=%d\n", d.name, r.values[d.name], d.unit, r.counts[d.name])
	}
}

// quantile is the linearly interpolated p-quantile of vs (sorted in
// place); 0 for no samples.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(vs) {
		sort.Float64s(vs)
	}
	pos := p * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median leaves vs unsorted.
func median(vs []float64) float64 { return quantile(append([]float64(nil), vs...), 0.5) }

// kv prints one "record:" line of key=value pairs: the like-for-like
// facts of the run.
func kv(w io.Writer, pairs ...any) {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		fmt.Fprintf(&b, " %v=%v", pairs[i], pairs[i+1])
	}
	fmt.Fprintf(w, "record:%s\n", b.String())
}
