package main

import "fmt"

// The benchmark sits beside the CI snnbench -hotpath/-batch/-fleet
// artifacts and gates and replaces none of them. It claims no gain: it
// defines the workloads, metrics and bounds later changes are measured
// against.
//
// mlp-open (the MLP in process via Server.Classify at a Poisson rate) was
// dropped: at 600, 1000 and 2000/s its latency_p99_ms spread (IQR over
// median, 5 seeds) read 0.21-1.33 with the p50 at 0.06-0.23, above the
// 0.25 cap on any bound, and at 2000/s runs also shed. Its layers stay
// measured: batcher and routing on cnn-open, the MLP's snn layer on
// mlp-http and fleet-hot.

const (
	// defaultSeed is used when -seed is not given; holdoutSeed is kept
	// out of tuning, for validating later claims.
	defaultSeed uint64 = 1
	holdoutSeed uint64 = 7919

	// setupRepeats is how many times a run builds the system; setup_s
	// reports the median and the last build serves the load.
	setupRepeats = 5

	// warmupSeconds of load precede every measured phase.
	warmupSeconds = 1.5

	// latenessMeanLimitMs rejects an open-loop run whose generator sent
	// its requests later than this after their due times on average: it
	// fell behind its schedule, so it offered less than the stated rate.
	// Sporadic lateness (a scheduler stall) is not a rejection; it is
	// counted in the latency, which runs from the due time.
	latenessMeanLimitMs = 5.0

	// stealLimit rejects a measured phase during which the hypervisor
	// gave more than this share of the machine's CPU time to other
	// guests: its latencies measure the neighbours, not the program. The
	// phase is measured again, up to measureAttempts times in all, and
	// the last attempt is reported whatever its steal: a run must end
	// with a result, and a neighbour busy for the whole run leaves no
	// quieter phase to report.
	stealLimit      = 0.05
	measureAttempts = 4
)

// Workload is one traffic mix against one model.
type Workload struct {
	Name string
	// Model is the tiny lab recipe served: "digits" (MLP-784-48-10 on
	// synthetic digits) or "textures10" (LeNetMini on 3×16×16 textures).
	Model string
	// Mode is modeHTTP (one serve.Server on loopback), modeFleet (a
	// fleet.Front over snnserve -worker children) or modeOpen
	// (in-process Server.Classify at a Poisson rate).
	Mode string
	// Clients is the closed-loop connection count (http, fleet).
	Clients int
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64
	// HotShare of fleet requests repeat one of HotSet images.
	HotShare float64
	HotSet   int
	// LimitMs is the latency limit within_slo_share counts against.
	LimitMs float64
}

const (
	modeHTTP  = "http"
	modeFleet = "fleet"
	modeOpen  = "open"
)

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []Workload{
	{Name: "mlp-http", Model: "digits", Mode: modeHTTP, Clients: 4, LimitMs: 25},
	{Name: "fleet-hot", Model: "digits", Mode: modeFleet, Clients: 4, HotShare: 0.8, HotSet: 512, LimitMs: 25},
	{Name: "cnn-open", Model: "textures10", Mode: modeOpen, Rate: 600, LimitMs: 40},
}

// workload returns the named workload.
func workload(name string) (*Workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
