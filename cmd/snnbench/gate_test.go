package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestPrevGatesSkipUnlikeArtifacts pins the like-for-like rule of the
// -hotpath-prev, -batch-prev and -fleet-prev gates: a 50% regression
// fails the gate only when both artifacts share a schema and a CPU
// count; otherwise the comparison is skipped.
func TestPrevGatesSkipUnlikeArtifacts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, art any) string {
		t.Helper()
		data, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Each gate's artifact at a given schema, CPU count and speed
	// (higher is faster, so the second artifact regresses by half).
	gates := []struct {
		name    string
		compare func(prev, cur string, tol float64) error
		art     func(schema string, cpus int, speed float64) any
	}{
		{"hotpath", compareHotpath, func(schema string, cpus int, speed float64) any {
			return hotpathArtifact{Schema: schema, CPUs: cpus,
				Benchmarks: []hotpathBench{{Name: "snn-step", NsPerOp: 1000 / speed}}}
		}},
		{"batch", compareBatch, func(schema string, cpus int, speed float64) any {
			return batchArtifact{Schema: schema, CPUs: cpus,
				Points: []batchPoint{{B: 8, Kernel: "f32", Level: "avx2", LockstepImagesPerSec: 1000 * speed}}}
		}},
		{"fleet", compareFleet, func(schema string, cpus int, speed float64) any {
			return fleetArtifact{Schema: schema, CPUs: cpus,
				Points: []fleetPoint{{Shards: 2, ImagesPerSec: 1000 * speed}}}
		}},
	}
	cases := []struct {
		name       string
		curSchema  string
		curCPUs    int
		wantFailed bool
	}{
		{"like-for-like", "v1", 4, true},
		{"cpu count differs", "v1", 2, false},
		{"schema differs", "v2", 4, false},
	}
	for _, g := range gates {
		for _, c := range cases {
			prev := write(g.name+"-prev.json", g.art("v1", 4, 1))
			cur := write(g.name+"-cur.json", g.art(c.curSchema, c.curCPUs, 0.5))
			if err := g.compare(prev, cur, 0.2); (err != nil) != c.wantFailed {
				t.Errorf("%s gate, %s: err = %v, want failure %v", g.name, c.name, err, c.wantFailed)
			}
		}
	}
}
