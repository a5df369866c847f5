package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload for a few seconds, untraced and traced, and
// checks that the correctness checks pass and that every metric
// BENCHMARK.json names is reported with its unit. Run from this directory:
//
//	go test -run Smoke -v .
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pdbd and runs each workload for seconds")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "pdbd"), "../cmd/pdbd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pdbd: %v\n%s", err, out)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.Name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				r := &run{
					root: "..", bin: bin, work: t.TempDir(), seed: 1, trace: traced,
					seconds: 3 * time.Second, rng: rand.New(rand.NewSource(1)),
					e2e: map[string]metric{}, layer: map[string]metric{},
				}
				if err := r.exec(w.Name); err != nil {
					t.Fatal(err)
				}
				if len(r.problems) > 0 || r.failed > 0 {
					t.Fatalf("%d of %d ops failed; checks: %v", r.failed, r.attempted, r.problems)
				}
				got, want := r.e2e, spec.EndToEnd
				if traced {
					got, want = r.layer, spec.PerLayer
				}
				if len(got) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, m := range want {
					if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("metric %s: reported %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
				}
			})
		}
	}
}
