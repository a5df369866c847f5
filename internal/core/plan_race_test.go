package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/rel"
)

// TestPlanConcurrentMixedEvaluations hammers one Plan, straight from
// Prepare, from 8 goroutines with interleaved Probability, ProbabilityBatch
// and lineage Result calls and checks every answer against serial
// references. Run under -race (CI does) this is the proof that a prepared
// plan is immutable: its compiled program, interners and pooled evaluation
// states are safe for parallel readers with no further setup.
func TestPlanConcurrentMixedEvaluations(t *testing.T) {
	tid := gen.RSTChain(40, 0.5)
	c, p := tid.ToCInstance()
	pl, err := PrepareCQ(c, rel.HardQuery(), Options{EmitLineage: true})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(31))
	maps := append([]logic.Prob{p}, randomProbMaps(r, p, 3)...)

	const goroutines = 8
	const iters = 25
	got := make([][]float64, goroutines*iters) // written by one goroutine each
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(maps)
				var out []float64
				switch (g + it) % 3 {
				case 0:
					v, err := pl.Probability(maps[i])
					if err != nil {
						errs <- err
						return
					}
					out = []float64{v}
				case 1:
					res, err := pl.Result(maps[i])
					if err != nil {
						errs <- err
						return
					}
					out = []float64{res.Probability, res.Lineage.DDNNFProbability(res.Root, maps[i])}
				default:
					v, err := pl.ProbabilityBatch(maps)
					if err != nil {
						errs <- err
						return
					}
					out = v
				}
				got[g*iters+it] = out
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial references, computed after the concurrent phase so the plan's
	// first evaluations ran in parallel.
	want := make([]float64, len(maps))
	for i, m := range maps {
		if want[i], err = pl.Probability(m); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < goroutines; g++ {
		for it := 0; it < iters; it++ {
			out := got[g*iters+it]
			if (g+it)%3 == 2 {
				// Every lane runs the same row program in the same order as
				// the serial call, so the answers are bit-identical.
				for i := range maps {
					if out[i] != want[i] {
						t.Errorf("goroutine %d lane %d: batch %v, want %v", g, i, out[i], want[i])
					}
				}
				continue
			}
			w := want[(g+it)%len(maps)]
			if out[0] != w {
				t.Errorf("goroutine %d iter %d: probability %v, want %v", g, it, out[0], w)
			}
			// The d-DNNF pass sums in a different order than the row
			// program, so it may differ in the last bits.
			if len(out) == 2 && math.Abs(out[1]-w) > 1e-9 {
				t.Errorf("goroutine %d iter %d: d-DNNF %v, want %v", g, it, out[1], w)
			}
		}
	}
}

// TestFreezeIsIdempotent: Freeze is a no-op kept for old callers — it
// returns nil any number of times and leaves the answers untouched.
func TestFreezeIsIdempotent(t *testing.T) {
	pl, p, err := PrepareTID(gen.RSTChain(6, 0.5), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Freeze(); err != nil {
		t.Fatal(err)
	}
	after, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("Freeze changed the answer: %v vs %v", before, after)
	}
}
