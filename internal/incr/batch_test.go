package incr

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rel"
)

// worldsOracle computes q's probability by possible-world enumeration over
// the store's live facts, with the fact probabilities of over (store id →
// probability) applied. It shares no code with the automaton, unlike
// Store.Oracle.
func worldsOracle(t *testing.T, s *Store, q rel.CQ, over map[int]float64) float64 {
	t.Helper()
	tid, ids, _ := s.Snapshot()
	for i, id := range ids {
		if p, ok := over[id]; ok {
			if err := tid.SetProb(i, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tid.QueryProbabilityEnumeration(q)
}

// checkBatch runs lanes through v.ProbabilityBatch and compares every lane
// with possible-world enumeration; lanes listed in bad must fail instead.
func checkBatch(t *testing.T, s *Store, v *View, lanes []map[int]float64, bad map[int]bool, ctx string) {
	t.Helper()
	out, seq, err := v.ProbabilityBatch(lanes)
	if seq != s.Seq() {
		t.Fatalf("%s: batch seq %d, store %d", ctx, seq, s.Seq())
	}
	var le core.LaneErrors
	if err != nil && !errors.As(err, &le) {
		t.Fatalf("%s: %v", ctx, err)
	}
	for l, lane := range lanes {
		if bad[l] {
			if le == nil || le[l] == nil || !math.IsNaN(out[l]) {
				t.Fatalf("%s: lane %d = %v passed, want a lane error", ctx, l, out[l])
			}
			continue
		}
		if le != nil && le[l] != nil {
			t.Fatalf("%s: lane %d failed: %v", ctx, l, le[l])
		}
		if want := worldsOracle(t, s, v.Query(), lane); math.Abs(out[l]-want) > 1e-9 {
			t.Fatalf("%s: lane %d = %v, enumeration %v", ctx, l, out[l], want)
		}
	}
}

// TestViewProbabilityBatch answers override lanes on a sharded live view
// before and after the view's shard set changes under it: a fact attached in
// place (the spliced programs), a fact opening a fresh shard, and a delete.
// Lanes naming deleted or unknown facts, or carrying bad probabilities, fail
// alone.
func TestViewProbabilityBatch(t *testing.T) {
	s, err := NewStore(gen.RSTChains(2, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.RegisterView(rel.HardQuery(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, s, v, []map[int]float64{{}, {0: 0.9}, {1: 0.2, 10: 0.7}, {0: 1, 1: 1, 2: 1}}, nil, "fresh")

	attached, err := s.Insert(rel.NewFact("T", "g0v0"), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Attached != 1 {
		t.Fatalf("insert was not attached in place: %+v", s.Stats())
	}
	fresh, err := s.Insert(rel.NewFact("R", "z"), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	lanes := []map[int]float64{
		{},
		{attached: 0.1, 0: 0.8},
		{fresh: 0.9, 7: 0.3},
		{4: 0.5},            // deleted
		{99: 0.5},           // unknown
		{-1: 0.5},           // unknown
		{0: 1.5},            // out of range
		{0: math.NaN()},     // NaN
		{attached: 1, 3: 0}, // healthy after the failures
	}
	checkBatch(t, s, v, lanes, map[int]bool{3: true, 4: true, 5: true, 6: true, 7: true}, "after attach, open and delete")

	_, _, err = v.ProbabilityBatch(lanes[3:4])
	var le core.LaneErrors
	if !errors.As(err, &le) || !errors.Is(le[0], ErrNoLiveFact) {
		t.Fatalf("deleted-fact lane error %v, want ErrNoLiveFact", err)
	}
	if out, _, err := v.ProbabilityBatch(nil); out != nil || err != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	// The lanes left the view untouched.
	checkViews(t, s, []*View{v}, "after the batches")
}

// TestUnregisteredViewKeepsItsSeq: a view stops following commits once
// unregistered, so its reads must be labelled with the commit they reflect,
// not with the store's current one.
func TestUnregisteredViewKeepsItsSeq(t *testing.T) {
	s, err := NewStore(gen.RSTChain(3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.RegisterView(rel.HardQuery(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := worldsOracle(t, s, v.Query(), nil)
	wantRaised := worldsOracle(t, s, v.Query(), map[int]float64{1: 1})
	s.UnregisterView(v)
	if err := s.SetProb(0, 0.99); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	p, seq := v.ProbabilitySeq()
	if seq != 0 || math.Abs(p-want) > 1e-9 {
		t.Fatalf("unregistered view answered %v at seq %d, want %v at seq 0", p, seq, want)
	}
	// The lanes route by the facts as they were at seq 0: fact 1 was live
	// then.
	out, seq, err := v.ProbabilityBatch([]map[int]float64{{}, {1: 1}})
	if err != nil || seq != 0 {
		t.Fatalf("unregistered batch: seq %d, err %v", seq, err)
	}
	if math.Abs(out[0]-want) > 1e-9 || math.Abs(out[1]-wantRaised) > 1e-9 {
		t.Fatalf("unregistered batch = %v, want [%v %v]", out, want, wantRaised)
	}
}
