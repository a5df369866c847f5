package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// FuzzEngineVsWorlds is the differential oracle of the engine: every case is
// a small random pc-instance (at most 12 events, annotations mixing ∧, ∨ and
// ¬) and a random Boolean CQ (self-joins and disconnected atoms included),
// and every evaluation surface of the package must agree with possible-world
// enumeration (pdb.CInstance.QueryProbabilityEnumeration, which shares no
// code with the automaton):
//
//   - Probability, and Result's d-DNNF lineage through DDNNFProbability;
//   - every lane of ProbabilityBatch, with one NaN-poisoned lane that must
//     come back NaN under LaneErrors;
//   - PrepareSharded, and a ShardCombiner over per-shard Materialized views
//     before and after a staged update;
//   - a Materialized view after Stage + CommitDelta;
//   - a Materialized view of the TID translation after StageAttach.
func FuzzEngineVsWorlds(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 11, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		c, p := fuzzPCInstance(r)
		q := fuzzCQ(r)
		checkEngineVsWorlds(t, c, p, q, r)
		checkAttachVsWorlds(t, q, r)
	})
}

const fuzzTol = 1e-9

var fuzzConsts = []string{"a", "b", "c", "d"}

// fuzzPCInstance draws up to 7 facts over R/1, S/2 and T/1 on four
// constants, annotated with random formulas over at most 12 events.
func fuzzPCInstance(r *rand.Rand) (*pdb.CInstance, logic.Prob) {
	nEv := 1 + r.Intn(12)
	events := make([]logic.Event, nEv)
	p := logic.Prob{}
	for i := range events {
		events[i] = logic.Event(fmt.Sprintf("e%d", i))
		p[events[i]] = fuzzProb(r)
	}
	var ann func(depth int) logic.Formula
	ann = func(depth int) logic.Formula {
		if depth == 0 || r.Intn(3) == 0 {
			return logic.Var(events[r.Intn(nEv)])
		}
		switch r.Intn(3) {
		case 0:
			return logic.Not(ann(depth - 1))
		case 1:
			return logic.And(ann(depth-1), ann(depth-1))
		default:
			return logic.Or(ann(depth-1), ann(depth-1))
		}
	}
	c := pdb.NewCInstance()
	for i, n := 0, 1+r.Intn(7); i < n; i++ {
		a, b := fuzzConsts[r.Intn(len(fuzzConsts))], fuzzConsts[r.Intn(len(fuzzConsts))]
		switch r.Intn(3) {
		case 0:
			c.AddFact(ann(2), "R", a)
		case 1:
			c.AddFact(ann(2), "S", a, b)
		default:
			c.AddFact(ann(2), "T", a)
		}
	}
	// Events that annotate no fact are not events of the instance.
	used := logic.Prob{}
	for _, e := range c.Events() {
		used[e] = p[e]
	}
	return c, used
}

// fuzzCQ draws a CQ of one to three atoms over x, y, z and the constants:
// variables repeat across atoms (joins, self-joins on S) or not at all
// (disconnected atoms).
func fuzzCQ(r *rand.Rand) rel.CQ {
	term := func() rel.Term {
		if r.Intn(6) == 0 {
			return rel.C(fuzzConsts[r.Intn(len(fuzzConsts))])
		}
		return rel.V([]string{"x", "y", "z"}[r.Intn(3)])
	}
	var atoms []rel.Atom
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		switch r.Intn(3) {
		case 0:
			atoms = append(atoms, rel.NewAtom("R", term()))
		case 1:
			atoms = append(atoms, rel.NewAtom("S", term(), term()))
		default:
			atoms = append(atoms, rel.NewAtom("T", term()))
		}
	}
	return rel.NewCQ(atoms...)
}

// fuzzProb draws an event probability, hitting 0 and 1 now and then.
func fuzzProb(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	}
	return r.Float64()
}

// fuzzReweight returns a copy of p with some events redrawn.
func fuzzReweight(r *rand.Rand, p logic.Prob) logic.Prob {
	out := logic.Prob{}
	for e, v := range p {
		if r.Intn(2) == 0 {
			v = fuzzProb(r)
		}
		out[e] = v
	}
	return out
}

func near(got, want float64) bool { return math.Abs(got-want) <= fuzzTol }

func checkEngineVsWorlds(t *testing.T, c *pdb.CInstance, p logic.Prob, q rel.CQ, r *rand.Rand) {
	t.Helper()
	want := c.QueryProbabilityEnumeration(q, p)

	pl, err := PrepareCQ(c, q, Options{EmitLineage: true})
	if err != nil {
		t.Fatalf("prepare %v: %v", q, err)
	}
	if got, err := pl.Probability(p); err != nil || !near(got, want) {
		t.Fatalf("%v: Probability %v (err %v), worlds %v", q, got, err, want)
	}
	res, err := pl.Result(p)
	if err != nil {
		t.Fatalf("%v: Result: %v", q, err)
	}
	if got := res.Lineage.DDNNFProbability(res.Root, p); !near(got, want) {
		t.Fatalf("%v: lineage d-DNNF %v, worlds %v", q, got, want)
	}

	// Batch: healthy lanes against enumeration, one poisoned lane.
	lanes := []logic.Prob{p, fuzzReweight(r, p), fuzzReweight(r, p), {c.Events()[0]: math.NaN()}}
	poisoned := len(lanes) - 1
	out, err := pl.ProbabilityBatch(lanes)
	le, ok := err.(LaneErrors)
	if !ok || le[poisoned] == nil {
		t.Fatalf("%v: batch error %v, want LaneErrors on lane %d", q, err, poisoned)
	}
	if !math.IsNaN(out[poisoned]) {
		t.Fatalf("%v: poisoned lane = %v, want NaN", q, out[poisoned])
	}
	for l, lp := range lanes[:poisoned] {
		if le[l] != nil {
			t.Fatalf("%v: healthy lane %d failed: %v", q, l, le[l])
		}
		if w := c.QueryProbabilityEnumeration(q, lp); !near(out[l], w) {
			t.Fatalf("%v: batch lane %d = %v, worlds %v", q, l, out[l], w)
		}
	}

	// Live view: stage a reweighting, commit, compare.
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatalf("%v: Materialize: %v", q, err)
	}
	if !near(m.Probability(), want) {
		t.Fatalf("%v: materialized %v, worlds %v", q, m.Probability(), want)
	}
	p2 := fuzzReweight(r, p)
	for e, v := range p2 {
		if err := m.Stage(e, v); err != nil {
			t.Fatalf("%v: Stage: %v", q, err)
		}
	}
	if _, err := m.CommitDelta(); err != nil {
		t.Fatalf("%v: CommitDelta: %v", q, err)
	}
	want2 := c.QueryProbabilityEnumeration(q, p2)
	if !near(m.Probability(), want2) {
		t.Fatalf("%v: materialized after commit %v, worlds %v", q, m.Probability(), want2)
	}

	// Sharded plan, and the live fold over per-shard views.
	sp, err := PrepareSharded(c, q, Options{})
	if err != nil {
		t.Fatalf("%v: PrepareSharded: %v", q, err)
	}
	if got, err := sp.Probability(p); err != nil || !near(got, want) {
		t.Fatalf("%v: sharded %v (err %v), worlds %v", q, got, err, want)
	}
	ms := make([]*Materialized, len(sp.shards))
	for i, shard := range sp.shards {
		if ms[i], err = shard.Materialize(p); err != nil {
			t.Fatalf("%v: shard %d Materialize: %v", q, i, err)
		}
	}
	empty := rel.NewInstance()
	sc := NewShardCombiner(NewCQQuery(q, empty, empty.IndexDomain()), ms)
	if got, err := sc.Probability(); err != nil || !near(got, want) {
		t.Fatalf("%v: combiner %v (err %v), worlds %v", q, got, err, want)
	}
	for e, v := range p2 {
		k, ok := sp.ShardOfEvent(e)
		if !ok {
			continue // the event annotates no fact
		}
		if err := ms[k].Stage(e, v); err != nil {
			t.Fatalf("%v: shard Stage: %v", q, err)
		}
	}
	for i, m := range ms {
		if _, err := m.CommitDelta(); err != nil {
			t.Fatalf("%v: shard %d CommitDelta: %v", q, i, err)
		}
	}
	if got, err := sc.Probability(); err != nil || !near(got, want2) {
		t.Fatalf("%v: combiner after commit %v (err %v), worlds %v", q, got, err, want2)
	}
}

// checkAttachVsWorlds grows the TID translation of a random tuple-independent
// instance through a live view's StageAttach and compares every step with
// enumeration over the grown instance.
func checkAttachVsWorlds(t *testing.T, q rel.CQ, r *rand.Rand) {
	t.Helper()
	tid := pdb.NewTID()
	for i, n := 0, 2+r.Intn(5); i < n; i++ {
		a, b := fuzzConsts[r.Intn(len(fuzzConsts))], fuzzConsts[r.Intn(len(fuzzConsts))]
		switch r.Intn(3) {
		case 0:
			tid.AddFact(fuzzProb(r), "R", a)
		case 1:
			tid.AddFact(fuzzProb(r), "S", a, b)
		default:
			tid.AddFact(fuzzProb(r), "T", a)
		}
	}
	c, p := tid.ToCInstance()
	pl, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatalf("%v: prepare TID: %v", q, err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatalf("%v: Materialize TID: %v", q, err)
	}
	for step := 0; step < 3; step++ {
		a, b := fuzzConsts[r.Intn(len(fuzzConsts))], fuzzConsts[r.Intn(len(fuzzConsts))]
		f := [3]rel.Fact{rel.NewFact("R", a), rel.NewFact("S", a, b), rel.NewFact("T", b)}[r.Intn(3)]
		if c.Inst.IndexOf(f) >= 0 || !pl.CanAttach(f) {
			continue
		}
		e := logic.Event(fmt.Sprintf("new%d", step))
		pr := fuzzProb(r)
		fi := c.Add(f, logic.Var(e))
		p[e] = pr
		if err := m.StageAttach(f, fi, e, pr); err != nil {
			t.Fatalf("%v: StageAttach %s: %v", q, f, err)
		}
		if _, err := m.CommitDelta(); err != nil {
			t.Fatalf("%v: CommitDelta after attach: %v", q, err)
		}
		if want := c.QueryProbabilityEnumeration(q, p); !near(m.Probability(), want) {
			t.Fatalf("%v: after attaching %s: materialized %v, worlds %v", q, f, m.Probability(), want)
		}
	}
}
