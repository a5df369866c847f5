package core

import (
	"fmt"
	"strings"

	"repro/internal/core/kernel"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// ShardedPlan is a compiled query plan split along the connected components
// of the joint instance+event graph. The dynamic program over a disconnected
// graph factors into one independent program per component, so Prepare-ing a
// sub-plan per component gives the same answers as the monolithic Prepare
// while unlocking locality: each shard's tables depend only on its own
// events, shards evaluate in parallel over a worker pool (the Serve
// machinery), and — through internal/incr — an update to one fact touches
// one shard's spine instead of the whole structure.
//
// The per-shard results are combined at the empty root bag: each shard
// contributes a small distribution over determinized automaton state sets,
// and the fold multiplies row probabilities across shards while joining
// their state sets through the query — exactly the join chain the monolithic
// plan runs over its decomposition forest, so disconnected queries (whose
// matches span components) are still answered exactly. The fold's transition
// structure depends only on the compiled shards, never on the probabilities,
// so it is compiled once at Prepare time and evaluations run it as pure
// float arithmetic.
//
// Like *Plan, a ShardedPlan is immutable once PrepareSharded returns: any
// number of goroutines may call Probability, ProbabilityBatch and Result
// concurrently, and each call fans its shards over a worker pool.
//
//pdblint:frozen
type ShardedPlan struct {
	q     rel.CQ
	combQ Query // join/accept oracle for the cross-shard fold

	shards     []*Plan
	subC       []*pdb.CInstance
	factShard  []int // instance fact index -> shard
	eventShard map[logic.Event]int
	width      int
	nodes      int

	// The precompiled fold over the shards' root distributions.
	prog foldProgram
}

// foldProgram is a compiled cross-shard combine: steps[s] multiplies the
// running distribution with shard s's root vector (its root block, in root
// row order), and accepts flags the final rows containing an accepting
// state. The program depends only on the shards' compiled structure — row
// keys are probability-independent — so it is compiled once and every
// evaluation runs it as pure float arithmetic.
type foldProgram struct {
	steps   []foldStep
	accepts []bool
}

// foldStep combines the running cross-shard distribution with one shard's
// root vector: every edge multiplies running row a with shard row b into
// output row out (rows whose joined state sets coincide share an output row).
// in is the shard's root row count.
type foldStep struct {
	edges    []foldEdge
	rows, in int
}

type foldEdge struct{ a, b, out int32 }

// rootStates returns the member states of every row of a root layout, in
// row order: one shard's input to compileFold.
func (pl *Plan) rootStates(layout []rowKey) [][]string {
	sets := make([][]string, len(layout))
	for i, k := range layout {
		sets[i] = pl.setStrings(k.set, nil)
	}
	return sets
}

// compileFold builds the fold program over the given shard root layouts
// (roots[s][i] holds the states of shard s's root row i): the fold starts
// from the query's start set (the join identity for CQ automata) and
// absorbs one shard per step, joining state sets through q.
// Because root bags are empty, the state sets carry no live domain
// elements, so joining them through any one CQQuery instance is sound even
// when every shard compiled its own.
func compileFold(q Query, roots [][][]string) foldProgram {
	prog := foldProgram{steps: make([]foldStep, len(roots))}
	cur := [][]string{append([]string(nil), q.Start()...)}
	for si, sets := range roots {
		var outSets [][]string
		outIdx := map[string]int32{}
		step := foldStep{in: len(sets)}
		for a, A := range cur {
			for b, B := range sets {
				m := detJoin(A, B, q)
				key := strings.Join(m, "\x1f")
				o, ok := outIdx[key]
				if !ok {
					o = int32(len(outSets))
					outIdx[key] = o
					outSets = append(outSets, m)
				}
				step.edges = append(step.edges, foldEdge{a: int32(a), b: int32(b), out: o})
			}
		}
		step.rows = len(outSets)
		prog.steps[si] = step
		cur = outSets
	}
	prog.accepts = make([]bool, len(cur))
	for i, set := range cur {
		prog.accepts[i] = acceptsAny(set, q)
	}
	return prog
}

// newScratch returns per-step output buffers sized for fold, so a
// single-writer caller (ShardCombiner) folds with zero allocations.
func (fp *foldProgram) newScratch() [][]float64 {
	out := make([][]float64, len(fp.steps))
	for i := range fp.steps {
		out[i] = make([]float64, fp.steps[i].rows)
	}
	return out
}

// fold runs the program over the per-shard root vectors and returns the
// accepting and total probability mass. Pure float arithmetic; with a nil
// scratch it allocates its stage buffers (safe for concurrent callers),
// with a newScratch buffer set it is allocation-free (single-writer).
func (fp *foldProgram) fold(vecs, scratch [][]float64) (prob, mass float64) {
	var one [1]float64
	one[0] = 1
	cur := one[:]
	for si := range fp.steps {
		step := &fp.steps[si]
		var next []float64
		if scratch != nil {
			next = scratch[si]
			clear(next)
		} else {
			next = make([]float64, step.rows)
		}
		sv := vecs[si]
		for _, e := range step.edges {
			next[e.out] += cur[e.a] * sv[e.b]
		}
		cur = next
	}
	for i, w := range cur {
		mass += w
		if fp.accepts[i] {
			prob += w
		}
	}
	return prob, mass
}

// foldLanes is the batch fold: it runs the program over B lanes at once.
// vecs[s] is shard s's root block (root rows × B, lane-major) or, for a
// shard every lane shares, its single-lane root vector, which is broadcast.
// Lanes marked in lerrs (nil, or one entry per lane) failed upstream and
// come back NaN; the rest go through the shared epilogue (finishLanes).
func (fp *foldProgram) foldLanes(vecs [][]float64, B int, lerrs []error) ([]float64, error) {
	cur := make([]float64, B)
	kernel.Fill(cur, 1)
	for si := range fp.steps {
		step := &fp.steps[si]
		next := make([]float64, step.rows*B)
		sv := vecs[si]
		shared := len(sv) != step.in*B
		for _, e := range step.edges {
			dst, a := next[int(e.out)*B:int(e.out)*B+B], cur[int(e.a)*B:int(e.a)*B+B]
			if shared {
				kernel.ScaleAdd(dst, a, sv[e.b])
			} else {
				kernel.MulAdd(dst, a, sv[int(e.b)*B:int(e.b)*B+B])
			}
		}
		cur = next
	}
	out := make([]float64, B)
	totals := make([]float64, B)
	for r, acc := range fp.accepts {
		row := cur[r*B : r*B+B]
		kernel.AddTo(totals, row)
		if acc {
			kernel.AddTo(out, row)
		}
	}
	finishLanes(out, totals, &lerrs)
	return out, laneError(lerrs)
}

// PrepareSharded compiles one plan per connected component of the joint
// instance+event graph of c and returns the sharded plan answering q over
// their combination. Options are honoured as in PrepareCQ, except that a
// pinned Joint decomposition is rejected (it describes the union graph, not
// the shards) and EmitLineage is unsupported.
func PrepareSharded(c *pdb.CInstance, q rel.CQ, opts Options) (*ShardedPlan, error) {
	if opts.Joint != nil {
		return nil, fmt.Errorf("core: a sharded plan cannot pin a joint decomposition")
	}
	if opts.EmitLineage {
		return nil, fmt.Errorf("core: sharded plans do not emit lineage")
	}

	di := c.Inst.IndexDomain()
	joint, _, eventVertex := JointEventGraph(c, di)
	part := treedec.Components(joint)

	// Assign every fact to the component of its full scope (arguments plus
	// annotation events — one clique, hence one component). Facts with an
	// empty scope (0-ary, event-free) anchor to no vertex; they share one
	// extra shard of their own.
	scopes := c.Inst.FactScopes(di)
	factComp := make([]int, c.NumFacts())
	floating := false
	for fi, scope := range scopes {
		comp := -1
		if len(scope) > 0 {
			comp = part.Comp[scope[0]]
		} else if vars := logic.Vars(c.Ann[fi]); len(vars) > 0 {
			comp = part.Comp[eventVertex[vars[0]]]
		} else {
			floating = true
		}
		factComp[fi] = comp
	}

	// Renumber the components actually carrying facts densely, in order of
	// their first fact, and build the per-shard sub-instances.
	shardOf := map[int]int{}
	sp := &ShardedPlan{q: q, eventShard: map[logic.Event]int{}, factShard: make([]int, c.NumFacts())}
	for fi := range factComp {
		comp := factComp[fi]
		if comp < 0 {
			continue
		}
		k, ok := shardOf[comp]
		if !ok {
			k = len(sp.subC)
			shardOf[comp] = k
			sp.subC = append(sp.subC, pdb.NewCInstance())
		}
		sp.subC[k].Add(c.Inst.Fact(fi), c.Ann[fi])
		sp.factShard[fi] = k
		for _, e := range logic.Vars(c.Ann[fi]) {
			sp.eventShard[e] = k
		}
	}
	if floating {
		k := len(sp.subC)
		sp.subC = append(sp.subC, pdb.NewCInstance())
		for fi := range factComp {
			if factComp[fi] < 0 {
				sp.subC[k].Add(c.Inst.Fact(fi), c.Ann[fi])
				sp.factShard[fi] = k
			}
		}
	}

	// An instance where no component carries facts (empty, or every fact
	// tombstoned away upstream) compiles to zero shards; the fold below then
	// starts from the query's start set and folds nothing, which is exactly
	// the query-on-the-empty-instance distribution. Width keeps the
	// empty-decomposition convention of the monolithic path (-1).
	sp.width = -1
	for _, sub := range sp.subC {
		pl, err := PrepareCQ(sub, q, opts)
		if err != nil {
			return nil, err
		}
		sp.shards = append(sp.shards, pl)
		if pl.width > sp.width {
			sp.width = pl.width
		}
		sp.nodes += len(pl.nodes)
	}

	sp.combQ = NewCQQuery(q, c.Inst, di)
	roots := make([][][]string, len(sp.shards))
	for si, pl := range sp.shards {
		roots[si] = pl.rootStates(pl.prog.layouts[pl.root])
	}
	sp.prog = compileFold(sp.combQ, roots)
	return sp, nil
}

// PrepareShardedTID compiles a sharded plan for a conjunctive query on a TID
// instance via the Theorem 1 translation, returning the plan together with
// the event probability map of the translation.
func PrepareShardedTID(t *pdb.TID, q rel.CQ, opts Options) (*ShardedPlan, logic.Prob, error) {
	c, p := t.ToCInstance()
	sp, err := PrepareSharded(c, q, opts)
	if err != nil {
		return nil, nil, err
	}
	return sp, p, nil
}

// NumShards returns the number of connected components the plan was split
// into.
func (sp *ShardedPlan) NumShards() int { return len(sp.shards) }

// Width returns the largest joint width across the shards — the structural
// parameter that bounds every shard's table sizes. It never exceeds the
// monolithic plan's width.
func (sp *ShardedPlan) Width() int { return sp.width }

// NumNiceNodes returns the total nice-node count across the shards.
func (sp *ShardedPlan) NumNiceNodes() int { return sp.nodes }

// ShardStats returns the shape statistics of every shard's decomposition.
func (sp *ShardedPlan) ShardStats() []treedec.Stats {
	out := make([]treedec.Stats, len(sp.shards))
	for i, pl := range sp.shards {
		out[i] = pl.Shape()
	}
	return out
}

// ShardOfFact returns the shard holding fact fi of the prepared instance.
func (sp *ShardedPlan) ShardOfFact(fi int) int { return sp.factShard[fi] }

// ShardOfEvent returns the shard whose tables depend on event e, and whether
// the event belongs to the plan at all. It is the routing map of the update
// path: a probability change to e dirties exactly this shard.
func (sp *ShardedPlan) ShardOfEvent(e logic.Event) (int, bool) {
	k, ok := sp.eventShard[e]
	return k, ok
}

// evalShards runs every shard's row program under the validated lanes ps
// and returns each shard's root block (root rows × lanes, lane-major),
// fanning the shards over a worker pool.
func (sp *ShardedPlan) evalShards(ps []logic.Prob) [][]float64 {
	vecs := make([][]float64, len(sp.shards))
	runPool(len(sp.shards), 0, func(i int) {
		pl := sp.shards[i]
		st := pl.getState()
		root := pl.runBatchProg(st, pl.prog.fused, pl.fillLaneWeights(st, ps), len(ps))
		vecs[i] = append([]float64(nil), root...)
		st.arena.Put(root)
		pl.putState(st)
	})
	return vecs
}

// Probability evaluates every shard under p and combines the per-shard root
// distributions into the exact query probability, matching what the
// monolithic Prepare path returns. Safe for concurrent calls.
//
//pdblint:frozenentry
func (sp *ShardedPlan) Probability(p logic.Prob) (float64, error) {
	res, err := sp.Result(p)
	if err != nil {
		return 0, err
	}
	return res.Probability, nil
}

// Result evaluates the sharded plan under p. Width is the largest shard
// width, NiceNodes the total across shards; sharded plans do not emit
// lineage. Safe for concurrent calls.
//
//pdblint:frozenentry
func (sp *ShardedPlan) Result(p logic.Prob) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prob, mass := sp.prog.fold(sp.evalShards([]logic.Prob{p}), nil)
	if massDrifted(mass) {
		return nil, errMassDrift(mass)
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	return &Result{Probability: prob, TotalMass: mass, Width: sp.width, NiceNodes: sp.nodes}, nil
}

// ProbabilityBatch evaluates the sharded plan under B = len(ps) probability
// maps: every shard runs its multi-lane dynamic program once, and the fold
// carries one weight lane per assignment. Lane failures are independent, as
// in (*Plan).ProbabilityBatch: bad lanes come back NaN under a LaneErrors
// while healthy lanes keep their values. Safe for concurrent calls.
//
//pdblint:frozenentry
func (sp *ShardedPlan) ProbabilityBatch(ps []logic.Prob) ([]float64, error) {
	B := len(ps)
	if B == 0 {
		return nil, nil
	}
	clean, lerrs := sanitizeLanes(ps)
	if nan := allLanesNaN(lerrs); nan != nil {
		return nan, LaneErrors(lerrs)
	}
	return sp.prog.foldLanes(sp.evalShards(clean), B, lerrs)
}

// ShardCombiner is the commit-time recombination step of sharded live
// stores (internal/incr): it folds the root tables of per-shard
// Materialized views into the combined query probability. The fold program
// is compiled once from the shards' (probability-independent) root row
// structure and rerun as pure float arithmetic on every call, reading each
// view's persisted root table in place, so a commit that dirtied one shard
// pays only a few multiplies per shard to refresh the combined answer; the
// combiner recompiles itself automatically when a shard's plan structure
// changes (StageAttach bumps the generation).
//
// Every view must be a Materialized of a shard plan compiled for the same
// conjunctive query; q supplies the (instance-independent) join of root
// state sets, e.g. a CQQuery of that query over any instance. A
// ShardCombiner is single-writer, like the Materialized views it reads: the
// caller serializes, as incr.Store does under its write lock.
type ShardCombiner struct {
	q       Query
	ms      []*Materialized
	gens    []uint64 // structure generations: a mismatch forces a recompile
	prog    foldProgram
	vecs    [][]float64
	scratch [][]float64
}

// NewShardCombiner compiles the fold over the given shard views. Every view
// must have been committed at least once (Materialize does this).
func NewShardCombiner(q Query, ms []*Materialized) *ShardCombiner {
	sc := &ShardCombiner{q: q, ms: ms}
	sc.compile()
	return sc
}

func (sc *ShardCombiner) compile() {
	sc.gens = make([]uint64, len(sc.ms))
	sc.vecs = make([][]float64, len(sc.ms))
	roots := make([][][]string, len(sc.ms))
	for i, m := range sc.ms {
		sc.gens[i] = m.structGen
		roots[i] = m.pl.rootStates(m.layouts[m.pl.root])
	}
	sc.prog = compileFold(sc.q, roots)
	sc.scratch = sc.prog.newScratch()
}

// Probability folds the shards' root tables into the combined query
// probability — a few float operations per shard. Call after the shards'
// Materialized views have committed.
func (sc *ShardCombiner) Probability() (float64, error) {
	for i, m := range sc.ms {
		if m.structGen != sc.gens[i] {
			sc.compile()
			break
		}
	}
	for i, m := range sc.ms {
		sc.vecs[i] = m.vals[m.pl.root]
	}
	prob, mass := sc.prog.fold(sc.vecs, sc.scratch)
	if massDrifted(mass) {
		return 0, fmt.Errorf("core: combined probability mass %v drifted from 1", mass)
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	return prob, nil
}

// ProbabilityBatch answers B lanes from the shard views without changing
// them. overrides[k] holds the lane weights of shard k: a shard with none
// contributes its materialized root table as it stands, and every other
// shard runs its read-only lane pass (Materialized.laneRoot) once over all
// B lanes. lerrs, when non-nil, holds one entry per lane: lanes already
// failed upstream come back NaN. The other lanes fail independently on mass
// drift, as in (*Plan).ProbabilityBatch.
//
// Unlike Probability it writes no combiner or view state, so any number of
// readers may call it at once while no commit runs (incr.Store holds its
// read lock), provided the views have committed since their last change.
func (sc *ShardCombiner) ProbabilityBatch(B int, overrides [][]LaneWeight, lerrs []error) ([]float64, error) {
	vecs := make([][]float64, len(sc.ms))
	for k, m := range sc.ms {
		if m.structGen != sc.gens[k] {
			return nil, errStructureChanged
		}
		if len(overrides[k]) == 0 {
			vecs[k] = m.vals[m.pl.root]
			continue
		}
		root, err := m.laneRoot(B, overrides[k])
		if err != nil {
			return nil, err
		}
		vecs[k] = root
	}
	return sc.prog.foldLanes(vecs, B, lerrs)
}
