package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core/kernel"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// massEps bounds the tolerated floating-point drift of a root distribution's
// total probability mass from 1. Every summary path — scalar, batch, sharded
// fold, materialized commit — rejects through the same massDrifted check, so
// an instance that trips the guard fails identically everywhere.
const massEps = 1e-6

// massDrifted reports whether a total probability mass violates the shared
// drift tolerance.
func massDrifted(total float64) bool { return total < 1-massEps || total > 1+massEps }

func errMassDrift(total float64) error {
	return fmt.Errorf("core: probability mass %v drifted from 1", total)
}

// Plan is a compiled query plan: the Prepare/Evaluate split of the Theorem
// 1/2 engine. Prepare does every probability-independent stage — domain
// indexing, the joint instance+event graph, its tree decomposition, the nice
// decomposition, fact homing, compiled annotation evaluators, the
// determinized automaton's state-set transitions and, from those, the dense
// row program of the whole dynamic program (see rowprog.go). Evaluation is
// then only arithmetic: Probability, ProbabilityBatch and Result run the
// compiled program over lane blocks, with no map lookups, no interning and
// no string keys.
//
// # Concurrency
//
// A plan is immutable once Prepare returns. All per-evaluation state (weight
// buffers, lane blocks) lives in pooled evaluation states, so any number of
// goroutines may call Probability / ProbabilityBatch / Result on one plan
// (see also Serve). The one writer is a Materialized view's StageAttach,
// which splices new nodes into its plan: it must not overlap other calls on
// the plan, and afterwards plan-level evaluation fails with a
// structure-changed error while the view keeps answering.
//
//pdblint:frozen
type Plan struct {
	q           Query
	emitLineage bool

	events []logic.Event
	nDom   int
	width  int
	nodes  []planNode
	post   []int
	root   int

	// Structure retained for the incremental layer (Materialize, attachFact)
	// and for shape reporting: the nice decomposition the nodes were compiled
	// from, the domain index of the prepared instance, per-node parents, the
	// forget node applying each event's weight, and the event→index map.
	nice      *treedec.Nice
	di        *rel.DomainIndex
	parents   []int
	forgetAt  []int
	eventIdx  map[logic.Event]int
	structGen uint64 // bumped by attachFact; Materialized views check it

	startSet int32

	states stateInterner
	sets   setInterner
	accept []bool // accept[setID]: does the set contain an accepting state?

	// Determinized transition caches, filled by the compile passes of
	// Prepare and StageAttach. All keys are integers: the query's string
	// states are touched only on the first encounter of a state, state
	// pair, or set. Evaluation never reads them.
	setTrans   map[setTransKey]int32 // (op, operand, set) -> successor set
	joinCache  map[uint64]int32      // (left set, right set) -> joined set
	stepCache  map[stepKey]span      // (op, operand, state) -> successor states in stepSuccs
	pairCache  map[uint64]int32      // (state, state) -> merged state, -1 dead
	pruneCache map[int32]int32       // unpruned set -> pruned set
	stepSuccs  []int32               // the successor lists of stepCache, back to back

	// prog is the compiled row program (see rowprog.go), built by Prepare
	// and read-only afterwards: the only thing evaluation runs.
	prog *rowProgram

	// Structural scratch of the compile passes.
	strBuf []string
	idBuf  []int32

	// evalPool recycles per-evaluation state (weight buffers, lane blocks);
	// each Probability/ProbabilityBatch/Result call checks one out, so
	// concurrent evaluations never share scratch.
	evalPool sync.Pool
}

// evalState is the per-evaluation mutable state of a Plan: everything the
// row program writes to. It is pooled per plan, so steady-state serial
// evaluation reuses one state with no allocation, while concurrent
// evaluations each get their own.
type evalState struct {
	peBuf []float64

	// The lane-block arena and the per-node block pointers of runBatchProg
	// (see rowprog.go).
	arena  kernel.Arena
	blocks [][]float64

	// one adapts a single probability map to the lane-major weight fill.
	one [1]logic.Prob
}

func (pl *Plan) getState() *evalState {
	if st, ok := pl.evalPool.Get().(*evalState); ok {
		return st
	}
	return &evalState{}
}

func (pl *Plan) putState(st *evalState) { pl.evalPool.Put(st) }

// planNode is the compiled form of one nice-decomposition node.
type planNode struct {
	kind     treedec.NiceKind
	vertex   int  // introduced/forgotten vertex, -1 otherwise
	child0   int  // first child, -1 if none
	child1   int  // second child, -1 if none
	isEvent  bool // the vertex is an event vertex
	pos      int  // bit position of the event within the child bag's events
	eventIdx int  // index into events for forget-event nodes
	facts    []planFact
}

// planFact is a fact homed at a node, with its annotation compiled against
// the bag's event bit layout: the annotation evaluates directly over a row's
// bits word.
type planFact struct {
	fi int
	cf *logic.CompiledFormula
}

// rowKey is one determinized table row key: an interned automaton state set
// and the valuation of the in-bag events.
type rowKey struct {
	set  int32
	bits uint64
}

// Transition operations, the op field of setTransKey and stepKey.
const (
	opIntroduce uint8 = iota
	opForget
	opFact
)

// setTransKey addresses a cached determinized set transition: the interned
// state set plus the vertex (introduce/forget) or fact index (fact
// application).
type setTransKey struct {
	op  uint8
	arg int32
	set int32
}

// stepKey addresses a cached single-state transition.
type stepKey struct {
	op    uint8
	arg   int32
	state int32
}

// stateInterner assigns dense int32 ids to automaton state strings.
type stateInterner struct {
	ids  map[string]int32
	strs []string
}

func (si *stateInterner) id(s string) int32 {
	if id, ok := si.ids[s]; ok {
		return id
	}
	id := int32(len(si.strs))
	si.strs = append(si.strs, s)
	si.ids[s] = id
	return id
}

// span locates a run of elements in a shared backing slice. The cached id
// lists are stored as spans so the caches hold no pointers: a cache entry
// costs neither an allocation nor garbage-collector scanning.
type span struct{ off, n int32 }

// setInterner assigns dense int32 ids to sets of state ids. The key is the
// little-endian byte image of the sorted member ids, looked up without
// allocating via the map[string] index-expression optimization.
type setInterner struct {
	ids     map[string]int32
	spans   []span  // spans[set] locates the set's sorted members in members
	members []int32 // the member lists of all sets, back to back
	buf     []byte
	idBuf   []int32
}

// members returns the sorted member state ids of an interned set.
func (pl *Plan) members(set int32) []int32 {
	sp := pl.sets.spans[set]
	return pl.sets.members[sp.off : sp.off+sp.n]
}

// Prepare compiles a query plan for the pc-instance structure c and the
// query automaton q. Everything that does not depend on the event
// probabilities is computed here; the returned plan answers repeated
// probability requests via (*Plan).Probability or (*Plan).Result.
//
// Options are honoured as in EvaluatePC: a supplied joint decomposition is
// validated and used, the heuristic picks the decomposition otherwise, and
// EmitLineage makes (*Plan).Result build the d-DNNF lineage on every call.
func Prepare(c *pdb.CInstance, q Query, opts Options) (*Plan, error) {
	di := c.Inst.IndexDomain()
	joint, events, eventVertex := JointEventGraph(c, di)
	d := opts.Joint
	if d == nil {
		d = treedec.Decompose(joint, opts.Heuristic)
	} else if err := d.Validate(joint); err != nil {
		return nil, fmt.Errorf("core: supplied joint decomposition invalid: %w", err)
	}
	nice := treedec.MakeNice(d)
	nDom := len(di.Names)

	// Event valuations are tracked in a 64-bit mask per table row.
	for _, nd := range nice.Nodes {
		evs := 0
		for _, v := range nd.Bag {
			if v >= nDom {
				evs++
			}
		}
		if evs > 60 {
			return nil, fmt.Errorf("core: a bag holds %d events; the joint width is too large for exact evaluation", evs)
		}
	}

	pl := &Plan{
		q:           q,
		emitLineage: opts.EmitLineage,
		events:      events,
		nDom:        nDom,
		width:       d.Width(),
		post:        nice.PostOrder(),
		root:        nice.Root,
		states:      stateInterner{ids: map[string]int32{}},
		sets:        setInterner{ids: map[string]int32{}},
		setTrans:    map[setTransKey]int32{},
		joinCache:   map[uint64]int32{},
		stepCache:   map[stepKey]span{},
		pairCache:   map[uint64]int32{},
		pruneCache:  map[int32]int32{},
	}

	// Home every fact at a nice node covering its args and events.
	scopes := c.Inst.FactScopes(di)
	fullScopes := make([][]int, len(scopes))
	annVars := make([][]logic.Event, c.NumFacts())
	for fi, scope := range scopes {
		vars := logic.Vars(c.Ann[fi])
		annVars[fi] = vars
		full := append([]int(nil), scope...)
		for _, e := range vars {
			full = append(full, eventVertex[e])
		}
		fullScopes[fi] = full
	}
	assign, err := nice.AssignScopes(fullScopes)
	if err != nil {
		return nil, fmt.Errorf("core: cannot home facts in decomposition: %w", err)
	}

	// Compile the nodes: event bit positions, homed facts with annotation
	// evaluators over the bag's event bit layout.
	pl.nodes = make([]planNode, nice.NumNodes())
	for t := range nice.Nodes {
		nd := &nice.Nodes[t]
		pn := planNode{kind: nd.Kind, vertex: nd.Vertex, child0: -1, child1: -1, eventIdx: -1}
		if len(nd.Children) > 0 {
			pn.child0 = nd.Children[0]
		}
		if len(nd.Children) > 1 {
			pn.child1 = nd.Children[1]
		}
		switch nd.Kind {
		case treedec.NiceIntroduce, treedec.NiceForget:
			if nd.Vertex >= nDom {
				pn.isEvent = true
				childEvs := bagEventVertices(nice.Nodes[nd.Children[0]].Bag, nDom)
				pn.pos = eventPosition(childEvs, nd.Vertex, nd.Kind == treedec.NiceIntroduce)
				if nd.Kind == treedec.NiceForget {
					pn.eventIdx = nd.Vertex - nDom
				}
			}
		}
		pl.nodes[t] = pn
	}
	for fi, t := range assign {
		bagEvs := bagEventVertices(nice.Nodes[t].Bag, nDom)
		varBit := make(map[logic.Event]int, len(annVars[fi]))
		for _, e := range annVars[fi] {
			// All annotation events are in the bag by the homing invariant.
			varBit[e] = eventPosition(bagEvs, eventVertex[e], false)
		}
		pl.nodes[t].facts = append(pl.nodes[t].facts, planFact{
			fi: fi,
			cf: logic.CompileMask(c.Ann[fi], varBit),
		})
	}

	pl.startSet = pl.internStrings(detStep(q, q.Start(), func(s string) []string { return []string{s} }))
	pl.nice = nice
	pl.di = di
	pl.eventIdx = make(map[logic.Event]int, len(events))
	for i, e := range events {
		pl.eventIdx[e] = i
	}
	pl.rebuildTopology()
	pl.prog = pl.compileProgram()
	return pl, nil
}

// rebuildTopology derives the parent pointers and the per-event forget-node
// index from the compiled nodes. Called by Prepare and again after attachFact
// splices new nodes in.
func (pl *Plan) rebuildTopology() {
	pl.parents = make([]int, len(pl.nodes))
	for i := range pl.parents {
		pl.parents[i] = -1
	}
	pl.forgetAt = make([]int, len(pl.events))
	for i := range pl.forgetAt {
		pl.forgetAt[i] = -1
	}
	for t := range pl.nodes {
		nd := &pl.nodes[t]
		if nd.child0 >= 0 {
			pl.parents[nd.child0] = t
		}
		if nd.child1 >= 0 {
			pl.parents[nd.child1] = t
		}
		if nd.kind == treedec.NiceForget && nd.isEvent {
			pl.forgetAt[nd.eventIdx] = t
		}
	}
}

// PrepareCQ compiles a plan for a Boolean conjunctive query on the
// pc-instance structure c.
func PrepareCQ(c *pdb.CInstance, q rel.CQ, opts Options) (*Plan, error) {
	return Prepare(c, NewCQQuery(q, c.Inst, c.Inst.IndexDomain()), opts)
}

// PrepareTID compiles a plan for a conjunctive query on a TID instance via
// the Theorem 1 translation, returning the plan together with the event
// probability map of the translation (pass it to Probability, or substitute
// any other map over the same events).
func PrepareTID(t *pdb.TID, q rel.CQ, opts Options) (*Plan, logic.Prob, error) {
	c, p := t.ToCInstance()
	pl, err := PrepareCQ(c, q, opts)
	if err != nil {
		return nil, nil, err
	}
	return pl, p, nil
}

// Width returns the width of the joint decomposition the plan was compiled
// against.
func (pl *Plan) Width() int { return pl.width }

// NumNiceNodes returns the size of the compiled nice decomposition.
func (pl *Plan) NumNiceNodes() int { return len(pl.nodes) }

// Shape returns the structural statistics of the plan's nice decomposition.
// Depth bounds the per-update cost of a Materialized view: a single event
// change recomputes at most depth+1 node tables.
func (pl *Plan) Shape() treedec.Stats { return pl.nice.Stats() }

// Query returns the compiled query the plan runs. Callers use it to reach
// optional extensions such as FactExtender.
func (pl *Plan) Query() Query { return pl.q }

// Probability evaluates the plan under the event probabilities p and
// returns the exact query probability. Only the compiled row program runs;
// all structural work was done by Prepare. Safe for concurrent calls.
//
//pdblint:frozenentry
func (pl *Plan) Probability(p logic.Prob) (float64, error) {
	res, err := pl.eval(p, false)
	if err != nil {
		return 0, err
	}
	return res.Probability, nil
}

// Result evaluates the plan under the event probabilities p and returns the
// full Result, including the d-DNNF lineage when the plan was prepared with
// EmitLineage.
//
// The returned Result — in particular its lineage circuit — is owned by the
// caller: every call builds a fresh circuit, and later evaluations on the
// same plan (under any probability map) never mutate a previously returned
// Result. Safe for concurrent calls.
//
//pdblint:frozenentry
func (pl *Plan) Result(p logic.Prob) (*Result, error) {
	return pl.eval(p, pl.emitLineage)
}

// Freeze is a no-op that returns nil. Every plan is fully compiled,
// immutable and safe for concurrent evaluation once Prepare returns; Freeze
// remains only so existing callers keep compiling.
func (pl *Plan) Freeze() error { return nil }

// --- interning and cached transitions ---

// internStrings interns a deduplicated state-string set (as produced by
// detStep or a SetPruner) and returns its set id. Sets are canonicalized by
// sorting their interned state ids, so any permutation of the same strings
// interns to the same id.
func (pl *Plan) internStrings(states []string) int32 {
	ids := pl.sets.idBuf[:0]
	for _, s := range states {
		ids = append(ids, pl.states.id(s))
	}
	pl.sets.idBuf = ids
	sortInt32(ids)
	return pl.internIDs(ids)
}

// internIDs interns a sorted, deduplicated state-id set directly.
func (pl *Plan) internIDs(ids []int32) int32 {
	buf := pl.sets.buf[:0]
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	pl.sets.buf = buf
	if id, ok := pl.sets.ids[string(buf)]; ok {
		return id
	}
	id := int32(len(pl.sets.spans))
	pl.sets.spans = append(pl.sets.spans, span{int32(len(pl.sets.members)), int32(len(ids))})
	pl.sets.members = append(pl.sets.members, ids...)
	pl.sets.ids[string(buf)] = id
	acc := false
	for _, sid := range ids {
		if pl.q.Accept(pl.states.strs[sid]) {
			acc = true
			break
		}
	}
	pl.accept = append(pl.accept, acc)
	return id
}

// setStrings materializes a set's member state strings into the given
// scratch buffer.
func (pl *Plan) setStrings(set int32, buf []string) []string {
	out := buf[:0]
	for _, id := range pl.members(set) {
		out = append(out, pl.states.strs[id])
	}
	return out
}

// pruned applies the query's SetPruner (if any) to an interned set, caching
// the result so each distinct set is pruned at most once.
func (pl *Plan) pruned(raw int32) int32 {
	if _, isPruner := pl.q.(SetPruner); !isPruner {
		return raw
	}
	if r, ok := pl.pruneCache[raw]; ok {
		return r
	}
	pl.strBuf = pl.setStrings(raw, pl.strBuf)
	r := pl.internStrings(prune(pl.q, pl.strBuf))
	pl.pruneCache[raw] = r
	return r
}

// stepStates returns the successor state ids of a single state under the
// given operation, computing them from the string-level Query interface on
// first use only. Fact steps include the implicit identity transition.
func (pl *Plan) stepStates(op uint8, arg int, state int32) []int32 {
	k := stepKey{op: op, arg: int32(arg), state: state}
	if sp, ok := pl.stepCache[k]; ok {
		return pl.stepSuccs[sp.off : sp.off+sp.n]
	}
	st := pl.states.strs[state]
	var out []string
	switch op {
	case opIntroduce:
		out = pl.q.Introduce(st, arg)
	case opForget:
		out = pl.q.Forget(st, arg)
	case opFact:
		out = append(pl.q.FactTransitions(st, arg), st)
	}
	off := len(pl.stepSuccs)
	for _, s := range out {
		pl.stepSuccs = append(pl.stepSuccs, pl.states.id(s))
	}
	pl.stepCache[k] = span{int32(off), int32(len(out))}
	return pl.stepSuccs[off:]
}

// stepSet is the subset construction over interned sets: the successor of a
// set is the pruned union of its members' successors. Results are cached per
// (operation, operand, set).
func (pl *Plan) stepSet(op uint8, arg int, set int32) int32 {
	k := setTransKey{op: op, arg: int32(arg), set: set}
	if r, ok := pl.setTrans[k]; ok {
		return r
	}
	ids := pl.idBuf[:0]
	for _, sid := range pl.members(set) {
		ids = append(ids, pl.stepStates(op, arg, sid)...)
	}
	pl.idBuf = ids
	r := pl.pruned(pl.internIDs(sortDedupInt32(ids)))
	pl.setTrans[k] = r
	return r
}

func (pl *Plan) introduceSet(set int32, v int) int32 { return pl.stepSet(opIntroduce, v, set) }
func (pl *Plan) forgetSet(set int32, v int) int32    { return pl.stepSet(opForget, v, set) }
func (pl *Plan) factSet(set int32, fi int) int32     { return pl.stepSet(opFact, fi, set) }

// directJoiner is an optional Query extension: a Join entry point without
// internal memoization, for engines (like Plan) that already cache join
// results per state pair and would only churn the query's own memo.
type directJoiner interface {
	JoinDirect(a, b string) (merged string, ok bool)
}

// joinSets merges two interned sets across a join node: every pair of
// member states is merged through the query's Join, with a per-pair cache
// so each state pair is merged through the string interface at most once.
func (pl *Plan) joinSets(a, b int32) int32 {
	k := uint64(uint32(a))<<32 | uint64(uint32(b))
	if r, ok := pl.joinCache[k]; ok {
		return r
	}
	join := pl.q.Join
	if dj, ok := pl.q.(directJoiner); ok {
		join = dj.JoinDirect
	}
	ids := pl.idBuf[:0]
	for _, ia := range pl.members(a) {
		for _, ib := range pl.members(b) {
			pk := uint64(uint32(ia))<<32 | uint64(uint32(ib))
			m, ok := pl.pairCache[pk]
			if !ok {
				if merged, okJoin := join(pl.states.strs[ia], pl.states.strs[ib]); okJoin {
					m = pl.states.id(merged)
				} else {
					m = -1
				}
				pl.pairCache[pk] = m
			}
			if m >= 0 {
				ids = append(ids, m)
			}
		}
	}
	pl.idBuf = ids
	r := pl.pruned(pl.internIDs(sortDedupInt32(ids)))
	pl.joinCache[k] = r
	return r
}

// --- evaluation ---

// errStructureChanged is returned by plan-level evaluation, and by a
// Materialized view, once a view's StageAttach has changed the plan's
// structure since the plan (or that view) was compiled.
var errStructureChanged = errors.New("core: the plan's structure changed after a live view attached a fact")

func (pl *Plan) eval(p logic.Prob, emitLineage bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pl.prog.gen != pl.structGen {
		return nil, errStructureChanged
	}
	st := pl.getState()
	defer pl.putState(st)

	res := &Result{Width: pl.width, NiceNodes: len(pl.nodes)}
	st.one[0] = p
	pe := pl.fillLaneWeights(st, st.one[:])
	st.one[0] = nil
	root := pl.runBatchProg(st, pl.prog.fused, pe, 1)
	for i, set := range pl.prog.rootSets {
		res.TotalMass += root[i]
		if pl.accept[set] {
			res.Probability += root[i]
		}
	}
	st.arena.Put(root)
	if massDrifted(res.TotalMass) {
		return nil, errMassDrift(res.TotalMass)
	}
	if emitLineage {
		res.Lineage, res.Root = pl.lineage()
	}
	// Clamp floating noise.
	if res.Probability < 0 {
		res.Probability = 0
	}
	if res.Probability > 1 {
		res.Probability = 1
	}
	return res, nil
}

// lineage builds the d-DNNF lineage of the plan by walking its per-node
// programs bottom-up, one gate per row: a row is the OR over the edges into
// it, a join edge the AND of its two child rows, a forget-event edge the AND
// of its child row with the event literal (e or ¬e), and a leaf row true.
// Distinct rows of a node cover disjoint sets of worlds, so every OR is
// deterministic; the root gate is the OR of the accepting root rows.
func (pl *Plan) lineage() (*circuit.Circuit, circuit.Gate) {
	c := circuit.New()
	gates := make([][]circuit.Gate, len(pl.nodes))
	var ors [][]circuit.Gate // per-row disjuncts of the node being built
	for _, t := range pl.post {
		np := &pl.prog.nodes[t]
		for len(ors) < np.rows {
			ors = append(ors, nil)
		}
		ors = ors[:np.rows]
		for i := range ors {
			ors[i] = ors[i][:0]
		}
		var c0, c1 []circuit.Gate
		if np.in0 >= 0 {
			c0 = gates[np.in0]
		}
		if np.in1 >= 0 {
			c1 = gates[np.in1]
		}
		switch np.kind {
		case pkLeaf:
			ors[0] = append(ors[0], c.Const(true))
		case pkUnary:
			for _, e := range np.edges {
				ors[e.dst] = append(ors[e.dst], c0[e.src])
			}
		case pkForgetEvent:
			lit1 := c.Var(pl.events[np.eventIdx])
			lit0 := c.Not(lit1)
			for i, e := range np.edges {
				lit := lit1
				if i >= int(np.split) {
					lit = lit0
				}
				ors[e.dst] = append(ors[e.dst], c.And(c0[e.src], lit))
			}
		case pkJoin:
			for _, j := range np.joins {
				ors[j.dst] = append(ors[j.dst], c.And(c0[j.l], c1[j.r]))
			}
		}
		row := make([]circuit.Gate, np.rows)
		for i, gs := range ors {
			row[i] = c.Or(gs...)
		}
		gates[t] = row
	}
	var accepting []circuit.Gate
	for i, set := range pl.prog.rootSets {
		if pl.accept[set] {
			accepting = append(accepting, gates[pl.root][i])
		}
	}
	sortGates(accepting)
	return c, c.Or(accepting...)
}

// --- bit and position helpers ---

// bagEventVertices returns the sorted event vertex ids present in a bag.
func bagEventVertices(bag []int, nDom int) []int {
	var evs []int
	for _, v := range bag {
		if v >= nDom {
			evs = append(evs, v)
		}
	}
	return evs
}

// eventPosition locates the bit position of event vertex v in the bag event
// list; when inserting, it returns the position the bit will occupy.
func eventPosition(bagEvs []int, v int, inserting bool) int {
	i := sort.SearchInts(bagEvs, v)
	if !inserting && (i >= len(bagEvs) || bagEvs[i] != v) {
		panic("core: event vertex not in bag")
	}
	return i
}

func insertBit(bits uint64, pos int, value bool) uint64 {
	low := bits & ((1 << uint(pos)) - 1)
	high := bits >> uint(pos)
	out := low | high<<uint(pos+1)
	if value {
		out |= 1 << uint(pos)
	}
	return out
}

func removeBit(bits uint64, pos int) uint64 {
	low := bits & ((1 << uint(pos)) - 1)
	high := bits >> uint(pos+1)
	return low | high<<uint(pos)
}

// sortInt32 sorts small id slices in place; insertion sort beats the
// allocation and indirection of sort.Slice at these sizes.
func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// --- incremental structure growth ---

// findAttach locates the node a new fact with the given arguments can be
// absorbed at: the shallowest nice node whose bag contains every argument
// vertex. It reports an error when the fact cannot be absorbed — an argument
// outside the prepared domain, no covering bag, or a bag already at the
// event-bit budget.
func (pl *Plan) findAttach(f rel.Fact) (node int, err error) {
	scope := make([]int, 0, len(f.Args))
	seen := make(map[int]struct{}, len(f.Args))
	for _, a := range f.Args {
		v, ok := pl.di.ByName[a]
		if !ok {
			return -1, fmt.Errorf("core: constant %q of fact %s is outside the prepared domain", a, f)
		}
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			scope = append(scope, v)
		}
	}
	t := pl.nice.AttachPoint(scope)
	if t < 0 {
		return -1, fmt.Errorf("core: no bag of the decomposition covers the arguments of %s", f)
	}
	if len(bagEventVertices(pl.nice.Nodes[t].Bag, pl.nDom)) >= 60 {
		return -1, fmt.Errorf("core: the covering bag of %s is at the event-bit budget", f)
	}
	return t, nil
}

// CanAttach reports whether attachFact would succeed for a fact with the
// given arguments: the plan's query accepts appended facts and some bag
// covers the arguments. The pre-flight check incr.Store runs before
// committing to the in-place insertion path.
func (pl *Plan) CanAttach(f rel.Fact) bool {
	if _, ok := pl.q.(FactExtender); !ok {
		return false
	}
	_, err := pl.findAttach(f)
	return err == nil
}

// attachFact splices fact fi of the plan's instance — newly appended there by
// the caller — into the compiled structure: a fresh event e is introduced and
// immediately forgotten above the shallowest bag covering the fact's
// arguments, and the fact is homed at the introduce node with annotation e.
// Because the event pair is local, every other node's bag, bit layout and
// table are untouched; only the spliced nodes and their root path need
// recomputation (the caller — Materialized.StageAttach — marks them dirty).
//
// The plan's query must already cover fact fi (see FactExtender). The
// plan's own row program is not recompiled: plan-level evaluation fails
// from here on (errStructureChanged), and only the attaching view answers.
func (pl *Plan) attachFact(f rel.Fact, fi int, e logic.Event) (intro, forget int, err error) {
	if _, dup := pl.eventIdx[e]; dup {
		return 0, 0, fmt.Errorf("core: event %q is already an event of the plan", e)
	}
	t, err := pl.findAttach(f)
	if err != nil {
		return 0, 0, err
	}

	bag := pl.nice.Nodes[t].Bag
	eventIdx := len(pl.events)
	v := pl.nDom + eventIdx // beyond every existing vertex: domain, then events in order
	pos := len(bagEventVertices(bag, pl.nDom))
	pl.events = append(pl.events, e)
	pl.eventIdx[e] = eventIdx

	// Splice introduce(v)+forget(v) between t and its parent. The new vertex
	// is the largest, so the introduce bag stays sorted by appending.
	intro = len(pl.nodes)
	forget = intro + 1
	introBag := append(append(make([]int, 0, len(bag)+1), bag...), v)
	pl.nice.Nodes = append(pl.nice.Nodes,
		treedec.NiceNode{Kind: treedec.NiceIntroduce, Vertex: v, Bag: introBag, Children: []int{t}},
		treedec.NiceNode{Kind: treedec.NiceForget, Vertex: v, Bag: append([]int(nil), bag...), Children: []int{intro}},
	)
	pl.nodes = append(pl.nodes,
		planNode{
			kind: treedec.NiceIntroduce, vertex: v, child0: t, child1: -1,
			isEvent: true, pos: pos, eventIdx: -1,
			facts: []planFact{{fi: fi, cf: logic.CompileMask(logic.Var(e), map[logic.Event]int{e: pos})}},
		},
		planNode{
			kind: treedec.NiceForget, vertex: v, child0: intro, child1: -1,
			isEvent: true, pos: pos, eventIdx: eventIdx,
		},
	)
	if parent := pl.parents[t]; parent < 0 {
		pl.nice.Root = forget
		pl.root = forget
	} else {
		pn := &pl.nodes[parent]
		if pn.child0 == t {
			pn.child0 = forget
		} else {
			pn.child1 = forget
		}
		nn := &pl.nice.Nodes[parent]
		for i, c := range nn.Children {
			if c == t {
				nn.Children[i] = forget
			}
		}
	}
	if w := len(introBag) - 1; w > pl.width {
		pl.width = w
	}
	pl.post = pl.nice.PostOrder()
	pl.rebuildTopology()
	pl.structGen++
	return intro, forget, nil
}

// sortDedupInt32 sorts xs and removes duplicates in place.
func sortDedupInt32(xs []int32) []int32 {
	sortInt32(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
