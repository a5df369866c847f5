package core

import (
	"fmt"

	"repro/internal/core/kernel"
	"repro/internal/logic"
	"repro/internal/treedec"
)

// This file compiles the dynamic program's row structure into dense row
// programs — the one engine every evaluation runs. The row keys of every
// node table, and therefore the complete src→dst wiring of the bottom-up
// sweep, depend only on the compiled plan, never on the event
// probabilities. So Prepare discovers them once, in a structure-only pass
// that also fills every transition cache: each node's table becomes a
// contiguous block of lane vectors in a fixed row layout, and the node's
// work becomes a precompiled edge list driven through the kernel primitives
// (internal/core/kernel). Evaluation then runs with no map lookups, no
// interning and no key hashing at all — pure gather/accumulate float
// arithmetic over adjacent memory.
//
// Fact application is fused into the wiring: a fact homed at a node only
// remaps a row's state set (its annotation reads the row's bits, which no
// fact changes), so the compiler composes all fact transitions into the
// node's dst indices and every row is touched exactly once per node.
//
// The compile keeps two views of the same wiring:
//
//   - the per-node programs and layouts, wired to the nice children. Result
//     walks them to build lineage, and core.Materialized adopts them for its
//     persisted tables and its read-only lane pass; StageAttach recompiles
//     the splice's ancestors (compileNodeProg) against the view's own
//     layouts.
//   - the fused whole-plan program (fuseUnaryChains), which Probability,
//     ProbabilityBatch and the sharded plans run.

// nodeProg kinds.
const (
	pkLeaf uint8 = iota
	pkUnary
	pkForgetEvent
	pkJoin
)

// rpEdge wires child row src into this node's row dst.
type rpEdge struct{ src, dst int32 }

// rpJoin wires the product of left row l and right row r into row dst.
type rpJoin struct{ l, r, dst int32 }

// nodeProg is the compiled row wiring of one nice node: everything the
// node's table computation does, with row keys resolved to dense indices and
// fact transitions folded in. A nodeProg is immutable once compiled.
//
// in0/in1 name the nodes whose blocks feed this program. In a per-node
// program they are the nice children; in the fused program
// (fuseUnaryChains) they are re-sourced past folded unary nodes, so a fused
// program gathers directly from a deeper descendant's block.
type nodeProg struct {
	kind     uint8
	in0, in1 int32 // source nodes of c0/c1 (-1 when absent)
	// split divides a pkForgetEvent's edges: edges[:split] come from rows
	// with the event true (weight w), edges[split:] from rows with it false
	// (weight 1-w).
	split    int32
	rows     int
	eventIdx int      // pkForgetEvent: index of the weight lane applied here
	edges    []rpEdge // pkUnary: plain gather-add edges; pkForgetEvent: weighted ones
	joins    []rpJoin // pkJoin
}

// rowProgram is the whole-plan compile, built by Prepare.
type rowProgram struct {
	nodes   []nodeProg // per-node programs, wired to the nice children
	layouts [][]rowKey // layouts[t][i]: the row key of node t's row i
	// fused is the whole-plan program the evaluations run: &nodes[t], or a
	// rewritten copy of it that gathers past folded unary nodes, or nil
	// where node t was folded into its consumer. Edge slices fusion does
	// not rewrite are shared with nodes.
	fused    []*nodeProg
	rootSets []int32 // interned set id of each root row, in row order
	gen      uint64  // the plan's structGen when compiled
}

// factRemap composes the transitions of the facts homed at nd onto row key
// k: each annotation is a compiled mask over k.bits (which no fact changes),
// so the whole fact chain folds into one set remap per row.
func (pl *Plan) factRemap(nd *planNode, k rowKey) rowKey {
	for i := range nd.facts {
		pf := &nd.facts[i]
		if pf.cf.Eval(k.bits) {
			k.set = pl.factSet(k.set, pf.fi)
		}
	}
	return k
}

// rowIndex maps the row keys of the node being compiled to their rows, and
// keys is that node's layout under construction. One index and one key
// buffer serve every node of a compile pass; compileNodeProg copies the
// layout out at its exact length, so a persisted layout holds no spare
// capacity.
type rowIndex struct {
	idx  map[rowKey]int32
	keys []rowKey
}

// reset empties the index for the next node.
func (ri *rowIndex) reset() {
	if ri.idx == nil {
		ri.idx = map[rowKey]int32{}
	}
	clear(ri.idx)
	ri.keys = ri.keys[:0]
}

// slot returns the row of k, appending k as a new row if absent.
func (ri *rowIndex) slot(k rowKey) int32 {
	if r, ok := ri.idx[k]; ok {
		return r
	}
	r := int32(len(ri.keys))
	ri.keys = append(ri.keys, k)
	ri.idx[k] = r
	return r
}

// compileNodeProg compiles the row program of node t into np against the
// given child row layouts (layouts[c][i] is the key of child c's row i) and
// returns t's own layout. Rows are laid out in first-encounter order over
// the deterministic child-layout iteration, so recompiling a node whose
// children kept their layouts reproduces the same layout. Transition-cache
// misses fill the caches.
func (pl *Plan) compileNodeProg(np *nodeProg, t int, layouts [][]rowKey, ri *rowIndex) []rowKey {
	nd := &pl.nodes[t]
	*np = nodeProg{eventIdx: -1, in0: int32(nd.child0), in1: int32(nd.child1)}
	ri.reset()
	slot := ri.slot

	switch nd.kind {
	case treedec.NiceLeaf:
		np.kind = pkLeaf
		slot(pl.factRemap(nd, rowKey{set: pl.startSet}))

	case treedec.NiceIntroduce:
		np.kind = pkUnary
		child := layouts[nd.child0]
		if nd.isEvent {
			pos := nd.pos
			np.edges = make([]rpEdge, 0, 2*len(child))
			for si, k := range child {
				np.edges = append(np.edges,
					rpEdge{src: int32(si), dst: slot(pl.factRemap(nd, rowKey{set: k.set, bits: insertBit(k.bits, pos, false)}))},
					rpEdge{src: int32(si), dst: slot(pl.factRemap(nd, rowKey{set: k.set, bits: insertBit(k.bits, pos, true)}))})
			}
		} else {
			np.edges = make([]rpEdge, 0, len(child))
			for si, k := range child {
				np.edges = append(np.edges,
					rpEdge{src: int32(si), dst: slot(pl.factRemap(nd, rowKey{set: pl.introduceSet(k.set, nd.vertex), bits: k.bits}))})
			}
		}

	case treedec.NiceForget:
		child := layouts[nd.child0]
		if nd.isEvent {
			np.kind = pkForgetEvent
			np.eventIdx = nd.eventIdx
			pos := nd.pos
			for _, k := range child {
				if k.bits&(1<<uint(pos)) != 0 {
					np.split++
				}
			}
			np.edges = make([]rpEdge, len(child))
			i1, i0 := 0, int(np.split)
			for si, k := range child {
				e := rpEdge{src: int32(si), dst: slot(pl.factRemap(nd, rowKey{set: k.set, bits: removeBit(k.bits, pos)}))}
				if k.bits&(1<<uint(pos)) != 0 {
					np.edges[i1] = e
					i1++
				} else {
					np.edges[i0] = e
					i0++
				}
			}
		} else {
			np.kind = pkUnary
			np.edges = make([]rpEdge, 0, len(child))
			for si, k := range child {
				np.edges = append(np.edges,
					rpEdge{src: int32(si), dst: slot(pl.factRemap(nd, rowKey{set: pl.forgetSet(k.set, nd.vertex), bits: k.bits}))})
			}
		}

	case treedec.NiceJoin:
		np.kind = pkJoin
		left, right := layouts[nd.child0], layouts[nd.child1]
		// In-bag events are shared between the children, so only rows with
		// equal bits combine: index the right layout by bits once, then each
		// left row joins against its (usually tiny) matching run — a linear
		// merge instead of the quadratic all-pairs scan.
		byBits := make(map[uint64][]int32, len(right))
		for ri, k := range right {
			byBits[k.bits] = append(byBits[k.bits], int32(ri))
		}
		n := 0
		for _, lk := range left {
			n += len(byBits[lk.bits])
		}
		np.joins = make([]rpJoin, 0, n)
		for li, lk := range left {
			for _, ri := range byBits[lk.bits] {
				np.joins = append(np.joins, rpJoin{
					l: int32(li), r: ri,
					dst: slot(pl.factRemap(nd, rowKey{set: pl.joinSets(lk.set, right[ri].set), bits: lk.bits})),
				})
			}
		}
	}
	np.rows = len(ri.keys)
	layout := make([]rowKey, len(ri.keys))
	copy(layout, ri.keys)
	return layout
}

// compileProgram compiles every node of the plan in one structural pass
// over the post-order, filling the transition caches as it goes, and fuses
// away the plain-unary copy chains. Called by Prepare.
func (pl *Plan) compileProgram() *rowProgram {
	n := len(pl.nodes)
	prog := &rowProgram{nodes: make([]nodeProg, n), layouts: make([][]rowKey, n), gen: pl.structGen}
	var ri rowIndex
	for _, t := range pl.post {
		prog.layouts[t] = pl.compileNodeProg(&prog.nodes[t], t, prog.layouts, &ri)
	}
	prog.fuseUnaryChains(pl.post, pl.root)
	prog.rootSets = make([]int32, len(prog.layouts[pl.root]))
	for i, k := range prog.layouts[pl.root] {
		prog.rootSets[i] = k.set
	}
	return prog
}

// fuseUnaryChains folds pkUnary programs into their consumers: a plain
// gather-add node is a 0/1 linear map, so composing its edge list into the
// parent's source indices yields the same block without ever materializing
// the intermediate one. Nice decompositions are dominated by such nodes
// (introduce/forget of domain vertices, event introductions), so after
// fusion the sweep only materializes leaf, forget-event and join blocks —
// each surviving kernel gathers straight from the previous surviving block.
//
// Nodes are visited in post order; chains collapse one link per visit since
// a folded child's sources were already re-sourced at its own visit. Every
// node has exactly one consumer (the decomposition is a tree), so folding a
// child never duplicates its work. Composition through a merging node
// multiplies edge lists; a fold that would blow the parent's edge count past
// a small multiple is skipped (the node then simply stays materialized).
//
// The per-node programs stay untouched: a node whose input folds gets a
// copy in fused, and only the slices the fold rewrites are new.
func (rp *rowProgram) fuseUnaryChains(post []int, root int) {
	rp.fused = make([]*nodeProg, len(rp.nodes))
	for t := range rp.nodes {
		rp.fused[t] = &rp.nodes[t]
	}
	for _, t := range post {
		np := rp.fused[t]
		if t == root || np == nil {
			continue // the root block is the program's output
		}
		if !rp.foldable(np.in0) && !(np.kind == pkJoin && rp.foldable(np.in1)) {
			continue
		}
		cp := *np
		rp.fuseInput(&cp, &cp.in0, true)
		if cp.kind == pkJoin {
			rp.fuseInput(&cp, &cp.in1, false)
		}
		if cp.in0 != np.in0 || cp.in1 != np.in1 {
			rp.fused[t] = &cp
		}
	}
}

// foldable reports whether input node in is a live unary node of the fused
// program, i.e. a candidate for folding into its consumer.
func (rp *rowProgram) foldable(in int32) bool {
	return in >= 0 && rp.fused[in] != nil && rp.fused[in].kind == pkUnary
}

// fuseInput folds the pkUnary chain feeding one input of np (left when
// isLeft, the join's right otherwise), replacing the matching source-index
// lists.
func (rp *rowProgram) fuseInput(np *nodeProg, in *int32, isLeft bool) {
	for rp.foldable(*in) {
		child := rp.fused[*in]
		// Invert the child's edges as a CSR: srcs[start[d]:start[d+1]] are
		// the child-input rows feeding its row d.
		start := make([]int32, child.rows+1)
		for _, e := range child.edges {
			start[e.dst+1]++
		}
		for d := 0; d < child.rows; d++ {
			start[d+1] += start[d]
		}
		srcs := make([]int32, len(child.edges))
		next := append([]int32(nil), start[:child.rows]...)
		for _, e := range child.edges {
			srcs[next[e.dst]] = e.src
			next[e.dst]++
		}
		inv := func(d int32) []int32 { return srcs[start[d]:start[d+1]] }
		fanout := func(edges []rpEdge) int {
			n := 0
			for _, e := range edges {
				n += len(inv(e.src))
			}
			return n
		}
		subst := func(edges []rpEdge, n int) []rpEdge {
			out := make([]rpEdge, 0, n)
			for _, e := range edges {
				for _, cs := range inv(e.src) {
					out = append(out, rpEdge{src: cs, dst: e.dst})
				}
			}
			return out
		}
		switch np.kind {
		case pkUnary:
			n := fanout(np.edges)
			if n > 2*len(np.edges)+16 {
				return
			}
			np.edges = subst(np.edges, n)
		case pkForgetEvent:
			e1, e0 := np.edges[:np.split], np.edges[np.split:]
			n1, n0 := fanout(e1), fanout(e0)
			if n1 > 2*len(e1)+16 || n0 > 2*len(e0)+16 || n1+n0 > 2*len(np.edges)+16 {
				return
			}
			np.edges = subst(np.edges, n1+n0)
			np.split = int32(n1)
		case pkJoin:
			n := 0
			for _, j := range np.joins {
				if isLeft {
					n += len(inv(j.l))
				} else {
					n += len(inv(j.r))
				}
			}
			if n > 2*len(np.joins)+16 {
				return
			}
			out := make([]rpJoin, 0, n)
			for _, j := range np.joins {
				if isLeft {
					for _, cs := range inv(j.l) {
						out = append(out, rpJoin{l: cs, r: j.r, dst: j.dst})
					}
				} else {
					for _, cs := range inv(j.r) {
						out = append(out, rpJoin{l: j.l, r: cs, dst: j.dst})
					}
				}
			}
			np.joins = out
		default:
			return
		}
		rp.fused[*in] = nil
		*in = child.in0
	}
}

// runNodeProg executes one node's program over B-lane row blocks: dst is the
// node's zeroed rows*B block, c0/c1 the children's blocks, w the node's
// weight lane block (pkForgetEvent only).
//
//pdblint:hotpath
func runNodeProg(np *nodeProg, B int, dst, c0, c1, w []float64) {
	switch np.kind {
	case pkLeaf:
		kernel.Fill(dst[:B], 1)
	case pkUnary:
		for _, e := range np.edges {
			kernel.AddTo(dst[int(e.dst)*B:int(e.dst)*B+B], c0[int(e.src)*B:int(e.src)*B+B])
		}
	case pkForgetEvent:
		for _, e := range np.edges[:np.split] {
			kernel.MulAdd(dst[int(e.dst)*B:int(e.dst)*B+B], c0[int(e.src)*B:int(e.src)*B+B], w)
		}
		for _, e := range np.edges[np.split:] {
			kernel.FMAdd1m(dst[int(e.dst)*B:int(e.dst)*B+B], c0[int(e.src)*B:int(e.src)*B+B], w)
		}
	case pkJoin:
		for _, j := range np.joins {
			kernel.MulAdd(dst[int(j.dst)*B:int(j.dst)*B+B], c0[int(j.l)*B:int(j.l)*B+B], c1[int(j.r)*B:int(j.r)*B+B])
		}
	}
}

// runNodeProg1 is the single-lane (B = 1) specialization used by
// Materialized spine recomputation, where per-edge kernel-call overhead
// would dominate one-element blocks.
//
//pdblint:hotpath
func runNodeProg1(np *nodeProg, dst, c0, c1 []float64, w float64) {
	switch np.kind {
	case pkLeaf:
		dst[0] = 1
	case pkUnary:
		for _, e := range np.edges {
			dst[e.dst] += c0[e.src]
		}
	case pkForgetEvent:
		for _, e := range np.edges[:np.split] {
			dst[e.dst] += c0[e.src] * w
		}
		w1m := 1 - w
		for _, e := range np.edges[np.split:] {
			dst[e.dst] += c0[e.src] * w1m
		}
	case pkJoin:
		for _, j := range np.joins {
			dst[j.dst] += c0[j.l] * c1[j.r]
		}
	}
}

// runBatchProg executes a row program bottom-up under the lane-major
// weight matrix pe and returns the root block (rows × B, lane-major), whose
// ownership passes to the caller (Put it back into st's arena). progs is the
// plan's fused program or a live view's per-node programs. Blocks are
// recycled through the arena as soon as each parent has consumed them, so
// the live memory tracks the frontier of the sweep and steady-state calls
// through a pooled state allocate nothing.
//
//pdblint:hotpath
func (pl *Plan) runBatchProg(st *evalState, progs []*nodeProg, pe []float64, B int) []float64 {
	if len(st.blocks) < len(pl.nodes) {
		st.blocks = make([][]float64, len(pl.nodes))
	}
	blocks := st.blocks
	for _, t := range pl.post {
		np := progs[t]
		if np == nil {
			continue // folded into its consumer by fuseUnaryChains
		}
		dst := st.arena.Get(np.rows * B)
		var c0, c1 []float64
		if np.in0 >= 0 {
			c0 = blocks[np.in0]
		}
		if np.in1 >= 0 {
			c1 = blocks[np.in1]
		}
		var w []float64
		if np.kind == pkForgetEvent {
			w = pe[np.eventIdx*B : np.eventIdx*B+B]
		}
		runNodeProg(np, B, dst, c0, c1, w)
		if c0 != nil {
			st.arena.Put(c0)
			blocks[np.in0] = nil
		}
		if c1 != nil {
			st.arena.Put(c1)
			blocks[np.in1] = nil
		}
		blocks[t] = dst
	}
	root := blocks[pl.root]
	blocks[pl.root] = nil
	return root
}

// fillLaneWeights writes the lane-major Bernoulli weight matrix of ps into
// the state's weight buffer: pe[i*B+l] = ps[l].P(events[i]). Instead of one
// hashed string lookup per (event, lane) pair, it fills the 0.5 default
// (logic.Prob's convention for unlisted events) and scatters each lane's map
// entries through the plan's single event index, so every string key hashes
// into one cache-resident map exactly once per lane.
//
//pdblint:hotpath -maprange
func (pl *Plan) fillLaneWeights(st *evalState, ps []logic.Prob) []float64 {
	B := len(ps)
	need := len(pl.events) * B
	if cap(st.peBuf) < need {
		st.peBuf = make([]float64, need)
	}
	pe := st.peBuf[:need]
	kernel.Fill(pe, 0.5)
	for l, p := range ps {
		for e, v := range p {
			if i, ok := pl.eventIdx[e]; ok {
				pe[i*B+l] = v
			}
		}
	}
	return pe
}

// fillLaneWeightsChecked is fillLaneWeights with per-lane validation fused
// into the scatter, so each lane's map is iterated exactly once per batch
// call instead of once for Validate and once for the fill. A lane with an
// out-of-range or NaN probability is recorded in the returned error slice
// (nil when every lane is valid, matching sanitizeLanes) and its weight
// column is reset to the 0.5 defaults so the shared program stays finite;
// the caller overwrites its output with NaN.
func (pl *Plan) fillLaneWeightsChecked(st *evalState, ps []logic.Prob) ([]float64, []error) {
	B := len(ps)
	need := len(pl.events) * B
	if cap(st.peBuf) < need {
		st.peBuf = make([]float64, need)
	}
	pe := st.peBuf[:need]
	kernel.Fill(pe, 0.5)
	var errs []error
	for l, p := range ps {
		bad := false
		for e, v := range p {
			if !(v >= 0 && v <= 1) { // negated comparison catches NaN
				if errs == nil {
					errs = make([]error, B)
				}
				errs[l] = fmt.Errorf("logic: probability of event %q is %v, outside [0,1]", e, v)
				bad = true
				break
			}
			if i, ok := pl.eventIdx[e]; ok {
				pe[i*B+l] = v
			}
		}
		if bad {
			// Reset whatever the lane wrote before the invalid entry.
			for i := 0; i < len(pl.events); i++ {
				pe[i*B+l] = 0.5
			}
		}
	}
	return pe, errs
}
