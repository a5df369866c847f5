package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/pdb"
)

// fact is one tuple-independent fact of a generated instance, in the order
// it is written to the instance file. pdbd numbers facts in file order, so
// the index of a fact here is its store id.
type fact struct {
	rel  string
	args []string
	p    float64
}

func (f fact) key() string { return f.rel + "(" + strings.Join(f.args, ",") + ")" }

// instanceText renders facts in the pdbcli/pdbd instance format with the
// shortest exact float form, so the parsed weights equal the generated ones
// bit for bit and the closed forms below can be compared tightly.
func instanceText(facts []fact) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString("fact ")
		b.WriteString(strconv.FormatFloat(f.p, 'g', -1, 64))
		b.WriteByte(' ')
		b.WriteString(f.rel)
		for _, a := range f.args {
			b.WriteByte(' ')
			b.WriteString(a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chainProb draws a fact weight. Weights are small so that a chain of a few
// hundred matches answers well inside (0, 1) and the closed-form check is
// sensitive to every match, not saturated at 1.
func chainProb(r *rand.Rand) float64 { return 0.02 + 0.18*r.Float64() }

func node(chain, i int) string { return fmt.Sprintf("g%dv%d", chain, i) }

// chainFacts builds k disjoint R-S-T chains of n links each:
// R(g_j v_i), S(g_j v_i, g_j v_{i+1}), T(g_j v_{i+1}). Every match of the
// hard query R(x) S(x,y) T(y) is one link, and links share no fact.
func chainFacts(r *rand.Rand, k, n int) []fact {
	out := make([]fact, 0, 3*k*n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			a, b := node(j, i), node(j, i+1)
			out = append(out,
				fact{"R", []string{a}, chainProb(r)},
				fact{"S", []string{a, b}, chainProb(r)},
				fact{"T", []string{b}, chainProb(r)})
		}
	}
	return out
}

// treeFacts plants R, S and T over a forest of comps random partial
// k-trees of n vertices each (R and T on every vertex, S on every edge kept
// with probability keep): join-heavy instances of treewidth k with no
// closed form. Table sizes, and so answer times, vary a lot from one tree
// to the next; a forest sums several, which keeps the family's spread
// moderate.
func treeFacts(r *rand.Rand, comps, n, k int, keep float64) []fact {
	var out []fact
	for c := 0; c < comps; c++ {
		g, _ := gen.PartialKTree(n, k, keep, r)
		v := func(i int) string { return fmt.Sprintf("t%dv%d", c, i) }
		for i := 0; i < g.N(); i++ {
			out = append(out, fact{"R", []string{v(i)}, 0.05 + 0.9*r.Float64()})
			out = append(out, fact{"T", []string{v(i)}, 0.05 + 0.9*r.Float64()})
		}
		for _, e := range g.Edges() {
			out = append(out, fact{"S", []string{v(e[0]), v(e[1])}, 0.05 + 0.9*r.Float64()})
		}
	}
	return out
}

// hardQuery is the paper's #P-hard query on unbounded-treewidth data.
const hardQuery = "R(?x) & S(?x,?y) & T(?y)"

// model is the benchmark's own account of the data: the current weight of
// every fact and the S facts in insertion order. It is kept apart from
// everything the engine computes and answers the chain shapes in closed
// form.
type model struct {
	w  map[string]float64 // fact key -> probability; absent facts read as 0
	ss [][2]string        // args of every S fact
}

func chainModel(facts []fact) *model {
	m := &model{w: make(map[string]float64, len(facts))}
	for _, f := range facts {
		m.add(f)
	}
	return m
}

func (m *model) add(f fact) {
	k := f.key()
	if _, dup := m.w[k]; !dup && f.rel == "S" {
		m.ss = append(m.ss, [2]string{f.args[0], f.args[1]})
	}
	m.w[k] = f.p
}

// answer is the closed-form probability of the chain shape using the given
// relations among R, S and T: every S(a,b) with its R(a) and T(b) is one
// match, and as long as no constant has two outgoing or two incoming S
// facts the matches share no fact, so
// P = 1 − Π_matches (1 − Π_facts w). over overrides weights by key.
func (m *model) answer(atoms string, over ...map[string]float64) float64 {
	w := func(k string) float64 {
		for _, o := range over {
			if p, ok := o[k]; ok {
				return p
			}
		}
		return m.w[k]
	}
	none := 1.0
	for _, s := range m.ss {
		p := 1.0
		for _, c := range atoms {
			switch c {
			case 'R':
				p *= w("R(" + s[0] + ")")
			case 'S':
				p *= w("S(" + s[0] + "," + s[1] + ")")
			case 'T':
				p *= w("T(" + s[1] + ")")
			}
		}
		none *= 1 - p
	}
	return 1 - none
}

// chainShape is a hot query shape with a closed form on chain instances.
type chainShape struct {
	atoms string   // relations of a link the shape uses
	texts []string // spellings that normalize to one fingerprint
}

var chainShapes = []chainShape{
	{"RST", []string{hardQuery, "S(?a,?b) & T(?b) & R(?a)", "T(?y) & R(?x) & S(?x,?y)"}},
	{"RS", []string{"R(?x) & S(?x,?y)", "S(?u,?w) & R(?u)"}},
	{"ST", []string{"S(?x,?y) & T(?y)"}},
}

func tidOf(facts []fact) *pdb.TID {
	t := pdb.NewTID()
	for _, f := range facts {
		t.AddFact(f.p, f.rel, f.args...)
	}
	return t
}
