package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pdbio"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// The oneshot workload answers the hard query the way pdbcli does: parse an
// instance file, core.PrepareCQ, one (*Plan).Probability. Every op gets a
// fresh seeded instance from one of three families, round robin. Sizes are
// chosen so one answer takes a few hundred ms on a 2-vCPU host and the
// families stay within about 2x of each other.
var families = []struct {
	name string
	slot string // the gated end-to-end metric holding the family's CPU cost, if any
	make func(r *rand.Rand) []fact
	// closed is true when the answer has a closed form over fact-disjoint
	// matches (the chain families).
	closed bool
}{
	// Long chains: node-count bound.
	{"chain", "op1_cpu_ms", func(r *rand.Rand) []fact { return chainFacts(r, 1, 300) }, true},
	// Partial 3-trees: join- and discovery-bound, no closed form.
	{"tree3", "op2_cpu_ms", func(r *rand.Rand) []fact { return treeFacts(r, 5, 6, 3, 1) }, false},
	// Multi-component chains.
	{"multi", "", func(r *rand.Rand) []fact { return chainFacts(r, 8, 40) }, true},
}

// oneshotOp is what one compile-and-answer cost, split by engine call.
type oneshotOp struct {
	family            int
	load              time.Duration // text -> pc-instance, as pdbcli parses it
	loadCPU           time.Duration // CPU time of the same
	prepare, discover time.Duration // PrepareCQ; the first Probability
	cpu               time.Duration // CPU time of PrepareCQ + Probability
	// Traced runs only: the engine's public calls around the op.
	decompose, nice, compile, eval time.Duration
	width, niceNodes               int
	allocMB                        float64
}

func (o oneshotOp) total() float64 { return ms(o.prepare + o.discover) }

func (r *run) oneshot() error {
	q := rel.HardQuery()
	// One untimed op per family first: heap growth and first-touch page
	// faults belong to no single answer.
	for f := range families {
		if _, err := r.oneshotOp(f, q, false); err != nil {
			return err
		}
	}
	if !r.trace {
		ops, err := r.oneshotLoop(q, r.seconds, false)
		if err != nil {
			return err
		}
		r.oneshotReport(ops)
	} else {
		base, err := r.oneshotLoop(q, r.seconds/2, false)
		if err != nil {
			return err
		}
		traced, err := r.oneshotLoop(q, r.seconds/2, true)
		if err != nil {
			return err
		}
		r.oneshotLayers(base, traced)
	}
	r.enumerationChecks(q)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.endToEnd("peak_rss_mb", "peak_rss_mb", rss, "MB", "benchmark process: the engine runs in it")
	return nil
}

// oneshotLoop runs ops round robin over the families for d (closed loop, one
// goroutine) and checks every answer.
func (r *run) oneshotLoop(q rel.CQ, d time.Duration, traced bool) ([]oneshotOp, error) {
	var ops []oneshotOp
	for end := time.Now().Add(d); time.Now().Before(end); {
		o, err := r.oneshotOp(len(ops)%len(families), q, traced)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
		// The reference runs between answers: it sees the host as they do.
		r.ref.burst(3)
	}
	return ops, nil
}

func (r *run) oneshotOp(f int, q rel.CQ, traced bool) (oneshotOp, error) {
	fam := families[f]
	o, err := r.engineOp(fam.make(r.rng), q, fam.name, fam.closed, traced)
	o.family = f
	return o, err
}

// engineOp answers q on facts the way pdbcli does and checks the answer;
// traced, it also times the engine's other public calls on the instance.
func (r *run) engineOp(facts []fact, q rel.CQ, name string, closed, traced bool) (oneshotOp, error) {
	var o oneshotOp
	text := instanceText(facts)

	c0, t0 := selfCPU(), time.Now()
	c, p, err := pdbio.ParseInstance(bufio.NewScanner(strings.NewReader(text)))
	o.load, o.loadCPU = time.Since(t0), selfCPU()-c0
	if err != nil {
		return o, fmt.Errorf("%s: parse: %w", name, err)
	}
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	c1 := selfCPU()
	t1 := time.Now()
	pl, err := core.PrepareCQ(c, q, core.Options{})
	t2 := time.Now()
	if err != nil {
		return o, fmt.Errorf("%s: prepare: %w", name, err)
	}
	got, err := pl.Probability(p)
	t3 := time.Now()
	o.cpu = selfCPU() - c1
	o.prepare, o.discover = t2.Sub(t1), t3.Sub(t2)
	r.attempted++
	ok := err == nil && got >= 0 && got <= 1
	if ok && closed {
		want := chainModel(facts).answer("RST")
		ok = r.check(math.Abs(got-want) <= tol, "%s: engine %.15g, closed form %.15g", name, got, want)
	} else {
		r.check(ok, "%s: engine answer %v (err %v) outside [0,1]", name, got, err)
	}
	if !ok {
		r.failed++
	}
	if !traced {
		return o, nil
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	t4 := time.Now()
	g, _, _ := core.JointEventGraph(c, c.Inst.IndexDomain())
	d := treedec.Decompose(g, treedec.MinDegree)
	t5 := time.Now()
	nice := treedec.MakeNice(d)
	t6 := time.Now()
	o.decompose, o.nice = t5.Sub(t4), t6.Sub(t5)
	o.width, o.niceNodes = nice.Width()-1, len(nice.Nodes)
	if err := pl.Freeze(); err != nil {
		return o, fmt.Errorf("%s: freeze: %w", name, err)
	}
	t7 := time.Now()
	again, err := pl.Probability(p)
	o.compile, o.eval = t7.Sub(t6), time.Since(t7)
	r.attempted++
	if !r.check(err == nil && math.Abs(again-got) <= tol, "%s: compiled answer %v (err %v) differs from first answer %v", name, again, err, got) {
		r.failed++
	}
	return o, nil
}

func (r *run) oneshotReport(ops []oneshotOp) {
	var all, loads, loadCPU []float64
	per := make([][]float64, len(families))
	cpu := make([][]float64, len(families))
	busy := 0.0
	for _, o := range ops {
		all = append(all, o.total())
		per[o.family] = append(per[o.family], o.total())
		cpu[o.family] = append(cpu[o.family], ms(o.cpu))
		loads = append(loads, o.load.Seconds())
		loadCPU = append(loadCPU, o.loadCPU.Seconds())
		busy += o.total()
	}
	// The mix: CPU time per answer over one op of each family, the median
	// over the run's rounds (ops run round robin, so a round is a run of
	// len(families) consecutive ops).
	var rounds []float64
	for i := 0; i+len(families) <= len(ops); i += len(families) {
		sum := 0.0
		for _, o := range ops[i : i+len(families)] {
			sum += ms(o.cpu)
		}
		rounds = append(rounds, sum/float64(len(families)))
	}
	r.cost("setup_s", "setup_cpu_s", trimmedMean(loadCPU), "s", &r.ref, "CPU time of one instance load (text -> pc-instance), trimmed mean")
	r.endToEnd("", "setup_wall_s", trimmedMean(loads), "s", "wall time of the same, trimmed mean")
	r.cost("op3_cpu_ms", "oneshot_cpu_ms", median(rounds), "ms", &r.ref,
		fmt.Sprintf("CPU time per answer over one op of each family, median of %d rounds", len(rounds)))
	for f, fam := range families {
		r.cost(fam.slot, "oneshot_"+fam.name+"_cpu_ms", median(cpu[f]), "ms", &r.ref,
			fmt.Sprintf("median CPU time of one compile-and-answer, n=%d", len(cpu[f])))
	}
	r.latency("oneshot", all, 0.9)
	for f, fam := range families {
		r.latency("oneshot_"+fam.name, per[f], 0.9)
	}
	r.endToEnd("", "oneshot_rps", float64(len(ops))/(busy/1000), "1/s", "answers per second, one goroutine")
}

// oneshotLayers reports the per-layer metrics of a traced oneshot run.
func (r *run) oneshotLayers(base, traced []oneshotOp) {
	var tot, baseTot []float64
	for _, o := range traced {
		tot = append(tot, o.total())
	}
	for _, o := range base {
		baseTot = append(baseTot, o.total())
	}
	r.initLayers()
	r.engineLayers(traced)
	r.layerMetric("obs.trace_overhead_frac", median(tot)/median(baseTot)-1, "ratio")
	fmt.Printf("oneshot traced: %d ops (untraced pass %d ops)\n", len(traced), len(base))
}

// enumerationChecks answers small partial-tree instances with the engine
// and by possible-world enumeration.
func (r *run) enumerationChecks(q rel.CQ) {
	for i := 0; i < 4; i++ {
		facts := treeFacts(r.rng, 1, 4+i%2, 3, 0.6)
		if len(facts) > 18 {
			facts = facts[:18]
		}
		t := tidOf(facts)
		pl, p, err := core.PrepareTID(t, q, core.Options{})
		r.attempted++
		var got float64
		if err == nil {
			got, err = pl.Probability(p)
		}
		// Possible-world enumeration in internal/pdb shares no code with
		// the automaton.
		want := t.QueryProbabilityEnumeration(q)
		if !r.check(err == nil && math.Abs(got-want) <= tol,
			"enumeration check %d: engine %.15g (err %v), possible worlds %.15g", i, got, err, want) {
			r.failed++
		}
	}
}
