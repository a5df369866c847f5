package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/pdbio"
	"repro/internal/rel"
)

// Request classes of the service workloads.
const (
	clsQuery  = iota // hot /query: a cached shape, answered from its live view
	clsBatch         // 16-lane /batch sweep over the hard query
	clsUpdate        // durable /update of 1-8 ops
	clsMiss          // novel-shape /query with constants: a plan-cache miss
	numClasses
)

var className = [numClasses]string{"query", "batch", "update", "miss"}

const (
	batchLanes = 16
	// readLimitMS is the hot-/query p99 the read ladder must stay under:
	// well above the load generator's timer floor, well below a stall.
	readLimitMS = 25.0
	// tol is the largest difference allowed between an engine answer and
	// its closed form or enumeration (the engine sums in another order).
	tol = 1e-9
)

// service is one service workload's client side: the generated instance,
// the benchmark's model of the data, and the two connections.
type service struct {
	r      *run
	facts  []fact
	m      *model
	file   string
	c1, c2 *http.Client
	p      *pdbd
	hot    []hotQuery
}

type hotQuery struct {
	body  []byte
	shape int // index into chainShapes
	want  float64
}

func (r *run) newService(facts []fact) (*service, error) {
	s := &service{r: r, facts: facts, m: chainModel(facts), c1: newConn(), c2: newConn()}
	s.file = filepath.Join(r.work, "instance.pdb")
	if err := os.WriteFile(s.file, []byte(instanceText(facts)), 0o644); err != nil {
		return nil, err
	}
	for i, sh := range chainShapes {
		for _, t := range sh.texts {
			s.hot = append(s.hot, hotQuery{mustJSON(map[string]string{"query": t}), i, s.m.answer(sh.atoms)})
		}
	}
	return s, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and slices are encoded
	}
	return b
}

// traceArgs makes pdbd log every request with its stage breakdown.
var traceArgs = []string{"-slow-query", "1ns", "-log-format", "json"}

// hotOp returns the i-th hot query; check, when true, compares the answer
// with the closed form of the initial data (valid only while nothing
// writes).
func (s *service) hotOp(i int, check bool) op {
	h := s.hot[i%len(s.hot)]
	o := op{class: clsQuery, path: "/query", body: h.body}
	if check {
		o.check = func(code int, body []byte) error { return checkProb(code, body, h.want) }
	}
	return o
}

func checkProb(code int, body []byte, want float64) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, body)
	}
	var resp struct {
		Probability float64 `json:"probability"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if math.Abs(resp.Probability-want) > tol {
		return fmt.Errorf("answer %.15g, closed form %.15g", resp.Probability, want)
	}
	return nil
}

// batchSweep is one 16-lane /batch body: each lane overrides 1-4 facts.
// want holds each lane's closed form on the data the sweep was made for.
type batchSweep struct {
	body []byte
	want []float64
}

func (s *service) newSweep() batchSweep {
	rng := s.r.rng
	var sw batchSweep
	var ids []map[string]float64
	for l := 0; l < batchLanes; l++ {
		byID, byKey := map[string]float64{}, map[string]float64{}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			id := rng.Intn(len(s.facts))
			p := chainProb(rng)
			byID[strconv.Itoa(id)] = p
			byKey[s.facts[id].key()] = p
		}
		ids = append(ids, byID)
		sw.want = append(sw.want, s.m.answer("RST", byKey))
	}
	sw.body = mustJSON(map[string]any{"query": hardQuery, "assignments": ids})
	return sw
}

// check compares every lane with its closed form.
func (sw batchSweep) check(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, body)
	}
	var resp struct {
		Probabilities []float64 `json:"probabilities"`
		Errors        []string  `json:"errors"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Probabilities) != len(sw.want) || len(resp.Errors) > 0 {
		return fmt.Errorf("%d lanes answered of %d, errors %v", len(resp.Probabilities), len(sw.want), resp.Errors)
	}
	for l, want := range sw.want {
		if math.Abs(resp.Probabilities[l]-want) > tol {
			return fmt.Errorf("lane %d: answer %.15g, closed form %.15g", l, resp.Probabilities[l], want)
		}
	}
	return nil
}

// prime registers every hot shape and builds the frozen plan the sweeps
// use, so the first measured request of each kind is already warm.
func (s *service) prime() error {
	for _, sh := range chainShapes {
		var out struct{}
		if err := call(s.c1, s.p.base+"/query", map[string]string{"query": sh.texts[0]}, &out); err != nil {
			return err
		}
	}
	var out struct{}
	return call(s.c1, s.p.base+"/batch", map[string]any{"query": hardQuery, "assignments": []map[string]float64{{}}}, &out)
}

// classStats gathers the samples of a phase by class and counts them into
// the run's attempted and failed totals.
type classStats struct {
	fromDue [numClasses][]float64 // answered requests only
	late    []float64
	backlog int
	failed  int
	samples [numClasses][]sample
}

func (r *run) collect(res []connResult) *classStats {
	cs := &classStats{}
	for _, c := range res {
		for _, s := range c.samples {
			r.attempted++
			cs.late = append(cs.late, s.late())
			cs.samples[s.class] = append(cs.samples[s.class], s)
			if s.failed {
				r.failed++
				cs.failed++
				continue
			}
			cs.fromDue[s.class] = append(cs.fromDue[s.class], s.fromDue())
		}
		if c.backlogMax > cs.backlog {
			cs.backlog = c.backlogMax
		}
		if !c.sustained() {
			fmt.Printf("note: a connection fell behind its schedule (%d requests never sent)\n", c.unsent)
		}
	}
	return cs
}

// report prints the load generator's own account of a phase.
func (cs *classStats) report(name string, dur time.Duration) {
	fmt.Printf("phase %-10s %5.1fs  late p50 %.3f ms p99 %.3f ms  backlog max %d  ", name, dur.Seconds(),
		quantile(cs.late, 0.5), quantile(cs.late, 0.99), cs.backlog)
	for c := 0; c < numClasses; c++ {
		if n := len(cs.samples[c]); n > 0 {
			fmt.Printf(" %s n=%d p50=%.2fms", className[c], n, quantile(cs.fromDue[c], 0.5))
		}
	}
	fmt.Println()
}

// setupRuns is how many times a service workload starts its server to time
// set-up; the last server stays up for the run.
const setupRuns = 5

// setup starts the server setupRuns times through start and reports the
// median set-up cost: gated, the CPU time pdbd spent from exec until ready,
// the work of set-up; printed, the wall time. The reference computation
// runs before each start.
func (s *service) setup(start func(bool) (float64, error), what string) error {
	ref := &hostRef{}
	var wall, cpu []float64
	for i := 0; i < setupRuns; i++ {
		if s.p != nil {
			s.p.kill()
			s.p = nil
		}
		ref.burst(4)
		t, err := start(false)
		if err != nil {
			return err
		}
		c, err := s.p.cpu()
		if err != nil {
			return err
		}
		wall = append(wall, t)
		cpu = append(cpu, c.Seconds())
	}
	s.r.ref.add(ref)
	s.r.cost("setup_s", "setup_cpu_s", median(cpu), "s", ref,
		fmt.Sprintf("median server CPU time from exec to ready, %d %s", setupRuns, what))
	s.r.endToEnd("", "setup_wall_s", median(wall), "s", fmt.Sprintf("median wall time of the same %d %s", setupRuns, what))
	return nil
}

// costPhase runs one phase and returns its samples, the server CPU time per
// request it answered (the work pdbd did for the phase's traffic) and the
// reference computation's samples taken just before and after it.
func (s *service) costPhase(name string, d time.Duration, plans []connPlan) (*classStats, float64, *hostRef, error) {
	ref := &hostRef{}
	ref.burst(10)
	c0, err := s.p.cpu()
	if err != nil {
		return nil, 0, nil, err
	}
	res := runPhase(s.p.base, d, plans, s.r.rng)
	c1, err := s.p.cpu()
	if err != nil {
		return nil, 0, nil, err
	}
	ref.burst(10)
	s.r.ref.add(ref)
	cs := s.r.collect(res)
	cs.report(name, d)
	n := 0
	for c := range cs.fromDue {
		n += len(cs.fromDue[c])
	}
	if n == 0 {
		return nil, 0, nil, fmt.Errorf("phase %s: no request answered", name)
	}
	return cs, ms(c1-c0) / float64(n), ref, nil
}

// soloCost sends requests on one connection alone, open loop, and returns
// the server CPU time of one request of the given class, a trimmed mean, and
// the reference computation's samples taken around and during the phase.
// The server's CPU clock is read before each request is sent and after its
// reply, so nothing but that request runs in between. The reference runs
// while the connection waits for its next request to fall due.
func (s *service) soloCost(name string, d time.Duration, plan connPlan, class int) (float64, *hostRef, error) {
	ref := &hostRef{}
	ref.burst(5)
	plan.serverPID = s.p.cmd.Process.Pid
	plan.ref = ref
	cs := s.r.collect(runPhase(s.p.base, d, []connPlan{plan}, s.r.rng))
	ref.burst(5)
	s.r.ref.add(ref)
	cs.report(name, d)
	var cpu []float64
	for _, x := range cs.samples[class] {
		if !x.failed {
			cpu = append(cpu, ms(x.cpu))
		}
	}
	if len(cpu) == 0 {
		return 0, nil, fmt.Errorf("phase %s: no request answered", name)
	}
	return trimmedMean(cpu), ref, nil
}

// closedLoopRate measures how many hot queries one connection completes per
// second when it never waits: the ceiling the read ladder starts under.
func (s *service) closedLoopRate(d time.Duration) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		code, _, err := post(s.c1, s.p.base+"/query", s.hot[n%len(s.hot)].body)
		if err != nil || code != http.StatusOK {
			break
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// readLadder finds the read capacity: the highest hot-/query rate on
// connection 1 whose from-due p99 stays under readLimitMS without a growing
// backlog, while the rest of the workload's traffic keeps its base rate.
// plans builds the phase's connection plans for a hot-/query rate.
func (s *service) readLadder(budget time.Duration, plans func(rate float64) []connPlan) float64 {
	const rungs = 6
	rungDur := budget / rungs
	start := 0.4 * s.closedLoopRate(500*time.Millisecond)
	best, tried := ladder(start, readLimitMS, rungs, func(rate float64) rung {
		res := runPhase(s.p.base, rungDur, plans(rate), s.r.rng)
		cs := s.r.collect(res)
		p99 := quantile(cs.fromDue[clsQuery], 0.99)
		// A failed request misses any latency limit.
		ok := p99 <= readLimitMS && res[0].sustained() && len(cs.fromDue[clsQuery]) > 0 && cs.failed == 0
		verdict := "sustained"
		if !ok {
			verdict = "unsustainable"
		}
		fmt.Printf("rung %7.1f req/s: hot /query p99 %.2f ms, late p99 %.2f ms, backlog max %d, unsent %d -> %s\n",
			rate, p99, quantile(cs.late, 0.99), res[0].backlogMax, res[0].unsent, verdict)
		return rung{rate: rate, p99: p99, ok: ok}
	})
	fmt.Printf("read ladder: %d rungs of %.1fs from %.1f req/s\n", len(tried), rungDur.Seconds(), start)
	return best
}

// tracedPhase runs a service workload's base traffic twice: on an untraced
// server, then on a server logging every request's span, scraping /metrics
// around the traced pass. It reports the per-layer metrics and the tracing
// overhead on the median hot-/query latency.
func (s *service) tracedPhase(start func(bool) (float64, error), warm func(), phase func(time.Duration) []connResult) error {
	r := s.r
	r.initLayers()
	if _, err := start(false); err != nil {
		return err
	}
	warm()
	dur := r.seconds / 2
	untraced := r.collect(phase(dur))
	untraced.report("untraced", dur)
	s.p.kill()
	s.p = nil

	if _, err := start(true); err != nil {
		return err
	}
	warm()
	s.drainRecords()
	before, err := get(s.c1, s.p.base+"/metrics")
	if err != nil {
		return err
	}
	traced := r.collect(phase(dur))
	traced.report("traced", dur)
	after, err := get(s.c1, s.p.base+"/metrics")
	if err != nil {
		return err
	}
	sent := 0
	for c := range traced.samples {
		sent += len(traced.samples[c])
	}
	recs := s.awaitRecords(sent)

	hotFP := map[string]bool{}
	for _, sh := range chainShapes {
		for _, t := range sh.texts {
			q, err := pdbio.ParseCQ(t)
			if err != nil {
				return err
			}
			hotFP[core.FingerprintNormalized(core.NormalizeCQ(q))] = true
		}
	}
	s.serverLayers(traced, recs, parseScrape(before), parseScrape(after), hotFP)
	r.layerMetric("obs.trace_overhead_frac",
		quantile(traced.fromDue[clsQuery], 0.5)/quantile(untraced.fromDue[clsQuery], 0.5)-1, "ratio")

	// The engine's share of the served instance, in process: the layers
	// under the server's plans.
	var ops []oneshotOp
	for i := 0; i < 3; i++ {
		o, err := r.engineOp(s.facts, rel.HardQuery(), "served instance", true, true)
		if err != nil {
			return err
		}
		ops = append(ops, o)
	}
	r.engineLayers(ops)
	return nil
}
