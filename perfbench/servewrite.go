package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/pdbio"
	"repro/internal/wal"
)

// serve-write: a durable pdbd (-fsync always) that starts by crash recovery.
// Connection 1 is interactive: hot /query plus /update requests of 1-8 ops.
// Connection 2 is analytic: 16-lane /batch sweeps, which follow a write and
// so re-prepare their frozen plan, and novel-shape /query requests with
// constants, which miss the plan cache and, once it is full, evict.
const (
	// Small chains: every insert re-prepares all 64 cached views under the
	// store lock, and at this size that stall stays near half a second.
	writeChains, writeLinks = 8, 12
	writeQueryRate          = 80.0 // hot /query per second
	writeUpdateRate         = 30.0 // /update per second
	writeBatchRate          = 3.0  // /batch per second
	writeMissRate           = 5.0  // novel-shape /query per second
	// The solo phases send one class, or one pair of classes, alone on one
	// connection, so the server's CPU time between a request and its reply
	// is that request's.
	writeUpdateCostRate = 60.0
	writeMissCostRate   = 20.0
	writeAfterRate      = 8.0 // /update, each followed by a /batch, per second
	// snapshotEvery makes pdbd snapshot often enough that the crash leaves
	// a snapshot holding the registered views plus a log tail to replay,
	// and that snapshots also happen while the workload runs.
	snapshotEvery = 256
	// preCrashViews novel shapes are registered before the crash: with
	// the hot shapes they fill the 64-entry plan cache, which recovery
	// re-warms and the run then keeps full.
	preCrashViews   = 58
	preCrashUpdates = 300
)

// writer generates /update and novel-shape requests in send order and
// keeps the benchmark's model of the data in step with acknowledged writes.
type writer struct {
	m      *model
	rng    *rand.Rand
	seed   int64  // rng's seed: every recovered pass replays the same updates
	facts  []fact // the initial facts: the targets of set ops
	lens   []int  // links per chain, new chains included
	merges int
	n      int // updates generated
	novel  int // novel shapes generated
	pool   []novelShape
}

// novelShape is a one-constant variant of a chain shape: every request is a
// new fingerprint.
type novelShape struct {
	text string
	c    string
	out  bool // c is the source of its S match (R(c) & S(c,?y) & T(?y))
}

func novelPool(r *run) []novelShape {
	var out []novelShape
	for j := 0; j < writeChains; j++ {
		for i := 0; i < writeLinks; i++ {
			c := node(j, i)
			out = append(out, novelShape{fmt.Sprintf("R(%s) & S(%s,?y) & T(?y)", c, c), c, true})
			c2 := node(j, i+1)
			out = append(out, novelShape{fmt.Sprintf("S(?x,%s) & T(%s) & R(?x)", c2, c2), c2, false})
		}
	}
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// answer is the closed form of a novel shape: its matches are the S facts
// leaving (or entering) c, which share no fact on chain data.
func (ns novelShape) answer(m *model) float64 {
	none := 1.0
	for _, s := range m.ss {
		if (ns.out && s[0] == ns.c) || (!ns.out && s[1] == ns.c) {
			none *= 1 - m.w["R("+s[0]+")"]*m.w["S("+s[0]+","+s[1]+")"]*m.w["T("+s[1]+")"]
		}
	}
	return 1 - none
}

func (w *writer) clone() *writer {
	m := &model{w: make(map[string]float64, len(w.m.w)), ss: append([][2]string(nil), w.m.ss...)}
	for k, v := range w.m.w {
		m.w[k] = v
	}
	c := *w
	c.m = m
	c.rng = rand.New(rand.NewSource(w.seed))
	c.lens = append([]int(nil), w.lens...)
	return &c
}

func (w *writer) missOp() op {
	ns := w.pool[w.novel%len(w.pool)]
	w.novel++
	return op{class: clsMiss, path: "/query", body: mustJSON(map[string]string{"query": ns.text})}
}

// wireUpdate is one op of an /update request body.
type wireUpdate struct {
	Op   string   `json:"op"`
	ID   *int     `json:"id,omitempty"`
	Rel  string   `json:"rel,omitempty"`
	Args []string `json:"args,omitempty"`
	P    float64  `json:"p,omitempty"`
}

// Kinds of /update.
const (
	updSet      = iota // 1-8 set ops on existing facts
	updExtend          // inserts extending a chain by one link
	updNewChain        // inserts opening a new chain: a new shard
	updMerge           // a U fact joining two chains, a relation no hot query uses
)

// updateOp builds the next /update of the given kind. Inserts re-prepare
// views under the store lock (a merge rebuilds every view), so they are
// rare: the phase places a fixed number at fixed points.
func (w *writer) updateOp(kind int) op {
	rng := w.rng
	w.n++
	var ops []wireUpdate
	var changes []fact
	ins := func(f fact) {
		ops = append(ops, wireUpdate{Op: "insert", Rel: f.rel, Args: f.args, P: f.p})
		changes = append(changes, f)
	}
	extend := func(j int) {
		a, b := node(j, w.lens[j]), node(j, w.lens[j]+1)
		w.lens[j]++
		r := func() float64 { return 0.02 + 0.18*rng.Float64() }
		ins(fact{"R", []string{a}, r()})
		ins(fact{"S", []string{a, b}, r()})
		ins(fact{"T", []string{b}, r()})
	}
	switch kind {
	case updMerge:
		w.merges++
		ins(fact{"U", []string{node(2*w.merges%writeChains, 0), node((2*w.merges+1)%writeChains, 1)}, 0.5})
	case updExtend:
		extend(rng.Intn(len(w.lens)))
	case updNewChain:
		w.lens = append(w.lens, 0)
		extend(len(w.lens) - 1)
	default:
		for k := 1 + rng.Intn(8); k > 0; k-- {
			id := rng.Intn(len(w.facts))
			f := w.facts[id]
			f.p = 0.02 + 0.18*rng.Float64()
			ops = append(ops, wireUpdate{Op: "set", ID: &id, P: f.p})
			changes = append(changes, f)
		}
	}
	body := mustJSON(map[string]any{"updates": ops})
	return op{class: clsUpdate, path: "/update", body: body, check: func(code int, body []byte) error {
		var resp struct {
			Applied int    `json:"applied"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("status %d: %s", code, body)
		}
		for _, f := range changes[:min(resp.Applied, len(changes))] {
			w.m.set(f)
		}
		if code != http.StatusOK || resp.Applied != len(changes) {
			return fmt.Errorf("status %d: applied %d of %d: %s", code, resp.Applied, len(changes), resp.Error)
		}
		return nil
	}}
}

// set applies one acknowledged write to the model: a new weight, or a new
// fact.
func (m *model) set(f fact) {
	if _, ok := m.w[f.key()]; ok {
		m.w[f.key()] = f.p
		return
	}
	m.add(f)
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

func (r *run) serveWrite() error {
	facts := chainFacts(r.rng, writeChains, writeLinks)
	s, err := r.newService(facts)
	if err != nil {
		return err
	}
	lens := make([]int, writeChains)
	for i := range lens {
		lens[i] = writeLinks
	}
	pristine := &writer{m: s.m, rng: rand.New(rand.NewSource(r.rng.Int63())), seed: r.rng.Int63(),
		facts: facts, lens: lens, pool: novelPool(r)}
	crashed := filepath.Join(r.work, "crashed")
	durable := []string{"-fsync", "always", "-snapshot-every", strconv.Itoa(snapshotEvery)}
	defer func() {
		if s.p != nil {
			s.p.kill()
		}
	}()

	// Before the crash: seed the data dir, fill the plan cache, commit
	// enough updates to snapshot the registered views and leave a tail.
	p, err := startPdbd(r.bin, append([]string{"-i", s.file, "-data-dir", crashed}, durable...)...)
	if err != nil {
		return err
	}
	s.p = p
	if err := p.waitReady(s.c1, 60*time.Second); err != nil {
		return err
	}
	if err := s.prime(); err != nil {
		return err
	}
	for i := 0; i < preCrashViews; i++ {
		o := pristine.missOp()
		if code, body, err := post(s.c1, p.base+o.path, o.body); err != nil || code != http.StatusOK {
			return fmt.Errorf("pre-crash view %d: %d %s %v", i, code, body, err)
		}
	}
	for i := 0; i < preCrashUpdates; i++ {
		o := pristine.updateOp(updSet)
		code, body, err := post(s.c1, p.base+o.path, o.body)
		if err == nil {
			err = o.check(code, body)
		}
		if err != nil {
			return fmt.Errorf("pre-crash update %d: %v", i, err)
		}
	}
	p.kill() // kill -9: recovery must replay the log tail
	s.p = nil

	var w *writer
	inserts := map[int]int{} // update number -> kind, for the inserts
	nq := 0
	next1 := func(c int) op {
		if c == clsQuery {
			nq++
			return s.hotOp(nq, false)
		}
		return w.updateOp(inserts[w.n+1])
	}
	var sweeps []batchSweep
	for i := 0; i < 24; i++ {
		sweeps = append(sweeps, s.newSweep())
	}
	nb := 0
	next2 := func(c int) op {
		if c == clsMiss {
			return w.missOp()
		}
		nb++
		return op{class: clsBatch, path: "/batch", body: sweeps[nb%len(sweeps)].body}
	}
	plans := func(q, u, b, m float64) []connPlan {
		return []connPlan{
			{client: s.c1, streams: []stream{{clsQuery, q}, {clsUpdate, u}}, next: next1},
			{client: s.c2, streams: []stream{{clsBatch, b}, {clsMiss, m}}, next: next2},
		}
	}
	mixed := func() []connPlan { return plans(writeQueryRate, writeUpdateRate, writeBatchRate, writeMissRate) }
	// afterWrite alternates a set-only /update and a /batch on one
	// connection (two streams of one period alternate), so every /batch
	// follows a write and re-prepares its frozen plan.
	afterWrite := connPlan{client: s.c1, streams: []stream{{clsUpdate, writeAfterRate}, {clsBatch, writeAfterRate}},
		next: func(c int) op {
			if c == clsBatch {
				return next2(c)
			}
			return w.updateOp(updSet)
		}}
	copies := 0
	// start recovers a fresh copy of the crashed data dir; ready means
	// snapshot loaded, tail replayed, views re-registered and /healthz 200.
	start := func(traced bool) (float64, error) {
		if s.p != nil {
			s.p.kill()
			s.p = nil
		}
		copies++
		dir := filepath.Join(r.work, fmt.Sprintf("recovered-%d", copies))
		if err := copyDir(crashed, dir); err != nil {
			return 0, err
		}
		w = pristine.clone()
		s.m = w.m
		inserts = nil
		args := append([]string{"-data-dir", dir}, durable...)
		if traced {
			args = append(args, traceArgs...)
		}
		t0 := time.Now()
		p, err := startPdbd(r.bin, args...)
		if err != nil {
			return 0, err
		}
		s.p = p
		if err := p.waitReady(s.c1, 120*time.Second); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	// Warm-up: the frozen plan built and the first commits done.
	warm := func() { r.collect(runPhase(s.p.base, time.Second, mixed(), r.rng)) }
	// insertsIn places the phase's three inserts at a quarter, a half and
	// three quarters of its updates.
	insertsIn := func(d time.Duration) {
		n := int(writeUpdateRate * d.Seconds())
		inserts = map[int]int{w.n + n/4: updExtend, w.n + n/2: updNewChain, w.n + 3*n/4: updMerge}
	}
	phase := func(d time.Duration) []connResult {
		insertsIn(d)
		return runPhase(s.p.base, d, mixed(), r.rng)
	}

	if r.trace {
		if err := s.tracedPhase(start, warm, phase); err != nil {
			return err
		}
		s.finalChecks(w)
		return r.recoveryLayers(crashed)
	}

	if err := s.setup(start, "crash recoveries"); err != nil {
		return err
	}
	warm()
	mainDur := r.seconds * 50 / 100
	costDur := r.seconds * 50 / 300
	insertsIn(mainDur)
	cs, mix, mixRef, err := s.costPhase("main", mainDur, mixed())
	if err != nil {
		return err
	}
	inserts = nil
	update, updateRef, err := s.soloCost("update", costDur, plans(0, writeUpdateCostRate, 0, 0)[0], clsUpdate)
	if err != nil {
		return err
	}
	miss, missRef, err := s.soloCost("miss", costDur, plans(0, 0, 0, writeMissCostRate)[1], clsMiss)
	if err != nil {
		return err
	}
	batch, batchRef, err := s.soloCost("after-write", costDur, afterWrite, clsBatch)
	if err != nil {
		return err
	}
	s.finalChecks(w)
	r.cost("op1_cpu_ms", "update_cpu_ms", update, "ms", updateRef, "server CPU time of one durable /update, sent alone, trimmed mean")
	r.cost("op2_cpu_ms", "miss_cpu_ms", miss, "ms", missRef, "server CPU time of one novel-shape /query, sent alone, trimmed mean")
	r.cost("op3_cpu_ms", "batch_cpu_ms", batch, "ms", batchRef, "server CPU time of one 16-lane /batch right after an /update, the pair sent alone, trimmed mean")
	r.cost("", "mix_cpu_ms", mix, "ms", mixRef, "server CPU time per request, main phase")
	r.latency("query", cs.fromDue[clsQuery], 0.99)
	r.latency("batch", cs.fromDue[clsBatch], 0.9)
	r.latency("update", cs.fromDue[clsUpdate], 0.99)
	r.latency("miss", cs.fromDue[clsMiss], 0.9)
	rss, err := s.p.peakRSSMB()
	if err != nil {
		return err
	}
	r.endToEnd("peak_rss_mb", "peak_rss_mb", rss, "MB", "pdbd VmHWM")
	return nil
}

// finalChecks runs once the traffic has stopped: the benchmark was the only
// writer, so its model holds the final weights. Every hot shape, one sweep
// and a few of the novel shapes must match their closed forms.
func (s *service) finalChecks(w *writer) {
	r := s.r
	one := func(what string, body []byte, want float64) {
		code, resp, err := post(s.c1, s.p.base+"/query", body)
		r.attempted++
		if err == nil {
			err = checkProb(code, resp, want)
		}
		if !r.check(err == nil, "after the run, %s: %v", what, err) {
			r.failed++
		}
	}
	for _, sh := range chainShapes {
		one(sh.texts[0], mustJSON(map[string]string{"query": sh.texts[0]}), s.m.answer(sh.atoms))
	}
	for i := 0; i < 4 && i < w.novel; i++ {
		ns := w.pool[(w.novel-1-i)%len(w.pool)]
		one(ns.text, mustJSON(map[string]string{"query": ns.text}), ns.answer(s.m))
	}
	sw := s.newSweep()
	code, resp, err := post(s.c1, s.p.base+"/batch", sw.body)
	r.attempted++
	if err == nil {
		err = sw.check(code, resp)
	}
	if !r.check(err == nil, "after the run, /batch: %v", err) {
		r.failed++
	}
}

// recoveryLayers replays a copy of the crashed data dir in process and
// re-registers the views it recorded, timing wal.Replay and each
// incr.(*Store).RegisterView.
func (r *run) recoveryLayers(crashed string) error {
	dir := filepath.Join(r.work, "replayed")
	if err := copyDir(crashed, dir); err != nil {
		return err
	}
	b, err := wal.NewDirBackend(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rec, err := wal.Replay(b)
	if err != nil {
		return err
	}
	r.layerMetric("wal.replay_ms", ms(time.Since(t0)), "ms")
	r.layerMetric("wal.replay_records", float64(rec.Records), "count")
	t1 := time.Now()
	for _, text := range rec.Views {
		q, err := pdbio.ParseCQ(text)
		if err != nil {
			return err
		}
		if _, err := rec.Store.RegisterView(core.NormalizeCQ(q), core.Options{}); err != nil {
			return err
		}
	}
	r.layerMetric("incr.rewarm_ms", ms(time.Since(t1)), "ms")
	fmt.Printf("recovery in process: %d records replayed, %d views re-registered\n", rec.Records, len(rec.Views))
	return nil
}
