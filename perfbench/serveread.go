package main

import (
	"fmt"
	"time"
)

// serve-read: an in-memory pdbd over 8 chains, read-only traffic. Connection
// 1 sends hot /query requests (several spellings of three shapes, all
// cached); connection 2 sends 16-lane /batch sweeps over the hard query,
// all served by one frozen plan. Nothing writes and nothing misses, so
// every answer is checked against the closed form as it arrives.
const (
	readChains, readLinks = 8, 100
	readQueryRate         = 200.0 // hot /query per second at the base rate
	readBatchRate         = 12.0  // /batch per second at the base rate
	// The solo phases send one class alone on one connection, so the
	// server's CPU time between a request and its reply is that request's.
	readQueryCostRate = 400.0
	readBatchCostRate = 20.0
)

func (r *run) serveRead() error {
	s, err := r.newService(chainFacts(r.rng, readChains, readLinks))
	if err != nil {
		return err
	}
	sweeps := make([]batchSweep, 24)
	for i := range sweeps {
		sweeps[i] = s.newSweep()
	}
	nq, nb := 0, 0
	next1 := func(int) op { nq++; return s.hotOp(nq, true) }
	next2 := func(int) op {
		nb++
		sw := sweeps[nb%len(sweeps)]
		return op{class: clsBatch, path: "/batch", body: sw.body, check: sw.check}
	}
	plans := func(qRate, bRate float64) []connPlan {
		return []connPlan{
			{client: s.c1, streams: []stream{{clsQuery, qRate}}, next: next1},
			{client: s.c2, streams: []stream{{clsBatch, bRate}}, next: next2},
		}
	}
	start := func(traced bool) (float64, error) {
		var args []string
		if traced {
			args = traceArgs
		}
		t0 := time.Now()
		p, err := startPdbd(r.bin, append([]string{"-i", s.file}, args...)...)
		if err != nil {
			return 0, err
		}
		s.p = p
		if err := p.waitReady(s.c1, 60*time.Second); err != nil {
			return 0, err
		}
		if err := s.prime(); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	warm := func() { r.collect(runPhase(s.p.base, time.Second, plans(readQueryRate, readBatchRate), r.rng)) }
	defer func() {
		if s.p != nil {
			s.p.kill()
		}
	}()

	if r.trace {
		return s.tracedPhase(start, warm, func(d time.Duration) []connResult {
			return runPhase(s.p.base, d, plans(readQueryRate, readBatchRate), r.rng)
		})
	}

	// Set-up: exec until the hot shapes are registered and the frozen plan
	// is built.
	if err := s.setup(start, "starts"); err != nil {
		return err
	}
	warm()

	baseDur := r.seconds * 40 / 100
	costDur := r.seconds * 25 / 200
	base, mix, mixRef, err := s.costPhase("base", baseDur, plans(readQueryRate, readBatchRate))
	if err != nil {
		return err
	}
	query, queryRef, err := s.soloCost("query", costDur, plans(readQueryCostRate, 0)[0], clsQuery)
	if err != nil {
		return err
	}
	batch, batchRef, err := s.soloCost("batch", costDur, plans(0, readBatchCostRate)[1], clsBatch)
	if err != nil {
		return err
	}
	maxRPS := s.readLadder(r.seconds-baseDur-2*costDur, func(rate float64) []connPlan { return plans(rate, readBatchRate) })

	r.cost("op1_cpu_ms", "query_cpu_ms", query, "ms", queryRef, "server CPU time of one hot /query, sent alone, trimmed mean")
	r.cost("op2_cpu_ms", "batch_cpu_ms", batch, "ms", batchRef, "server CPU time of one 16-lane /batch, sent alone, trimmed mean")
	r.cost("op3_cpu_ms", "mix_cpu_ms", mix, "ms", mixRef, "server CPU time per request, base phase")
	r.latency("query", base.fromDue[clsQuery], 0.99)
	r.latency("batch", base.fromDue[clsBatch], 0.9)
	r.endToEnd("", "read_max_rps", maxRPS, "1/s", fmt.Sprintf("hot /query p99 <= %.0f ms, no growing backlog", readLimitMS))
	rss, err := s.p.peakRSSMB()
	if err != nil {
		return err
	}
	r.endToEnd("peak_rss_mb", "peak_rss_mb", rss, "MB", "pdbd VmHWM")
	return nil
}
