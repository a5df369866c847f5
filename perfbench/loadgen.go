package main

import (
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The open-loop load generator. Each connection is one goroutine with one
// HTTP connection; it sends its schedule in order and never waits for a
// reply longer than the connection forces it to, so a slow reply delays the
// requests queued behind it and that delay is part of their latency: every
// latency is timed from the moment the request was due, not from when it
// was actually sent.

// op is one request. check runs on the reply after its latency is taken;
// a non-nil error counts the request as failed.
type op struct {
	class int
	path  string
	body  []byte
	check func(code int, body []byte) error
}

// stream is one class of requests arriving periodically at rate per second.
type stream struct {
	class int
	rate  float64
}

// connPlan is the work of one connection for one phase; next builds the
// request for a class just before it is due, so ops that depend on earlier
// ones (updates) are generated in send order.
type connPlan struct {
	client  *http.Client
	streams []stream
	next    func(class int) op
	// serverPID, when set, is the server whose CPU clock is read around
	// every request. Only a connection that runs alone gets it: then the
	// server's CPU time between send and reply is that request's.
	serverPID int
	// ref, when set, runs the reference computation while the connection
	// waits for its next request to fall due.
	ref *hostRef
}

// sample is one sent request.
type sample struct {
	class          int
	due, sent, end time.Time
	cpu            time.Duration // server CPU time, when the plan reads it
	failed         bool
}

func (s sample) fromDue() float64  { return ms(s.end.Sub(s.due)) }
func (s sample) fromSend() float64 { return ms(s.end.Sub(s.sent)) }
func (s sample) late() float64     { return ms(s.sent.Sub(s.due)) }

// connResult is what one connection did in one phase.
type connResult struct {
	samples    []sample
	backlogMax int // most requests overdue at any send
	unsent     int // requests due before the phase ended but never sent
}

type arrival struct {
	at    time.Duration
	class int
}

// schedule merges the periodic arrivals of the streams, each with a seeded
// random phase offset so classes do not fire in lockstep.
func schedule(streams []stream, dur time.Duration, rng *rand.Rand) []arrival {
	var out []arrival
	for _, s := range streams {
		if s.rate <= 0 {
			continue
		}
		gap := time.Duration(float64(time.Second) / s.rate)
		for t := time.Duration(rng.Float64() * float64(gap)); t < dur; t += gap {
			out = append(out, arrival{t, s.class})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// runPhase drives every connection for dur and returns their results in
// plan order. It returns once every connection has finished its last
// request.
func runPhase(base string, dur time.Duration, plans []connPlan, rng *rand.Rand) []connResult {
	scheds := make([][]arrival, len(plans))
	for i, p := range plans {
		scheds[i] = schedule(p.streams, dur, rng)
	}
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	out := make([]connResult, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = runConn(base, plans[i], scheds[i], start, end)
		}(i)
	}
	wg.Wait()
	return out
}

func runConn(base string, p connPlan, sched []arrival, start, end time.Time) connResult {
	var res connResult
	for i, a := range sched {
		due := start.Add(a.at)
		o := p.next(a.class)
		for p.ref != nil && time.Until(due) > refBudget {
			p.ref.sample()
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if now.After(end) {
			res.unsent = len(sched) - i
			break
		}
		overdue := 0
		for j := i + 1; j < len(sched) && !start.Add(sched[j].at).After(now); j++ {
			overdue++
		}
		if overdue > res.backlogMax {
			res.backlogMax = overdue
		}
		var cpu0, cpu1 time.Duration
		if p.serverPID != 0 {
			cpu0, _ = cpuTime(p.serverPID)
		}
		code, body, err := post(p.client, base+o.path, o.body)
		end := time.Now()
		if p.serverPID != 0 {
			cpu1, _ = cpuTime(p.serverPID)
		}
		s := sample{class: a.class, due: due, sent: now, end: end, cpu: cpu1 - cpu0}
		if err != nil || (o.check == nil && code != http.StatusOK) {
			s.failed = true
		} else if o.check != nil && o.check(code, body) != nil {
			s.failed = true
		}
		res.samples = append(res.samples, s)
	}
	return res
}

// sustained reports whether a phase kept up with its schedule: at most a
// handful of requests, and at most 1% of them, were still waiting when it
// ended.
func (c connResult) sustained() bool {
	n := len(c.samples) + c.unsent
	return c.unsent <= 2 || float64(c.unsent) <= 0.01*float64(n)
}

// timerFloor measures how late a 1 ms sleep wakes on this host: the floor
// under every from-due latency.
func timerFloor() (p50, p99 float64) {
	late := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		due := time.Now().Add(time.Millisecond)
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
	}
	return quantile(late, 0.5), quantile(late, 0.99)
}

// rung is one step of a rate ladder.
type rung struct {
	rate, p99 float64
	ok        bool
}

// ladder searches for the highest rate that probe sustains. It climbs in
// steps of 15% from start until a rung fails, then bisects the bracket
// while time allows, and interpolates the rate at which the tail latency
// crosses limitMS between the last passing and the first failing rung.
func ladder(start, limitMS float64, rungs int, probe func(rate float64) rung) (float64, []rung) {
	var tried []rung
	var pass, fail *rung
	rate := start
	for len(tried) < rungs {
		r := probe(rate)
		tried = append(tried, r)
		rr := r
		if r.ok {
			pass = &rr
		} else {
			fail = &rr
		}
		switch {
		case pass == nil:
			rate /= 1.3
		case fail == nil:
			rate *= 1.15
		default:
			rate = (pass.rate + fail.rate) / 2
		}
	}
	switch {
	case pass == nil:
		return tried[len(tried)-1].rate, tried
	case fail == nil || fail.rate < pass.rate:
		return pass.rate, tried
	}
	// The failing rung may have failed on backlog with a tail under the
	// limit; then the crossing is not measured and the passing rate stands.
	if fail.p99 <= limitMS || pass.p99 >= limitMS {
		return pass.rate, tried
	}
	f := (limitMS - pass.p99) / (fail.p99 - pass.p99)
	return pass.rate + f*(fail.rate-pass.rate), tried
}
