package main

import (
	"sort"
	"time"
)

// The host's speed drifts. On a shared machine, the work another tenant
// runs on the same physical core slows ours: the CPU time of the same
// request on a 2-vCPU VM moved by up to 60% from one minute to the next.
// So the benchmark runs a fixed reference computation of its own, next to
// the work it measures, and reports every gated cost adjusted to the
// reference's speed:
//
//	adjusted = measured × refNominalMS / (median CPU time of the reference nearby)
//
// The reference shares no code with the program under test, so a change to
// the program moves the adjusted figure by its own factor, while a change
// of host speed mostly cancels. refNominalMS only fixes the scale; a
// comparison between two commits divides it out.
const refNominalMS = 2.0

// refBudget is how long before its next request falls due a connection of
// a solo phase still starts a reference sample.
const refBudget = 5 * time.Millisecond

// The reference computation mixes the kinds of work the engine and the
// server do: hash-map accumulation with small allocations and a sort (plan
// discovery), and a float64 sweep (compiled evaluation).
func refMaps() float64 {
	m := make(map[uint64]float64, 512)
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	for i := 0; i < 15000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := (x >> 33) % 4000
		m[k] += float64(x>>40) * 1e-7
		if i%32 == 0 {
			s := make([]float64, 24)
			s[i%24] = acc
			acc = s[(i+7)%24] + m[k]
		}
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		acc += m[k]
	}
	return acc
}

func refSweep() float64 {
	const n = 1 << 14
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i%97) * 0.01
	}
	for round := 0; round < 12; round++ {
		for i := 1; i < n; i++ {
			b[i] = a[i]*0.5 + a[i-1]*0.25 + b[i-1]*0.25
		}
		a, b = b, a
	}
	return a[n-1]
}

// hostRef collects the CPU time of reference runs.
type hostRef struct {
	samples []float64 // ms
	sink    float64
}

// sample runs the reference once and records its CPU time.
func (h *hostRef) sample() {
	c := selfCPU()
	h.sink += refMaps() + refSweep()
	h.samples = append(h.samples, ms(selfCPU()-c))
}

// burst takes n samples in a row.
func (h *hostRef) burst(n int) {
	for i := 0; i < n; i++ {
		h.sample()
	}
}

// add appends the samples of another collector.
func (h *hostRef) add(l *hostRef) { h.samples = append(h.samples, l.samples...) }

// ms is the median CPU time of one reference run.
func (h *hostRef) ms() float64 { return median(append([]float64(nil), h.samples...)) }

// adjust scales a measured cost to the reference's nominal speed.
func (h *hostRef) adjust(v float64) float64 { return v * refNominalMS / h.ms() }
