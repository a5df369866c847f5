package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth. It
// keeps out the rare sample that met a garbage collection or a snapshot,
// like a median, but stays put when the samples fall into several modes (a
// median jumps between them as their shares shift). xs is sorted in place.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := len(xs) / 10
	sum := 0.0
	for _, x := range xs[k : len(xs)-k] {
		sum += x
	}
	return sum / float64(len(xs)-2*k)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// beyond is the number of samples strictly above the q-quantile position,
// reported so a reader can judge whether a tail percentile has support.
func beyond(n int, q float64) int { return n - 1 - int(math.Floor(q*float64(n-1))) }

// scrape is one parsed Prometheus text exposition: series name with its
// label set (exactly as exposed) -> value.
type scrape map[string]float64

func parseScrape(text string) scrape {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta returns after − before for one series (missing series read as 0).
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// histDelta is the part of one histogram observed between two scrapes.
type histDelta struct {
	bounds []float64 // upper bounds, ascending, +Inf last
	counts []float64 // per-bucket (not cumulative) observation counts
	sum    float64
	count  float64
}

// histogramDelta extracts the histogram family name with the given label
// selector (`kind="view"`, or "" for none) from two scrapes.
func histogramDelta(before, after scrape, name, sel string) histDelta {
	var h histDelta
	prefix := name + "_bucket{"
	type b struct{ le, cum float64 }
	var bs []b
	for k := range after {
		if !strings.HasPrefix(k, prefix) || (sel != "" && !strings.Contains(k, sel)) {
			continue
		}
		j := strings.Index(k, `le="`)
		if j < 0 {
			continue
		}
		s := k[j+4:]
		s = s[:strings.IndexByte(s, '"')]
		le := math.Inf(1)
		if s != "+Inf" {
			le, _ = strconv.ParseFloat(s, 64)
		}
		bs = append(bs, b{le, delta(before, after, k)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	prev := 0.0
	for _, x := range bs {
		h.bounds = append(h.bounds, x.le)
		h.counts = append(h.counts, x.cum-prev)
		prev = x.cum
	}
	suffix := ""
	if sel != "" {
		suffix = "{" + sel + "}"
	}
	h.sum = delta(before, after, name+"_sum"+suffix)
	h.count = delta(before, after, name+"_count"+suffix)
	return h
}

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it (log2-spaced buckets, so the estimate is within a
// factor of two of the truth; the server exposes nothing finer).
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	cum := 0.0
	for i, c := range h.counts {
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
