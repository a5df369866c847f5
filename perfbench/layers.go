package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// layerMetrics lists every per-layer metric with its unit. A traced run of
// any workload reports all of them; a layer the workload does not exercise
// (the server on oneshot, the WAL on the in-memory serve-read) reads 0.
var layerMetrics = func() [][2]string {
	out := [][2]string{
		{"loadgen.late_p50_ms", "ms"}, {"loadgen.late_p99_ms", "ms"},
		{"loadgen.timer_floor_ms", "ms"}, {"loadgen.backlog_max", "count"},
		{"treedec.decompose_ms", "ms"}, {"treedec.nice_ms", "ms"},
		{"treedec.width", "count"}, {"treedec.nice_nodes", "count"},
		{"core.prepare_ms", "ms"}, {"core.discover_ms", "ms"}, {"core.discover_share", "ratio"},
		{"core.alloc_mb_per_op", "MB"}, {"core.compile_ms", "ms"}, {"core.eval_ms", "ms"},
	}
	for _, ep := range endpoints {
		for _, st := range ep.stages {
			out = append(out,
				[2]string{fmt.Sprintf("server.%s.%s_p50_ms", ep.name, st), "ms"},
				[2]string{fmt.Sprintf("server.%s.%s_p99_ms", ep.name, st), "ms"})
		}
		out = append(out, [2]string{"server." + ep.name + ".transport_ms", "ms"})
	}
	return append(out, [][2]string{
		{"server.frozen_hit_ratio", "ratio"}, {"server.prepare_frozen_ms", "ms"},
		{"server.plan_cache_hit_ratio", "ratio"}, {"server.plan_cache_evictions", "count"},
		{"server.prepare_view_ms", "ms"}, {"server.eval_ms", "ms"}, {"server.ingest_batch_size", "count"},
		{"incr.commit_p50_ms", "ms"}, {"incr.commit_p99_ms", "ms"},
		{"incr.updates_per_commit", "count"}, {"incr.nodes_per_commit", "count"},
		{"incr.rows_per_commit", "count"}, {"incr.shortcircuit_frac", "ratio"},
		{"incr.routed_attached", "count"}, {"incr.routed_new_shard", "count"},
		{"incr.rebuilds", "count"}, {"incr.rewarm_ms", "ms"},
		{"wal.fsync_p50_ms", "ms"}, {"wal.fsync_p99_ms", "ms"}, {"wal.records_per_flush", "count"},
		{"wal.wait_ms", "ms"}, {"wal.snapshot_ms", "ms"},
		{"wal.replay_ms", "ms"}, {"wal.replay_records", "count"},
		{"obs.trace_overhead_frac", "ratio"},
	}...)
}()

// endpoints lists pdbd's traced endpoints with the span stages each one
// marks, in order (the hot /query takes the live path, which has no lanes
// stage).
var endpoints = []struct {
	name   string
	stages []string
}{
	{"query", []string{"parse", "plan", "eval", "write"}},
	{"batch", []string{"parse", "plan", "lanes", "eval", "write"}},
	{"update", []string{"parse", "apply", "write"}},
}

// initLayers sets every per-layer metric to 0 (not exercised) before the
// workload fills in the layers it measured; the timer floor is measured by
// every run.
func (r *run) initLayers() {
	floor := r.layer["loadgen.timer_floor_ms"]
	for _, m := range layerMetrics {
		r.layer[m[0]] = metric{0, m[1]}
	}
	r.layer["loadgen.timer_floor_ms"] = floor
}

// engineLayers reports the treedec and core metrics: medians over traced
// engine ops, except the width, which is the largest any op ran at.
func (r *run) engineLayers(ops []oneshotOp) {
	var dec, nic, width, nodes, prep, disc, share, alloc, comp, eval []float64
	for _, o := range ops {
		dec = append(dec, ms(o.decompose))
		nic = append(nic, ms(o.nice))
		width = append(width, float64(o.width))
		nodes = append(nodes, float64(o.niceNodes))
		prep = append(prep, ms(o.prepare))
		disc = append(disc, ms(o.discover))
		share = append(share, ms(o.discover)/o.total())
		alloc = append(alloc, o.allocMB)
		comp = append(comp, ms(o.compile))
		eval = append(eval, ms(o.eval))
	}
	r.layerMetric("treedec.decompose_ms", median(dec), "ms")
	r.layerMetric("treedec.nice_ms", median(nic), "ms")
	r.layerMetric("treedec.width", quantile(width, 1), "count")
	r.layerMetric("treedec.nice_nodes", median(nodes), "count")
	r.layerMetric("core.prepare_ms", median(prep), "ms")
	r.layerMetric("core.discover_ms", median(disc), "ms")
	r.layerMetric("core.discover_share", median(share), "ratio")
	r.layerMetric("core.alloc_mb_per_op", median(alloc), "MB")
	r.layerMetric("core.compile_ms", median(comp), "ms")
	r.layerMetric("core.eval_ms", median(eval), "ms")
}

// slowRecord is one request record pdbd logs under -slow-query 1ns
// -log-format json.
type slowRecord struct {
	Msg      string  `json:"msg"`
	Endpoint string  `json:"endpoint"`
	TotalUS  float64 `json:"total_us"`
	Stages   string  `json:"stages"`
	FP       string  `json:"fp"`
}

// parseStages reads "parse=12.5us plan=3.1us ..." into stage -> ms.
func parseStages(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		us, err := strconv.ParseFloat(strings.TrimSuffix(v, "us"), 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad stage %q", f)
		}
		out[k] = us / 1000
	}
	return out, nil
}

// drainRecords discards request records until pdbd has logged nothing for
// 100 ms, so the next phase reads only its own.
func (s *service) drainRecords() {
	for quiet := 0; quiet < 10; {
		if len(s.p.takeLines()) == 0 {
			quiet++
		} else {
			quiet = 0
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitRecords collects pdbd's request records for want requests; the
// record of a request is logged before its reply is sent, so only the pipe
// can still hold a few.
func (s *service) awaitRecords(want int) []slowRecord {
	var recs []slowRecord
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, line := range s.p.takeLines() {
			var rec slowRecord
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "slow request" {
				recs = append(recs, rec)
			}
		}
		if len(recs) >= want || time.Now().After(deadline) {
			return recs
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serverLayers reports the per-layer metrics of a traced service phase:
// the stage breakdown of every request record, the transport time the
// records leave unexplained, the /metrics deltas of the phase, and the load
// generator's own lateness and backlog. It checks that each record's stages
// tile its span and that each span fits inside the client's view of the
// same request.
func (s *service) serverLayers(cs *classStats, recs []slowRecord, before, after scrape, hotFP map[string]bool) {
	r := s.r
	stages := map[string][]float64{}
	var byClass [numClasses][]float64 // server span totals, ms, in log order
	badTile := 0
	for _, rec := range recs {
		st, err := parseStages(rec.Stages)
		sum := 0.0
		for name, v := range st {
			stages[rec.Endpoint+"."+name] = append(stages[rec.Endpoint+"."+name], v)
			sum += v
		}
		// Stages print at 0.1us, the total at 1ns.
		if err != nil || math.Abs(sum*1000-rec.TotalUS) > 0.05*float64(len(st))+0.01 {
			badTile++
		}
		total := rec.TotalUS / 1000
		switch {
		case rec.Endpoint == "query" && hotFP[rec.FP]:
			byClass[clsQuery] = append(byClass[clsQuery], total)
		case rec.Endpoint == "query":
			byClass[clsMiss] = append(byClass[clsMiss], total)
		case rec.Endpoint == "batch":
			byClass[clsBatch] = append(byClass[clsBatch], total)
		case rec.Endpoint == "update":
			byClass[clsUpdate] = append(byClass[clsUpdate], total)
		}
	}
	r.check(badTile == 0, "trace: %d of %d request records have stages that do not tile the span", badTile, len(recs))
	for _, ep := range endpoints {
		for _, st := range ep.stages {
			xs := stages[ep.name+"."+st]
			r.layerMetric(fmt.Sprintf("server.%s.%s_p50_ms", ep.name, st), quantile(xs, 0.5), "ms")
			r.layerMetric(fmt.Sprintf("server.%s.%s_p99_ms", ep.name, st), quantile(xs, 0.99), "ms")
		}
	}
	// Requests of one class travel on one connection, one at a time, so
	// the i-th record of a class is the i-th request the client sent.
	for c, ep := range map[int]string{clsQuery: "query", clsBatch: "batch", clsUpdate: "update", clsMiss: ""} {
		client := cs.samples[c]
		if !r.check(len(client) == len(byClass[c]), "trace: %d %s requests sent, %d recorded by pdbd", len(client), className[c], len(byClass[c])) {
			continue
		}
		var transport []float64
		bad := 0
		for i, smp := range client {
			t := smp.fromSend() - byClass[c][i]
			if t < 0 {
				bad++
			}
			transport = append(transport, t)
		}
		r.check(bad == 0, "trace: %d %s server spans exceed the client latency", bad, className[c])
		if ep != "" {
			r.layerMetric("server."+ep+".transport_ms", quantile(transport, 0.5), "ms")
		}
	}

	d := func(series string) float64 { return delta(before, after, series) }
	h := func(name, sel string) histDelta { return histogramDelta(before, after, name, sel) }
	fh, fm := d(`pdbd_frozen_cache_events_total{event="hit"}`), d(`pdbd_frozen_cache_events_total{event="miss"}`)
	ph, pm := d(`pdbd_plan_cache_events_total{event="hit"}`), d(`pdbd_plan_cache_events_total{event="miss"}`)
	r.layerMetric("server.frozen_hit_ratio", ratio(fh, fh+fm), "ratio")
	r.layerMetric("server.prepare_frozen_ms", 1000*h("pdbd_prepare_seconds", `kind="frozen"`).mean(), "ms")
	r.layerMetric("server.plan_cache_hit_ratio", ratio(ph, ph+pm), "ratio")
	r.layerMetric("server.plan_cache_evictions", d(`pdbd_plan_cache_events_total{event="evict"}`), "count")
	r.layerMetric("server.prepare_view_ms", 1000*h("pdbd_prepare_seconds", `kind="view"`).mean(), "ms")
	r.layerMetric("server.eval_ms", 1000*h("pdbd_eval_seconds", "").mean(), "ms")
	r.layerMetric("server.ingest_batch_size", h("pdbd_ingest_batch_size", "").mean(), "count")

	commit := h("incr_commit_seconds", "")
	commits := d("incr_commits_total")
	nodes := d("incr_nodes_recomputed_total")
	r.layerMetric("incr.commit_p50_ms", 1000*commit.quantile(0.5), "ms")
	r.layerMetric("incr.commit_p99_ms", 1000*commit.quantile(0.99), "ms")
	r.layerMetric("incr.updates_per_commit", h("incr_commit_updates", "").mean(), "count")
	r.layerMetric("incr.nodes_per_commit", ratio(nodes, commits), "count")
	r.layerMetric("incr.rows_per_commit", ratio(d("incr_rows_recomputed_total"), commits), "count")
	r.layerMetric("incr.shortcircuit_frac", ratio(d("incr_spines_shortcircuited_total"), nodes), "ratio")
	r.layerMetric("incr.routed_attached", d(`incr_routed_total{outcome="attached"}`), "count")
	r.layerMetric("incr.routed_new_shard", d(`incr_routed_total{outcome="new_shard"}`), "count")
	r.layerMetric("incr.rebuilds", d(`incr_routed_total{outcome="rebuild"}`), "count")

	fsync := h("wal_fsync_seconds", "")
	r.layerMetric("wal.fsync_p50_ms", 1000*fsync.quantile(0.5), "ms")
	r.layerMetric("wal.fsync_p99_ms", 1000*fsync.quantile(0.99), "ms")
	r.layerMetric("wal.records_per_flush", h("wal_flush_records", "").mean(), "count")
	r.layerMetric("wal.snapshot_ms", 1000*h("wal_snapshot_seconds", "").mean(), "ms")
	if commits > 0 {
		// The part of an /update's apply stage outside the commit itself:
		// ingest queueing and waiting for the log to be durable.
		r.layerMetric("wal.wait_ms", quantile(stages["update.apply"], 0.5)-1000*commit.quantile(0.5), "ms")
	}

	r.layerMetric("loadgen.late_p50_ms", quantile(cs.late, 0.5), "ms")
	r.layerMetric("loadgen.late_p99_ms", quantile(cs.late, 0.99), "ms")
	r.layerMetric("loadgen.backlog_max", float64(cs.backlog), "count")
}
