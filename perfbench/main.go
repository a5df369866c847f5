// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the one-shot engine (in process) or against a pdbd
// process built from cmd/pdbd (over loopback HTTP), checks every answer it
// can against a reference that shares no code with the automaton, and
// prints its metrics. See README.md for the workloads and the metrics.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced run instead. Every line before it is for people: the host
// fingerprint, every metric under its descriptive name with its unit and
// sample count, and the load generator's report.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	root, bin, work string
	seed            int64
	seconds         time.Duration
	trace           bool
	rng             *rand.Rand

	e2e, layer map[string]metric
	ref        hostRef // the reference computation's samples over the run
	attempted  int
	failed     int
	problems   []string // failed correctness checks, reported before the result
}

func main() {
	workload := flag.String("workload", "", "oneshot | serve-read | serve-write")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	bin := flag.String("bin", ".bench_build", "directory holding the built pdbd")
	flag.Parse()
	// One P here and one in pdbd (see startPdbd): together the benchmark and
	// the server run no more threads of Go code at once than the host's two
	// vCPUs. oneshot's engine answers on one goroutine anyway.
	runtime.GOMAXPROCS(1)

	r := &run{
		root: *root, bin: *bin, seed: *seed, trace: *trace == 1,
		seconds: time.Duration(*seconds * float64(time.Second)),
		rng:     rand.New(rand.NewSource(*seed)),
		e2e:     map[string]metric{}, layer: map[string]metric{},
	}
	work, err := os.MkdirTemp(*bin, "run-")
	if err != nil {
		fatal(err)
	}
	r.work = work
	err = r.exec(*workload)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.trace {
		res.Metrics = r.layer
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func (r *run) exec(workload string) error {
	fmt.Printf("host %s\n", r.fingerprint(workload))
	floor50, floor99 := timerFloor()
	fmt.Printf("loadgen timer floor: p50 %.3f ms, p99 %.3f ms (late wake-up of a 1 ms sleep)\n", floor50, floor99)
	r.layerMetric("loadgen.timer_floor_ms", floor50, "ms")
	var err error
	switch workload {
	case "oneshot":
		err = r.oneshot()
	case "serve-read":
		err = r.serveRead()
	case "serve-write":
		err = r.serveWrite()
	default:
		return fmt.Errorf("unknown --workload %q (oneshot | serve-read | serve-write)", workload)
	}
	if err != nil {
		return err
	}
	fmt.Printf("reference computation: median %.4f ms of CPU time over %d runs (nominal %.1f ms)\n",
		r.ref.ms(), len(r.ref.samples), refNominalMS)
	if r.attempted == 0 {
		return fmt.Errorf("workload %s attempted no operation", workload)
	}
	fmt.Printf("failed_frac %.6f ratio (%d of %d ops failed, were refused or answered wrongly)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return nil
}

// check records a failed correctness check.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// endToEnd records one end-to-end metric under its benchmark slot (none
// when slot is empty: printed, not gated) and prints it under its
// descriptive name.
func (r *run) endToEnd(slot, name string, v float64, unit, note string) {
	if slot != "" && !r.trace {
		r.e2e[slot] = metric{v, unit}
	}
	label := slot
	if label == "" {
		label = "printed only"
	}
	if note != "" {
		label += ", " + note
	}
	fmt.Printf("%-20s %12.4f %-5s (%s)\n", name, v, unit, label)
}

// latency prints the median and the q-quantile of one request class's wall
// latencies. They are not gated: on a shared 2-vCPU host their run-to-run
// spread exceeds any bound the gate allows (see README.md).
func (r *run) latency(name string, xs []float64, q float64) {
	n := len(xs)
	pct := fmt.Sprintf("p%d", int(q*100+0.5))
	r.endToEnd("", name+"_p50_ms", quantile(xs, 0.5), "ms", fmt.Sprintf("n=%d", n))
	r.endToEnd("", name+"_"+pct+"_ms", quantile(xs, q), "ms", fmt.Sprintf("n=%d, %d beyond", n, beyond(n, q)))
	if n == 0 || beyond(n, q) < 10 {
		fmt.Printf("note: %s %s rests on %d samples beyond it (want >= 10)\n", name, pct, beyond(n, q))
	}
}

// cost records a gated cost adjusted to the reference computation's
// nominal speed (see hostref.go), and prints the measured figure and the
// reference beside it.
func (r *run) cost(slot, name string, measured float64, unit string, ref *hostRef, note string) {
	r.endToEnd(slot, name, ref.adjust(measured), unit,
		fmt.Sprintf("%s; measured %.4g %s, reference %.3f ms", note, measured, unit, ref.ms()))
}

func (r *run) layerMetric(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
	if r.trace {
		fmt.Printf("  %-34s %12.4f %s\n", name, v, unit)
	}
}

// fingerprint identifies the host, toolchain and code a result came from;
// results with different fingerprints (seed aside) must never be merged.
func (r *run) fingerprint(workload string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	amd64 := "unset"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				amd64 = s.Value
			}
		}
	}
	fp := map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "goamd64": amd64, "go": runtime.Version(),
		"commit": r.commit(), "source": r.sourceDigest(), "workload": workload, "seed": r.seed,
		"seconds": r.seconds.Seconds(), "trace": r.trace,
	}
	b, _ := json.Marshal(fp) // a map of plain values always encodes
	return string(b)
}

// commit is the checkout's git commit, or "none" outside a repository.
func (r *run) commit() string {
	out, err := exec.Command("git", "-C", r.root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest names the code under test, committed or not: a digest of
// every Go source and module file outside hidden directories.
func (r *run) sourceDigest() string {
	var files []string
	filepath.WalkDir(r.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != r.root {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(r.root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
