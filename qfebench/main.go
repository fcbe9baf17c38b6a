// Command qfebench is the repository benchmark: it launches the real
// qfe-server and qfe-router binaries, drives a fixed, seeded list of QFE
// sessions through them with two closed-loop clients, checks every output,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
//
//	bash qfebench/run.sh --workload interactive --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one workload run reports.
type result struct {
	e2e      []metric // the BENCHMARK.json end-to-end set, every workload
	report   []metric // the workload's full end-to-end table (human block)
	layers   []metric // per-layer metrics (traced runs)
	t        tally
	notes    []string
	findings []string // engine defects the checks report without failing the run
	errs     []string // output-check violations and operation errors
	flags    map[string][]string
}

func (r *result) add(name string, v float64, unit string) {
	r.report = append(r.report, metric{name, v, unit})
}

func (r *result) layer(name string, v float64, unit string) {
	r.layers = append(r.layers, metric{name, v, unit})
}

func (r *result) finding(format string, args ...any) {
	r.findings = append(r.findings, fmt.Sprintf(format, args...))
}

func (r *result) violation(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// env is one benchmark invocation's configuration.
type env struct {
	bin     string // directory holding qfe-server and qfe-router
	work    string // this run's working directory (relative to the checkout)
	seed    int64
	seconds int
	setups  int // set-ups per run; setup_s is their median
	size    sizes
}

// sizes is the fixed work of a run. Every run of a workload executes
// exactly this work, in the same order with the same answers, so each
// percentile is taken over the same operations run to run; --seconds sizes
// it at this host's nominal rates.
type sizes struct {
	sessions, warmup int // interactive
	passes           int // shared-large
	estate, restarts int // recovery
}

// Nominal rates on a 2-CPU host.
const (
	interactivePerSecond = 90 // generated-scenario sessions
	sharedPassSeconds    = 4  // one pass of the nine study queries
	secondsPerRestart    = 2  // one restart over the recovery estate
)

// sizeFor sizes a run's work from --seconds; smoke gives the seconds-long
// configuration TestSmoke runs to check the benchmark itself.
func sizeFor(seconds int, smoke bool) sizes {
	if smoke {
		return sizes{sessions: 24, warmup: 4, passes: 1, estate: 24, restarts: 2}
	}
	return sizes{
		sessions: seconds * interactivePerSecond,
		warmup:   60,
		passes:   (seconds + sharedPassSeconds - 1) / sharedPassSeconds,
		estate:   360,
		restarts: (seconds + secondsPerRestart - 1) / secondsPerRestart,
	}
}

// setupsPerRun is how often a run sets its workload up; setup_s is the
// median. shared-large's set-up is short (about 0.8 s) and spread 36% of
// its median over ten runs with three set-ups, so it takes five.
var setupsPerRun = map[string]int{"interactive": 3, "shared-large": 5, "recovery": 3}

var workloads = map[string]func(*env, bool) (*result, error){
	"interactive": load{name: "interactive", workers: 2, routed: true, tail: 0.99, gateTail: 0.99,
		inputs: interactiveInputs}.run,
	"shared-large": load{name: "shared", workers: 1, tail: 0.90, gateTail: 0.75,
		inputs: sharedInputs}.run,
	"recovery": runRecovery,
}

func main() {
	var (
		workload = flag.String("workload", "", "interactive, shared-large or recovery")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "nominal measured time; sizes the fixed work list")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory with the qfe-server and qfe-router binaries")
		work     = flag.String("work", ".bench_build", "directory for WAL, snapshots and estates")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: qfebench --workload interactive|shared-large|recovery --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(relPath(*work), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfebench:", err)
		os.Exit(1)
	}
	e := &env{bin: *bin, work: dir, seed: *seed, seconds: *seconds, setups: setupsPerRun[*workload],
		size: sizeFor(*seconds, false)}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	res, err := measure(e, run, *trace == 1)
	killAll()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfebench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, e, *workload, res, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "qfebench:", err)
		os.Exit(1)
	}
	if len(res.errs) > 0 {
		os.Exit(1)
	}
}

// report prints the host block, the workload's full metric table, notes
// and violations, and last the one-line JSON result: the end-to-end
// metrics, or the per-layer ones for a traced run.
func report(w io.Writer, e *env, workload string, res *result, traced bool) error {
	printHost(w, e, workload, res)
	for _, m := range res.report {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note", n)
	}
	for _, f := range res.findings {
		fmt.Fprintln(w, "finding", f)
	}
	for _, v := range res.errs {
		fmt.Fprintln(w, "violation", v)
	}
	out := res.e2e
	if traced {
		out = res.layers
		for _, m := range out {
			fmt.Fprintf(w, "layer %-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: len(res.errs) == 0, Attempted: res.t.attempted, Failed: res.t.failed(),
		Metrics: map[string]mv{}}
	for _, m := range out {
		line.Metrics[m.name] = mv{m.value, m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// measure runs a workload. A traced run first repeats it untraced, so the
// tracing overhead is measured on the same inputs in the same invocation.
func measure(e *env, run func(*env, bool) (*result, error), traced bool) (*result, error) {
	if !traced {
		return run(e, false)
	}
	e.setups = 1
	plain, err := run(e, false)
	if err != nil {
		return nil, err
	}
	res, err := run(e, true)
	if err != nil {
		return nil, err
	}
	p50 := func(r *result) float64 {
		for _, m := range r.e2e {
			if m.name == "op_p50_ms" {
				return m.value
			}
		}
		return 0
	}
	res.layer("trace.overhead_ratio", ratio(p50(res), p50(plain))-1, "ratio")
	res.errs = append(plain.errs, res.errs...)
	res.findings = append(plain.findings, res.findings...)
	res.t.add(plain.t)
	return res, nil
}

// relPath makes p relative to the working directory when it lies below it,
// so server flags and the host block name no absolute path.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}

// printHost prints the host block: a number names the host it was
// measured on.
func printHost(w io.Writer, e *env, workload string, res *result) {
	fmt.Fprintf(w, "host.cpu %s\n", cpuModel())
	fmt.Fprintf(w, "host.nproc %d\n", runtime.NumCPU())
	fmt.Fprintf(w, "host.go %s\n", runtime.Version())
	fmt.Fprintf(w, "host.wal_fs %s\n", fsType(e.work))
	fmt.Fprintf(w, "host.wal_sync always\n")
	fmt.Fprintf(w, "host.clients 2 closed-loop, one connection each, zero think time\n")
	fmt.Fprintf(w, "host.workload %s seed=%d seconds=%d\n", workload, e.seed, e.seconds)
	names := make([]string, 0, len(res.flags))
	for n := range res.flags {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "host.flags.%s %s\n", n, strings.Join(res.flags[n], " "))
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType is the type of the filesystem holding dir, from the longest
// matching mount point in /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// mix derives independent sub-seeds (splitmix64 finaliser).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
