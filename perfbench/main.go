// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per process against the public mir API (region,
// preprocess) or a cmd/mird daemon over HTTP (standing), checks every
// output, and prints its metrics; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also times calls into the engine's internal layers from this package and
// reports the per-layer metrics plus the tracing overhead. Inputs come from
// -seed; -seconds sizes the fixed operation list, so two runs with the same
// arguments do identical work. -workload all runs every workload, each in
// its own child process. See README.md for the workloads and metrics, and
// run.sh for building and running from the repository root:
//
//	bash perfbench/run.sh --workload region --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// config holds the command-line arguments shared by every workload.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	mird     string // path of the mird binary (standing)
	out      string // directory for scratch files and span dumps
}

var workloads = map[string]func(config) (*result, error){
	"region":     runRegion,
	"preprocess": runPreprocess,
	"standing":   runStanding,
}

var workloadOrder = []string{"region", "preprocess", "standing"}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "region, preprocess, standing, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds; sizes the fixed operation list")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.mird, "mird", "", "mird binary (standing workload)")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for scratch files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "all" {
		return runAll(args)
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.print(cfg)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process with the same
// arguments and reports failure if any child failed.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(self, append(args, "-workload", w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// metric is one reported figure with its sample count; Label names the
// percentile of a tail metric.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Label string
}

// result is one workload run's outcome. endToEnd metrics go into the JSON
// line of an untraced run and perLayer ones into that of a traced run;
// every workload reports the same two sets. reportOnly metrics, which only
// some workloads measure or which are too noisy to gate, are printed but
// carried by neither.
type result struct {
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric
	reportOnly        []metric
	notes             [][2]string // extra report lines: key, value
	spans             *tracer
}

func (r *result) e2e(name, unit string, v float64, n int) {
	r.endToEnd = append(r.endToEnd, metric{Name: name, Value: v, Unit: unit, N: n})
}

// tailMetric applies the tail rule to xs, scaling the value into unit.
func tailMetric(name, unit string, xs []float64, scale float64) metric {
	t, _ := tailOf(xs)
	return metric{Name: name, Value: t.Value * scale, Unit: unit, N: t.N, Label: t.Label()}
}

func (r *result) layer(name, unit string, v float64, n int) {
	r.perLayer = append(r.perLayer, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *result) extra(name, unit string, v float64, n int) {
	r.reportOnly = append(r.reportOnly, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *result) note(key, format string, args ...any) {
	r.notes = append(r.notes, [2]string{key, fmt.Sprintf(format, args...)})
}

// check counts one checked output, and a failure when ok is false.
func (r *result) check(ok bool) bool {
	r.attempted++
	if !ok {
		r.failed++
	}
	return ok
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the report: environment and notes as "# " lines, every
// metric with its unit and sample count, the span summary of a traced run,
// and finally the JSON result line.
func (r *result) print(cfg config) {
	fmt.Printf("# workload: %s\n# seed: %d\n# seconds: %d\n# trace: %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# go_version: %s\n# nproc: %d\n# gomaxprocs: %d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range r.notes {
		fmt.Printf("# %s: %s\n", n[0], n[1])
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("metric %-32s %14.6g %-9s n=%d\n", "fail_share", share, "ratio", r.attempted)
	printMetrics := func(ms []metric, suffix string) {
		for _, m := range ms {
			label := ""
			if m.Label != "" {
				label = " (" + m.Label + ")"
			}
			fmt.Printf("metric %-32s %14.6g %-9s n=%d%s%s\n", m.Name, m.Value, m.Unit, m.N, label, suffix)
		}
	}
	printMetrics(r.endToEnd, "")
	printMetrics(r.reportOnly, " report-only")
	printMetrics(r.perLayer, "")
	if r.spans != nil {
		printLayerTable(r.spans.closed())
	}
	out := r.endToEnd
	if cfg.trace {
		out = r.perLayer
	}
	jr := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range out {
		jr.Metrics[m.Name] = jsonMetric{Value: finite(m.Value), Unit: m.Unit}
	}
	line, _ := json.Marshal(jr) // a map of finite floats and strings always marshals
	fmt.Println(string(line))
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0; they arise only
// from ratios over an empty sample.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMiB returns the peak resident set size in MiB of the process
// with the given /proc entry ("self" or a pid), from its VmHWM.
func peakRSSMiB(proc string) (float64, error) {
	b, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS returns this process's memory to the OS and restarts its
// VmHWM from the current resident set, so the next peakRSSMiB("self")
// reports the peak of what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// subSeed derives an independent stream seed from the workload seed and
// a path of indices (splitmix64 mixing).
func subSeed(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}
