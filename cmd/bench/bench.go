// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the serving system would see, and — in a
// separate traced pass — every layer timed from outside. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the
// repository root is the driver's contract.
//
//	go run -C cmd/bench . --workload rmc1-prod --seed 1 --seconds 20 --trace 0
//	go run -C cmd/bench .                      # all four workloads, untraced
//	go run -C cmd/bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// metricDef names one metric. Bound is the share by which an end-to-end
// metric may worsen and still count as unchanged; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadNames lists the workloads in running order.
var workloadNames = []string{"rmc1-prod", "rmc3-prod", "ncf-small-wire", "tune-sim"}

// smokeBudget is the measuring time of a -smoke run: every phase is a share
// of it, so none lasts longer than 0.3 s.
const smokeBudget = 300 * time.Millisecond

// noisyPct is the calibration drift or window spread beyond which a run is
// marked noisy (still reported, still exit 0).
const noisyPct = 10

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report collects everything one workload run measured.
type report struct {
	workload          string
	vals              map[string]value
	notes             []string
	broken            []string // violated identities; any makes the run incorrect
	attempted, failed int
	tracer            *tracer
}

func (r *report) set(name string, v float64, n int) { r.vals[name] = value{v, n} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env records where a result was taken.
type env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Backend    string `json:"backend"`
}

func readEnv() env {
	e := env{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Backend: tensor.ActiveBackend().String()}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuJiffies reads the machine-wide CPU time counters: all of it, and the
// part the hypervisor gave to someone else while this guest wanted to run.
func cpuJiffies() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, _ := strconv.ParseFloat(f, 64) // the "cpu" label reads 0
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// runWorkload runs one workload between two calibration readings.
func runWorkload(name string, w int, seed int64, budget time.Duration, traced bool) (*report, error) {
	out := &report{workload: name, vals: make(map[string]value)}
	total0, steal0 := cpuJiffies()
	before := calibScalarGFLOPS()
	var err error
	if name == "tune-sim" {
		err = runTune(w, seed, budget, traced, out)
	} else {
		for _, spec := range servingSpecs {
			if spec.name == name {
				err = runServing(spec, w, seed, budget, traced, out)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	after := calibScalarGFLOPS()
	out.set("tensor.calib_scalar_gflops", (before+after)/2, 2)
	out.set("bench.calib_drift_pct", math.Abs(after-before)/before*100, 2)
	out.set("peak_rss_mb", peakRSSMB(), 1)
	if total1, steal1 := cpuJiffies(); total1 > total0 {
		out.set("bench.steal_pct", (steal1-steal0)/(total1-total0)*100, int(total1-total0))
	}
	return out, nil
}

// noisy reports whether the host moved under the run.
func (r *report) noisy() bool {
	return r.vals["bench.calib_drift_pct"].v > noisyPct || r.vals["bench.window_spread_pct"].v > noisyPct
}

func (r *report) correct() bool { return r.failed == 0 && len(r.broken) == 0 }

// print writes the human-readable table: every metric measured, by name,
// with unit, direction, bound and sample count.
func (r *report) print(traced bool) {
	fmt.Printf("== %s (%s pass)\n", r.workload, map[bool]string{false: "untraced", true: "traced"}[traced])
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := r.vals[d.Name]
			if !ok {
				continue
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf(" bound %.2f", d.Bound)
			}
			fmt.Printf("  %-36s %14.4f %-8s %s better%s n=%d\n", d.Name, v.v, d.Unit, d.Better, bound, v.n)
		}
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, b := range r.broken {
		fmt.Println("  BROKEN:", b)
	}
	if r.noisy() {
		fmt.Println("  noisy: calibration drift or window spread above", noisyPct, "percent")
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", r.attempted, r.failed, r.correct())
}

// record is one run in the result file -compare reads.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Env       env                     `json:"env"`
	Noisy     bool                    `json:"noisy"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]recordMetric `json:"metrics"`
	Broken    []string                `json:"broken,omitempty"`
}

type recordMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// contractLine is the driver's result: exactly the end-to-end metrics of
// an untraced run, or exactly the per-layer metrics of a traced one. A
// per-layer metric the workload does not exercise reads 0.
func (r *report) contractLine(traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]recordMetric, len(defs))
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok && !traced {
			return "", fmt.Errorf("bench: %s did not measure %s", r.workload, d.Name)
		}
		metrics[d.Name] = recordMetric{Value: v.v, Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	return string(line), err
}

// appendRecord adds the run, with every metric it measured, to the result
// file.
func (r *report) appendRecord(path string, e env, seed int64, budget time.Duration, traced bool) error {
	units := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			units[d.Name] = d.Unit
		}
	}
	rec := record{
		Workload: r.workload, Seed: seed, Seconds: budget.Seconds(), Trace: traced, Env: e,
		Noisy: r.noisy(), Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]recordMetric), Broken: r.broken,
	}
	for name, v := range r.vals {
		rec.Metrics[name] = recordMetric{Value: v.v, Unit: units[name], N: v.n}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated query streams")
	seconds := flag.Float64("seconds", 20, "seconds of measurement per workload")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every phase for at most 0.3 s; numbers are not meaningful")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	pins := flag.Bool("pins", false, "print the tune-sim sweep to pin in tune.go and exit")
	outDir := flag.String("out", "bench-out", "directory for the result file and the span files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *pins {
		printPins()
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Sprintf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *smoke {
		budget = smokeBudget
		smokeMode = true
	}
	// Load is sized to the host: W lanes, W senders, W closed-loop clients.
	w := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(w)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	e := readEnv()
	fmt.Printf("bench: commit %s, %s, nproc %d, GOMAXPROCS %d, %s, backend %s, seed %d, %.1f s\n",
		e.Commit, e.Go, e.NumCPU, e.GOMAXPROCS, e.CPU, e.Backend, *seed, budget.Seconds())

	traced := *trace == 1
	ok := true
	for _, name := range names {
		rep, err := runWorkload(name, w, *seed, budget, traced)
		if err != nil {
			fatal(name+":", err)
		}
		rep.print(traced)
		if rep.tracer != nil {
			if err := rep.tracer.write(filepath.Join(*outDir, "spans-"+name+".json")); err != nil {
				fatal(err)
			}
		}
		if err := rep.appendRecord(filepath.Join(*outDir, "results.json"), e, *seed, budget, traced); err != nil {
			fatal(err)
		}
		line, err := rep.contractLine(traced)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		ok = ok && rep.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// fatal reports a run that could not be completed.
func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"bench:"}, args...)...)
	os.Exit(1)
}
