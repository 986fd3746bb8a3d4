// Command simdmark is the repository's benchmark of record: six workloads,
// nine end-to-end metrics measured with tracing off, and a separate traced
// pass that times every layer from outside.  See benchmark/README.md.
//
//	go run ./benchmark                         # all six workloads, one result file
//	go run ./benchmark -trace                  # ... plus the per-layer traced pass
//	go run ./benchmark -workload lb-storm      # one workload, in this process
//	go run ./benchmark -compare A.json B.json  # apply BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdmark:", err)
		os.Exit(1)
	}
}

// runConfig is what every workload run needs to know.
type runConfig struct {
	Seed    int64
	Scale   string // "full" or "short"
	Seconds int    // timed phase of one run at full scale
	Trace   bool
}

// inProc reports whether the service workloads are served from an
// in-process listener instead of a simdserve child process: the short
// scale is the smoke test's, which has no time to build a binary.
func (c runConfig) inProc() bool { return c.Scale == "short" }

// phase is the length of the timed phase.  The short scale is the smoke
// test's: engine ops take milliseconds there and a second of service
// traffic is thousands of jobs.
func (c runConfig) phase() time.Duration {
	if c.Scale == "short" {
		return time.Second / 2
	}
	return time.Duration(c.Seconds) * time.Second
}

// joinTraceOperand lets -trace stand alone (go run ./benchmark -trace) and
// also take the separate 0/1 operand the acceptance driver passes, which
// the flag package does not accept after a boolean flag.
func joinTraceOperand(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simdmark", flag.ContinueOnError)
	var (
		cfg      runConfig
		workload = fs.String("workload", "", "run this one workload in this process and end with the one-line JSON result (default: all six, each in a child process)")
		out      = fs.String("out", "", "result file for a run of all workloads (default benchmark/out/result.json)")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
		writeExp = fs.Bool("write-expected", false, "regenerate benchmark/expected.json at the default seed and exit")
	)
	fs.Int64Var(&cfg.Seed, "seed", defaultSeed, "workload seed: every tree and job spec is derived from it")
	fs.IntVar(&cfg.Seconds, "seconds", 10, "length of each workload's timed phase")
	fs.BoolVar(&cfg.Trace, "trace", false, "run the traced per-layer pass (with -workload: only that pass)")
	fs.StringVar(&cfg.Scale, "scale", "full", "full, or short (W/100, in-process server: the smoke test's scale)")
	if err := fs.Parse(joinTraceOperand(args)); err != nil {
		return err
	}
	if cfg.Scale != "full" && cfg.Scale != "short" {
		return fmt.Errorf("unknown -scale %q", cfg.Scale)
	}
	if cfg.Seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", cfg.Seconds)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *writeExp:
		return writeExpected(ctx, root)
	case *workload != "":
		return runOne(ctx, root, *workload, cfg, stdout)
	}
	if *out == "" {
		*out = filepath.Join(root, "benchmark", "out", "result.json")
	}
	return runAll(ctx, root, cfg, *out, stdout)
}

// metricValue is one measured number.  N is the sample count behind it
// and stays out of the acceptance driver's one-line result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is the outcome of one pass of one workload.  Its JSON form is
// the one-line result the acceptance contract fixes.
type result struct {
	Workload  string                 `json:"-"`
	Trace     bool                   `json:"-"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	notes     []string
}

func newResult(workload string, trace bool, attempted, failed int) *result {
	return &result{
		Workload: workload, Trace: trace,
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{},
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("simdmark: metric " + name + " is not in the registry")
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

// complete fills every registry metric of the pass the workload did not
// report with 0, so the result always names the whole list.
func (r *result) complete() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, 0)
		}
	}
}

// notePrefix starts a note line of the report; runChild reads the notes
// back from it for the result file.
const notePrefix = "  note: "

// print writes the human-readable report: every metric by name, with its
// unit and the number of samples behind it.
func (r *result) print(w io.Writer, env envBlock) {
	pass := "end-to-end (tracing off)"
	if r.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  pass: %s\n", r.Workload, pass)
	fmt.Fprintf(w, "  env: commit=%s %s nproc=%d GOMAXPROCS=%d cpu=%q spill=%s(%s) seed=%d scale=%s seconds=%d\n",
		env.Commit, env.GoVersion, env.NProc, env.GOMAXPROCS, env.CPUModel, env.SpillDir, env.SpillFS, env.Seed, env.Scale, env.Seconds)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	wd, _ := findWorkload(r.Workload)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		if m.N == 0 {
			continue // a layer this workload never enters
		}
		standIn := ""
		if d.On != "" && d.On != wd.kind() {
			standIn = "  stand-in: quote it on the " + d.On + " workloads"
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-6s (n=%d)%s\n", d.Name, m.Value, m.Unit, m.N, standIn)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s%s\n", notePrefix, n)
	}
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(ctx context.Context, root, name string, cfg runConfig) (*result, error) {
	wd, i := findWorkload(name)
	if wd == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].Name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	stream := uint64(i)
	var res *result
	var err error
	switch {
	case wd.engine != nil && cfg.Trace:
		res, err = traceEngine(ctx, root, stream, wd, cfg)
	case wd.engine != nil:
		res, err = runEngine(ctx, root, stream, wd, cfg)
	case cfg.Trace:
		res, err = traceService(ctx, root, stream, wd, cfg)
	default:
		res, err = runService(ctx, root, stream, wd, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.complete()
	return res, nil
}

// runOne is -workload: one pass, the report, and the one-line JSON result
// as the last line of standard output.
func runOne(ctx context.Context, root, name string, cfg runConfig, stdout io.Writer) error {
	res, err := runWorkload(ctx, root, name, cfg)
	if err != nil {
		return err
	}
	res.print(stdout, newEnv(root, cfg))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// resultFile is what a run of all workloads stores, and what -compare
// reads.  The environment block comes first.
type resultFile struct {
	Env       envBlock                 `json:"env"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// workloadRuns holds the passes of one workload.  Notes are the notes of
// the end-to-end report: which oracle checked the outputs, the host speed
// index and the raw value of every metric reported at reference speed.
type workloadRuns struct {
	EndToEnd *result  `json:"end_to_end"`
	Notes    []string `json:"notes,omitempty"`
	PerLayer *result  `json:"per_layer,omitempty"`
}

// runAll runs every workload in a fresh child process of this binary, so
// peak RSS, GC state and CPU time are per workload, and writes the result
// file.
func runAll(ctx context.Context, root string, cfg runConfig, outPath string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: newEnv(root, cfg), Workloads: map[string]*workloadRuns{}}
	var failed []string
	for i := range workloads {
		name := workloads[i].Name
		runs := &workloadRuns{}
		file.Workloads[name] = runs
		passes := []bool{false}
		if cfg.Trace {
			passes = append(passes, true)
		}
		for _, trace := range passes {
			res, err := runChild(ctx, self, root, name, cfg, trace, stdout)
			if err != nil {
				return err
			}
			if trace {
				runs.PerLayer = res
			} else {
				runs.EndToEnd, runs.Notes = res, res.notes
			}
			if !res.Correct {
				failed = append(failed, name)
			}
		}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("incorrect outputs on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runChild runs one pass in a child process, forwards its report, and
// parses the one-line result that ends it.
func runChild(ctx context.Context, self, root, name string, cfg runConfig, trace bool, stdout io.Writer) (*result, error) {
	args := []string{
		"-workload", name,
		"-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds),
		"-scale", cfg.Scale,
		fmt.Sprintf("-trace=%v", trace),
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace=%v): %w", name, trace, err)
	}
	report := strings.TrimRight(string(outBytes), "\n")
	i := strings.LastIndexByte(report, '\n')
	fmt.Fprintln(stdout, report[:i+1])
	res := &result{Workload: name, Trace: trace}
	if err := json.Unmarshal([]byte(report[i+1:]), res); err != nil {
		return nil, fmt.Errorf("%s (trace=%v): result line: %w", name, trace, err)
	}
	for _, line := range strings.Split(report[:i+1], "\n") {
		if note, ok := strings.CutPrefix(line, notePrefix); ok {
			res.notes = append(res.notes, note)
		}
	}
	return res, nil
}
