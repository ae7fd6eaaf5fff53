// Command layerbench is this repository's benchmark. It drives three
// workloads through each layer's public entry points — HTTP over
// loopback to a real lserved, and Sampler/CSPSampler.SampleNFrom in
// process — checks every output, and prints the end-to-end metrics (or,
// traced, the per-layer metrics) as one JSON line:
//
//	layerbench -lserved .bench_build/lserved --workload serve-open --seed 1 --seconds 30 --trace 0
//
// run.sh builds lserved and this binary from the checkout and runs it;
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	lserved  string
	out      string
}

// phaseResult is what one measured pass over a workload produces. A
// run is one untraced pass, or, traced, an untraced and a traced pass;
// each pass runs in a child process so that its peak RSS is its own.
type phaseResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers"`
}

// fail counts one failed operation and keeps the first few reasons.
func (p *phaseResult) fail(format string, args ...any) {
	p.Failed++
	if len(p.Failures) < 8 {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	run func(cfg config, tr *tracer) (*phaseResult, error)
	// inProcess workloads report the benchmark's own peak RSS; serve-open
	// reports lserved's.
	inProcess bool
}

var workloads = map[string]workload{
	"serve-open":    {run: runServeOpen},
	"batch-soa":     {run: batchSoA.run, inProcess: true},
	"chain-sharded": {run: chainSharded.run, inProcess: true},
}

// phaseBudget bounds one pass; a pass that overruns it is killed and
// the run fails.
const phaseBudget = 85 * time.Second

func main() {
	var (
		cfg   config
		trace int
		phase string
	)
	flag.StringVar(&cfg.workload, "workload", "", "serve-open | batch-soa | chain-sharded")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed replays the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time per pass")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and tracing overhead instead of end-to-end metrics")
	flag.StringVar(&cfg.lserved, "lserved", ".bench_build/lserved", "lserved binary built from the checkout under test")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for server logs and span files")
	flag.StringVar(&phase, "phase", "", "run one pass in this process (untraced | traced) and print its raw result")
	flag.Parse()

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("need -workload serve-open|batch-soa|chain-sharded, -seconds > 0, -trace 0|1"))
	}
	if phase != "" {
		cfg.traced = phase == "traced"
		if err := runPhase(w, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(w, cfg, trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layerbench:", err)
	os.Exit(1)
}

// runPhase measures one pass in this process and prints its result as
// the last stdout line, for the parent to read.
func runPhase(w workload, cfg config) error {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	res, err := w.run(cfg, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.writeChrome(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runPass runs one pass as a child process and returns its result,
// with peak_rss_mb filled in from the child's rusage for in-process
// workloads.
func runPass(w workload, cfg config, traced bool) (*phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	phase := "untraced"
	if traced {
		phase = "traced"
	}
	cmd := exec.Command(exe, "-phase", phase, "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-lserved", cfg.lserved, "-out", cfg.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The pass's own children (lserved) die with it if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(phaseBudget, func() { _ = cmd.Process.Kill() })
	err = cmd.Wait()
	timer.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", phase, err)
	}
	var res phaseResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s pass printed no result: %w", phase, err)
	}
	if w.inProcess {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no rusage for the pass process")
		}
		res.E2E["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return &res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(w workload, cfg config, traced bool) error {
	fmt.Printf("host: %s\n", hostClass())
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, traced)
	base, err := runPass(w, cfg, false)
	if err != nil {
		return err
	}
	passes := []*phaseResult{base}
	values := map[string]float64{}
	list := endToEnd
	if !traced {
		values = base.E2E
	} else {
		tp, err := runPass(w, cfg, true)
		if err != nil {
			return err
		}
		passes = append(passes, tp)
		for k, v := range tp.Layers {
			values[k] = v
		}
		for _, m := range endToEnd {
			values[overheadPrefix+m.name] = tp.E2E[m.name] - base.E2E[m.name]
		}
		list = traceMetrics()
	}
	rep := report{Metrics: map[string]metricValue{}}
	for _, p := range passes {
		rep.Attempted += p.Attempted
		rep.Failed += p.Failed
		for _, f := range p.Failures {
			fmt.Printf("FAILED: %s\n", f)
		}
	}
	rep.Correct = rep.Failed == 0
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, m.name)
		}
		fmt.Printf("%-36s %14.6g %s\n", m.name, v, m.unit)
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	fmt.Printf("attempted %d failed %d\n", rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostClass names the machine a report was taken on.
func hostClass() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version())
}
