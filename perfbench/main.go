// Command perfbench is the NetTrails benchmark. It drives the paper's
// Figure-2 MinCost program on unit-cost grids through three seeded
// workloads and prints one JSON result line:
//
//	flap        12x12 grid in one process, closed-loop link flaps,
//	            in-memory snapshot publisher (eval, epochs, publish)
//	serve       6x6 grid as 3 durable shard replicas behind the query
//	            gateway over loopback HTTP: 2 closed-loop readers pinned
//	            to the converged version plus an open-loop flap writer
//	flap-dist2  the flap script as a 2-member engine cluster over
//	            loopback TCP (the distributed engine's speedup question)
//
// Every layer runs at its defaults; the benchmark only times calls into
// public functions from outside. Usage:
//
//	perfbench --workload flap --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the run alternates one-second untraced and traced
// blocks, reports per-layer metrics from the traced blocks, the tracing
// overhead as traced-minus-untraced end-to-end values, and writes its
// spans under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config sizes one run. Defaults are the committed benchmark; the smoke
// test shrinks them.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Out      string  `json:"-"`

	FlapSide   int     `json:"flap_side"`        // flap and flap-dist2 grid side
	ServeSide  int     `json:"serve_side"`       // serve grid side
	Checkpoint int     `json:"dist_checkpoint"`  // flap-dist2 digest-parity update index
	Setups     int     `json:"setups_per_run"`   // set-ups timed per run (median reported)
	TraceBlock float64 `json:"trace_block_secs"` // traced-run alternation period
}

func defaultConfig() config {
	return config{
		Seed:       1,
		Seconds:    30,
		Out:        filepath.Join(".bench_build", "perfbench"),
		FlapSide:   12,
		ServeSide:  6,
		Checkpoint: 40,
		Setups:     3,
		TraceBlock: 1,
	}
}

// Fixed workload parameters; each run records them in info.extra.
const (
	serveShards   = 3   // serve shard replicas
	serveReaders  = 2   // serve closed-loop readers
	serveWriterHz = 4   // serve open-loop updates per second
	serveZipfS    = 1.1 // reader target skew
	distMembers   = 2   // flap-dist2 cluster size
	heapAtUpdate  = 100 // flap updates before the retained heap is read
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is everything a result needs to be reproduced and compared:
// machine, toolchain, source, and the generated workload's parameters.
// It is printed on the line before the result and written beside the
// spans.
type runInfo struct {
	Config     config `json:"config"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// ValidationSeed is reserved for confirming a performance claim on
	// inputs not used while the change was developed.
	ValidationSeed int64              `json:"validation_seed"`
	Extra          map[string]float64 `json:"extra,omitempty"`
	Notes          []string           `json:"notes,omitempty"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	extra             map[string]float64
	notes             []string
}

var workloads = map[string]func(config) (*outcome, error){
	"flap":       runFlap,
	"flap-dist2": runFlapDist,
	"serve":      runServe,
}

// validationSeed is the seed reserved for confirming a performance
// claim on inputs not used while the change was developed.
const validationSeed = 7919

func main() {
	cfg := defaultConfig()
	traceFlag := 0
	flag.StringVar(&cfg.Workload, "workload", "", "flap, serve or flap-dist2")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed (inputs are generated from it)")
	flag.Float64Var(&cfg.Seconds, "seconds", cfg.Seconds, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.StringVar(&cfg.Out, "out", cfg.Out, "directory for spans and run records")
	commit := flag.String("commit", "unknown", "source revision recorded in the run record")
	flag.Parse()
	cfg.Trace = traceFlag != 0

	run, ok := workloads[cfg.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want flap, serve or flap-dist2)\n", cfg.Workload)
		os.Exit(2)
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, info, err := execute(cfg, run, *commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, info, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	infoLine, _ := json.Marshal(map[string]interface{}{"info": info})
	fmt.Println(string(infoLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result and run record.
func execute(cfg config, run func(config) (*outcome, error), commit string) (*result, *runInfo, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, nil, err
	}
	oc, err := run(cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   oc.metrics,
	}
	if res.Attempted < 1 {
		return nil, nil, fmt.Errorf("no operations attempted")
	}
	info := &runInfo{
		Config:         cfg,
		CPUs:           runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Commit:         commit,
		ValidationSeed: validationSeed,
		Extra:          oc.extra,
		Notes:          oc.notes,
	}
	if info.Extra == nil {
		info.Extra = map[string]float64{}
	}
	info.Extra["fail_ratio"] = float64(oc.failed) / float64(oc.attempted)
	return res, info, nil
}

// writeRecord keeps the run record (info plus result) under cfg.Out.
func writeRecord(cfg config, info *runInfo, res *result) error {
	b, err := json.MarshalIndent(map[string]interface{}{"info": info, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if cfg.Trace {
		mode = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", cfg.Workload, cfg.Seed, mode,
		strings.ReplaceAll(time.Now().UTC().Format("20060102T150405.000"), ".", ""))
	return os.WriteFile(filepath.Join(cfg.Out, name), append(b, '\n'), 0o644)
}
