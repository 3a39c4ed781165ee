// benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark result, so CI can archive
// performance trajectories (see `make bench`, which emits the
// BENCH_*.json files).
//
// Input lines look like:
//
//	BenchmarkQueryCache/cold-8  20  3512345 ns/op  19200 allocs/op
//
// Everything that is not a benchmark result line is ignored.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func parseLine(line string) (result, bool) {
	f := strings.Fields(strings.TrimSpace(line))
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[f[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return result{}, false
	}
	return r, true
}

func main() {
	results := []result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
