// Command perfbench is the repository's session benchmark: the paper's unit
// of work — one negotiation (steps 1–5) and the user's reject inside the
// choice period — measured end to end over the binary wire, and layer by
// layer in a separate traced run.
//
// One process builds the negotiation system, serves it with
// protocol.Server on loopback and drives it with two closed-loop callers,
// each on its own protocol.Client connection. Every answer is checked
// against the benchmark's own computation of the paper's Section 5 rule or,
// on the loaded workload, against the substrate's invariants.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload hot-reject --seed 1 --seconds 16 --trace 0
//	bash perfbench/run.sh --workload hold-mesh --seed 1 --seconds 16 --trace 1
//	bash perfbench/run.sh --workload cold-catalog --seed 1 --seconds 16 --repeat 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the run's
// report, stamped with the host shape and the seed. A run with a failed
// check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: the run's stamp and the figures
// that explain the metrics.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	FirstError string         `json:"first_error,omitempty"`
	Details    map[string]any `json:"details"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hot-reject, cold-catalog or hold-mesh")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same catalog and request streams")
	seconds := fs.Int("seconds", 16, "length of the measured phase")
	trace := fs.Int("trace", 0, "0 runs the end-to-end measurement, 1 the traced per-layer run")
	repeat := fs.Int("repeat", 0, "steadiness mode: run the workload this many times in fresh processes, with seeds seed, seed+1, ..., and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *repeat > 0 {
		return steadiness(w, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}

	rep := report{
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Details:    make(map[string]any),
	}
	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, time.Duration(*seconds)*time.Second, &rep)
	} else {
		res, err = traced(w, *seed, time.Duration(*seconds)*time.Second, &rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Attempted, rep.Failed = res.Attempted, res.Failed
	res.Correct = res.Failed == 0
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed: %s\n", res.Failed, res.Attempted, rep.FirstError)
		return 1
	}
	return 0
}
