package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// steadiness runs the workload n times, each in a fresh process with its
// own seed, and prints every metric's median, quartiles, interquartile
// spread as a share of the median, and max/min spread: the figures the
// benchmark's bounds are set from.
func steadiness(w workload, seed int64, seconds, trace, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]metric)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		fmt.Fprintf(stdout, "seed %d: attempted %d, failed %d\n", s, res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tiqr/median\tmax/min-1\t")
	for _, k := range sortedKeys(units) {
		v := values[k]
		q1, q2, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		ratio := 0.0
		if lo != 0 {
			ratio = hi/lo - 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%.3f\t\n", k, units[k].Unit, q2, q1, q3, spread, ratio)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// lastResult parses the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}
