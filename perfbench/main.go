// Command perfbench is the repository's end-to-end benchmark: it drives
// the λFS metadata service through the client path (rpc.Client → faas →
// core.Engine → ndb/coordinator) on the virtual clock, checks every
// response and the final store against its own model, and prints the
// end-to-end metrics (--trace 0) or the per-layer breakdown (--trace 1)
// as one JSON object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runLimitS bounds a whole invocation: a stalled simulation ends the run
// as failed instead of hanging.
const runLimitS = 170

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: spotify_warm, write_fanout or burst_cold")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds the measured phase lasts")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer breakdown from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	stopWatchdog := afterHost(runLimitS, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %d s; the simulation stalled\n", w.name, runLimitS)
		os.Exit(3)
	})
	defer stopWatchdog()

	var out summary
	var table []string
	if *traced == 0 {
		res, err := runOnce(w, *seed, *seconds, false, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		out = summarize(res, endToEnd(res))
		table = endToEndTable(w.name, res, out.Metrics)
	} else {
		// The per-layer numbers come from a traced run; an untraced run of
		// the same length on a fresh cluster gives the tracing overhead.
		plain, err := runOnce(w, *seed, *seconds/2, false, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res, err := runOnce(w, *seed, *seconds/2, true, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		out = summarize(res, perLayer(res, plain))
		out.Correct = out.Correct && plain.nProblems == 0
		out.Attempted += plain.attempted
		out.Failed += plain.failed
		table = perLayerTable(w.name, out.Metrics)
	}
	for _, p := range out.problemLines {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	for _, l := range table {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(out.output)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type summary struct {
	output
	problemLines []string
}

func summarize(res *runResult, m map[string]metric) summary {
	return summary{
		output: output{
			Correct:   res.nProblems == 0,
			Attempted: res.attempted,
			Failed:    res.failed,
			Metrics:   m,
		},
		problemLines: res.problems,
	}
}

func endToEndTable(name string, res *runResult, m map[string]metric) []string {
	lines := []string{fmt.Sprintf("%s: %d ops attempted, %d failed, %.1f host s, %.3f virtual s, %d latency samples",
		name, res.attempted, res.failed, res.hostS, res.virtS, len(res.latUS))}
	return append(lines, metricLines(m)...)
}

func metricLines(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var lines []string
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("  %-28s %14.4f %s", n, m[n].Value, m[n].Unit))
	}
	return lines
}

func perLayerTable(name string, m map[string]metric) []string {
	lines := []string{fmt.Sprintf("%s: per-layer breakdown (traced run)", name),
		fmt.Sprintf("  %-28s %14s %-10s %s", "metric", "value", "unit", "moves")}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("  %-28s %14.4f %-10s %s", n, m[n].Value, m[n].Unit,
			strings.Join(layerMoves[n], ", ")))
	}
	return lines
}
