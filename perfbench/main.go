// Command perfbench is the repository's benchmark. It runs one workload — a
// fixed list of independent simulation cells, one at a time, in a closed
// loop — for a given number of seconds, checks every cell's output, and
// prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.py, which
// builds this program first):
//
//	perfbench --workload paper-8node --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics of a traced run. See
// perfbench/README.md for the workloads, the metrics and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	// One P: the simulator's goroutine handoffs are cheaper and steadier on a
	// single P than on two, and the cells run one at a time anyway.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	name := fs.String("workload", "", "workload: paper-8node, mesh64-msg or crash-recover")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds (whole passes over the cells)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the host spans as a Chrome trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	var rep report
	var err error
	switch *trace {
	case 0:
		rep, err = runUntraced(w, *seed, *seconds, hooks{}, errw)
	case 1:
		rep, err = runTraced(w, *seed, *seconds, hooks{}, *traceOut, errw)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		return err
	}
	return writeReport(out, rep)
}

// writeReport prints the human-readable lines, one line per metric, and the
// JSON result as the last line.
func writeReport(out io.Writer, rep report) error {
	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	names := make([]string, 0, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.name] = value{m.value, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
