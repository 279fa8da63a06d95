package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"
)

// An untraced run sets its workload up at least setupReps times and for at
// least setupTime in all; setup_s is the median. A workload whose set-up is
// short gets more samples, so its median is as steady as a long one's.
const (
	setupReps = 5
	setupTime = time.Second
)

// passResult is one closed-loop pass over a plan's cells.
type passResult struct {
	wall    time.Duration
	walls   []time.Duration
	outs    []outcome
	errs    []error
	records []string
}

// runPass runs every cell once, one at a time. A failing cell is recorded
// and the pass goes on.
func runPass(p *plan, tr *tracer) passResult {
	r := passResult{
		walls:   make([]time.Duration, len(p.cells)),
		outs:    make([]outcome, len(p.cells)),
		errs:    make([]error, len(p.cells)),
		records: make([]string, len(p.cells)),
	}
	start := time.Now()
	for i, c := range p.cells {
		rows := 0
		if tr != nil {
			tr.cell++
			rows = len(tr.rows)
		}
		end := tr.span("cell")
		t := time.Now()
		out, err := c.run(tr)
		r.walls[i] = time.Since(t)
		end()
		if tr != nil && len(tr.rows) > rows {
			tr.rows[len(tr.rows)-1].wall = r.walls[i]
		}
		r.outs[i], r.errs[i] = out, err
		if err != nil {
			r.records[i] = "error: " + err.Error()
		} else {
			r.records[i] = out.record
		}
	}
	r.wall = time.Since(start)
	return r
}

// verifier counts cells and failures across passes. A cell fails when its
// own verification fails (Workload.Check, or the oracle's invariants) or when
// its virtual outcome differs from the first pass's: the simulator is
// deterministic, so any difference is a defect.
type verifier struct {
	names     []string
	first     []string
	attempted int
	failed    int
	errw      io.Writer
}

func (v *verifier) add(r passResult) {
	if v.first == nil {
		v.first = r.records
	}
	for i, err := range r.errs {
		v.attempted++
		switch {
		case err != nil:
			v.failed++
			fmt.Fprintf(v.errw, "perfbench: cell %s failed: %v\n", v.names[i], err)
		case r.records[i] != v.first[i]:
			v.failed++
			fmt.Fprintf(v.errw, "perfbench: cell %s: virtual outcome differs from the first pass\n", v.names[i])
		}
	}
}

// digest hashes a pass's virtual outcomes, cell by cell.
func digest(names, records []string) string {
	h := sha256.New()
	for i, rec := range records {
		fmt.Fprintf(h, "%s\n%s\n", names[i], rec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// virtualCost returns the median, over the pass's priced cells, of the
// virtual slowdown against the fault-free, checkpoint-free run of the same
// application, in percent: checkpoint overhead for fault-free cells, crash
// cost for crashed oracle cells.
func virtualCost(r passResult) float64 {
	var v []float64
	for i, o := range r.outs {
		if r.errs[i] == nil && o.priced() {
			v = append(v, 100*float64(o.exec-o.base)/float64(o.base))
		}
	}
	return median(v)
}

// priced reports whether the outcome's virtual cost counts toward the
// virtual overhead: a checkpointed fault-free cell, or an oracle cell that
// actually crashed.
func (o outcome) priced() bool { return o.base > 0 && (o.crashed || !o.oracle) }

// report is one run's result line plus the human-readable lines before it.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metricValue
	lines     []string
}

type metricValue struct {
	name  string
	unit  string
	value float64
}

// runUntraced is the end-to-end measurement: median set-up time, then
// closed-loop passes over the cells until the time is up, with tracing off.
func runUntraced(w workload, seed uint64, seconds float64, hk hooks, errw io.Writer) (report, error) {
	p, setup, err := setupTimed(w, seed, hk, setupReps, setupTime)
	if err != nil {
		return report{}, err
	}
	v := verifier{names: cellNames(p), errw: errw}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	first := runPass(p, nil)
	v.add(first)
	walls := newWallTable(len(p.cells))
	walls.add(first)
	for passes := 1; another(start, passes, seconds); passes++ {
		r := runPass(p, nil)
		v.add(r)
		walls.add(r)
	}
	loop := time.Since(start)
	runtime.ReadMemStats(&ms1)

	cells := float64(walls.n)
	cost := virtualCost(first)
	rep := report{
		correct:   v.failed == 0,
		attempted: v.attempted,
		failed:    v.failed,
		metrics: []metricValue{
			{"cells_per_s", "cells/s", cells / loop.Seconds()},
			{"cell_wall_p50_ms", "ms", walls.p50()},
			{"cell_wall_p90_ms", "ms", walls.p90()},
			{"setup_s", "s", setup.Seconds()},
			{"peak_rss_mb", "MiB", peakRSSMiB()},
			{"alloc_mb_per_cell", "MiB", float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib / cells},
			{"virt_overhead_pct", "%", cost},
		},
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("workload %s seed %d: %d cells per pass, %d passes, %.0f cells in %.2fs",
			w.name, seed, len(p.cells), int(cells)/len(p.cells), cells, loop.Seconds()))
	rep.lines = append(rep.lines, v.lines(w, first)...)
	return rep, nil
}

// another reports whether one more of the passes run since start fits in
// the time: it does while the run, with half a pass more, stays within it.
// Whole passes then end as near the time as they can, rather than up to a
// pass past it.
func another(start time.Time, passes int, seconds float64) bool {
	el := time.Since(start).Seconds()
	return el+el/float64(passes)/2 < seconds
}

// wallTable keeps every cell's host wall times, in ms, across passes.
type wallTable struct {
	byCell [][]float64
	all    []float64
	n      int
}

func newWallTable(cells int) *wallTable { return &wallTable{byCell: make([][]float64, cells)} }

func (t *wallTable) add(r passResult) {
	for i, d := range r.walls {
		ms := float64(d) / 1e6
		t.byCell[i] = append(t.byCell[i], ms)
		t.all = append(t.all, ms)
		t.n++
	}
}

// p50 is the median over cells of each cell's median wall time, as a
// Harrell–Davis estimate (see hdQuantile): each cell's own median over passes
// is steadier than its single samples, and the cells form one cluster per
// application with the median near a gap between two.
func (t *wallTable) p50() float64 {
	meds := make([]float64, len(t.byCell))
	for i, w := range t.byCell {
		meds[i] = median(w)
	}
	return hdQuantile(meds, 0.5)
}

// p90 is the Harrell–Davis 90th percentile of all cell wall times: with at
// least 100 cells run, at least ten lie beyond it.
func (t *wallTable) p90() float64 { return hdQuantile(t.all, 0.90) }

// lines prints the cell error rate, the workload's virtual end-to-end metric
// under the name it has for that workload, and the digest of every virtual
// output of the first pass.
func (v *verifier) lines(w workload, first passResult) []string {
	return []string{
		fmt.Sprintf("cell_error_rate %.4g ratio (%d failed of %d attempted)",
			float64(v.failed)/float64(v.attempted), v.failed, v.attempted),
		fmt.Sprintf("%s %.6g %% (median over %d priced cells)", w.costName, virtualCost(first), pricedCells(first)),
		fmt.Sprintf("digest %s", digest(v.names, first.records)),
	}
}

func pricedCells(r passResult) int {
	n := 0
	for i, o := range r.outs {
		if r.errs[i] == nil && o.priced() {
			n++
		}
	}
	return n
}

func cellNames(p *plan) []string {
	names := make([]string, len(p.cells))
	for i, c := range p.cells {
		names[i] = c.name
	}
	return names
}
