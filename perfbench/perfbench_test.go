package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/storage"
)

// The self-tests of the benchmark. They run outside the repository's tier-1
// suite (this directory is its own module): `cd perfbench && go test`.

const testSeed = 7

// The hand-assembled fault-free cell must be core.Run, call for call: same
// core.Result traced or not.
func TestFaultFreeCellMatchesCoreRun(t *testing.T) {
	for _, name := range []string{"paper-8node", "mesh64-msg"} {
		w, _ := workloadByName(name)
		p, err := w.setup(testSeed, hooks{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range p.cells {
			if name == "paper-8node" && i%3 != 0 {
				continue // a third of the cells covers every app and scheme family
			}
			s := c.ff
			cfg := core.Config{Machine: s.cfg}
			if s.on {
				cfg = cfg.WithScheme(s.scheme, s.interval, s.ckpts)
			}
			want, err := core.Run(s.wl, cfg)
			if err != nil {
				t.Fatalf("%s: core.Run: %v", c.name, err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				got, err := runFaultFree(*s, hooks{}, tr)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (traced %v): result differs from core.Run:\n got %+v\nwant %+v", c.name, tr != nil, got, want)
				}
			}
		}
	}
}

// subsetPlan keeps every stride-th cell, so the crash-recover lattice stays
// quick to test while every scheme and stratum still appears.
func subsetPlan(p *plan, stride int) *plan {
	q := *p
	q.cells = nil
	for i := 0; i < len(p.cells); i += stride {
		q.cells = append(q.cells, p.cells[i])
	}
	return &q
}

// Two set-ups from the same seed run identical virtual outputs, and a traced
// pass is byte-identical in virtual outputs to an untraced one.
func TestVirtualOutputsRepeatAndTracingIsInvisible(t *testing.T) {
	for _, w := range workloads {
		stride := 1
		if w.name == "crash-recover" {
			stride = 7
		}
		p1, err := w.setup(testSeed, hooks{})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := w.setup(testSeed, hooks{})
		if err != nil {
			t.Fatal(err)
		}
		p1, p2 = subsetPlan(p1, stride), subsetPlan(p2, stride)
		a, b, c := runPass(p1, nil), runPass(p2, nil), runPass(p2, newTracer())
		for i := range a.records {
			if a.errs[i] != nil {
				t.Fatalf("%s: cell %s: %v", w.name, p1.cells[i].name, a.errs[i])
			}
			if a.records[i] != b.records[i] {
				t.Errorf("%s: cell %s differs between two set-ups of one seed", w.name, p1.cells[i].name)
			}
			if a.records[i] != c.records[i] {
				t.Errorf("%s: cell %s differs between traced and untraced passes", w.name, p1.cells[i].name)
			}
		}
		if virtualCost(a) != virtualCost(c) {
			t.Errorf("%s: virtual cost %v untraced, %v traced", w.name, virtualCost(a), virtualCost(c))
		}
	}
}

// A seed never used while the benchmark was built still passes every check,
// on every workload, in both modes.
func TestHeldOutSeedPasses(t *testing.T) {
	const heldOut = 0x5eed_0ff_cafe
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var rep report
			var err error
			if trace {
				rep, err = runTraced(w, heldOut, 0.01, hooks{}, "", io.Discard)
			} else {
				rep, err = runUntraced(w, heldOut, 0.01, hooks{}, io.Discard)
			}
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v failed=%d attempted=%d", w.name, trace, rep.correct, rep.failed, rep.attempted)
			}
		}
	}
}

func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

func metricOf(t *testing.T, rep report, name string) float64 {
	t.Helper()
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

// digestLine is the report's digest of every virtual output.
func digestLine(rep report) string {
	for _, l := range rep.lines {
		if strings.HasPrefix(l, "digest ") {
			return l
		}
	}
	return ""
}

// A fixed host-only delay in one layer's public observation hook must move
// that layer's metric and cells_per_s on the workload that uses the layer,
// leave every virtual output identical, and leave another layer's metric
// where it was: the benchmark names the layer that got slower.
func TestSensitivityNamesTheSlowLayer(t *testing.T) {
	mesh, _ := workloadByName("mesh64-msg")
	paper, _ := workloadByName("paper-8node")
	const secs = 1.5
	slowSend := hooks{onSend: func(int, int, *mp.Message) { spin(20 * time.Microsecond) }}
	slowStore := hooks{storageFault: func(storage.Op, string) error { spin(time.Millisecond); return nil }}

	run := func(w workload, hk hooks) (e2e, layers report) {
		var err error
		if e2e, err = runUntraced(w, testSeed, secs, hk, io.Discard); err != nil {
			t.Fatal(err)
		}
		if layers, err = runTraced(w, testSeed, secs, hk, "", io.Discard); err != nil {
			t.Fatal(err)
		}
		return e2e, layers
	}
	same := func(what string, a, b float64) {
		t.Logf("%s: %.4g -> %.4g", what, a, b)
		if b < a/1.5 || b > a*1.5 {
			t.Errorf("%s moved from %.4g to %.4g", what, a, b)
		}
	}
	slower := func(what string, a, b, factor float64) {
		t.Logf("%s: %.4g -> %.4g", what, a, b)
		if b < a*factor {
			t.Errorf("%s moved from %.4g to %.4g, want at least x%.2f", what, a, b, factor)
		}
	}

	// mp.World.OnSend on mesh64-msg: the event loop (sim) gets slower.
	meshE, meshL := run(mesh, hooks{})
	sendE, sendL := run(mesh, slowSend)
	slower("mesh64-msg sim.host_ns_per_event under a slow OnSend",
		metricOf(t, meshL, "sim.host_ns_per_event"), metricOf(t, sendL, "sim.host_ns_per_event"), 1.3)
	slower("mesh64-msg cell time under a slow OnSend",
		1/metricOf(t, meshE, "cells_per_s"), 1/metricOf(t, sendE, "cells_per_s"), 1.3)
	same("storage.host_ns_per_mb under a slow OnSend",
		metricOf(t, meshL, "storage.host_ns_per_mb"), metricOf(t, sendL, "storage.host_ns_per_mb"))
	if digestLine(meshE) != digestLine(sendE) || metricOf(t, meshE, "virt_overhead_pct") != metricOf(t, sendE, "virt_overhead_pct") {
		t.Errorf("a host-only OnSend delay changed mesh64-msg's virtual outputs")
	}

	// storage.Server.FaultHook returning nil: the storage probe and the
	// checkpoint writes of paper-8node get slower; fabric does not.
	paperE, paperL := run(paper, hooks{})
	storeE, storeL := run(paper, slowStore)
	slower("storage.host_ns_per_mb under a slow FaultHook",
		metricOf(t, paperL, "storage.host_ns_per_mb"), metricOf(t, storeL, "storage.host_ns_per_mb"), 2)
	slower("paper-8node cell time under a slow FaultHook",
		1/metricOf(t, paperE, "cells_per_s"), 1/metricOf(t, storeE, "cells_per_s"), 1.2)
	same("fabric.host_ns_per_msg under a slow FaultHook",
		metricOf(t, paperL, "fabric.host_ns_per_msg"), metricOf(t, storeL, "fabric.host_ns_per_msg"))
	if digestLine(paperE) != digestLine(storeE) || metricOf(t, paperE, "virt_overhead_pct") != metricOf(t, storeE, "virt_overhead_pct") {
		t.Errorf("a host-only FaultHook delay changed paper-8node's virtual outputs")
	}
}

// The Harrell–Davis estimator is a weighted mean of the order statistics: it
// returns a constant sample's value, the centre of a symmetric sample, and
// rises with q.
func TestHarrellDavis(t *testing.T) {
	if got := hdQuantile([]float64{4, 4, 4, 4, 4}, 0.9); got < 4-1e-9 || got > 4+1e-9 {
		t.Errorf("constant sample: got %v, want 4", got)
	}
	var v []float64
	for i := 1; i <= 801; i++ {
		v = append(v, float64(i))
	}
	if got := hdQuantile(v, 0.5); got < 401-1e-6 || got > 401+1e-6 {
		t.Errorf("1..801: median %v, want 401", got)
	}
	if p90 := hdQuantile(v, 0.9); p90 < 715 || p90 > 728 {
		t.Errorf("1..801: p90 %v, want about 721", p90)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if wl, ok := workloadByName(w.Name); !ok || wl.why != w.Why {
			t.Errorf("workload %s: not in the program, or its reason differs", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(names), len(workloads))
	}
	mesh, _ := workloadByName("mesh64-msg")
	e2e, err := runUntraced(mesh, testSeed, 0.01, hooks{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := runTraced(mesh, testSeed, 0.01, hooks{}, "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []struct{ Name, Unit string }, rep report) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, m := range rep.metrics {
			got[m.name] = m.unit
		}
		if !reflect.DeepEqual(got, want) {
			var g, w []string
			for k, u := range got {
				g = append(g, k+" "+u)
			}
			for k, u := range want {
				w = append(w, k+" "+u)
			}
			sort.Strings(g)
			sort.Strings(w)
			t.Errorf("%s metrics differ:\nprogram   %v\nBENCHMARK %v", what, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layers)
}
