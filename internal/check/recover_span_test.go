package check

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

// TestRecoverSpanCoversRecovery pins the oracle's check.recover span to the
// recovery it names: it opens when recovery starts and closes when every
// rank has been relaunched — not when the recovery process is merely
// spawned. Recovery is the only phase of a cell that reads stable
// storage, so every storage read after the span opens must fall inside it;
// for the coordinated family the span must also close exactly when the
// protocol's own recover.total span does. Arming the observer must not
// change the cell's outcome.
func TestRecoverSpanCoversRecovery(t *testing.T) {
	scfg := QuickSweep(par.DefaultConfig())
	o := NewOracle(scfg.Cfg)
	for _, name := range []string{
		"RING-256B-i40/Coord_NBM#5", // nothing committed: reads the meta record only
		"ASYNC-256/Coord_NB#11",     // restores round 1
		"ASYNC-256/Indep#10",        // restores line [2 1 1 1 1 1 1 1]
		"ASYNC-256/CIC#10",          // restores line [2 2 2 2 1 1 1 1]
	} {
		c, spec, err := scfg.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := o.RunCell(spec)
		if err != nil {
			t.Fatalf("%s (seed %#x): %v", c.Name(), c.Seed(), err)
		}
		spec.Obs = obs.New()
		armed, err := o.RunCell(spec)
		if err != nil {
			t.Fatalf("%s (seed %#x) armed: %v", c.Name(), c.Seed(), err)
		}
		if !reflect.DeepEqual(plain, armed) {
			t.Errorf("%s: armed observer changed the cell outcome:\nplain %+v\narmed %+v", name, plain, armed)
		}
		if !armed.Recovered {
			t.Fatalf("%s: cell did not crash and recover", name)
		}

		var rec, total []obs.SpanEvent
		for _, sp := range spec.Obs.Spans() {
			switch sp.Name {
			case "check.recover":
				rec = append(rec, sp)
			case "recover.total":
				total = append(total, sp)
			}
		}
		if len(rec) != 1 {
			t.Fatalf("%s: %d check.recover spans, want 1", name, len(rec))
		}
		r := rec[0]
		if r.Duration() <= 0 {
			t.Errorf("%s: check.recover spans %v..%v, want a positive recovery interval", name, r.Start, r.End)
		}
		reads := 0
		for _, sp := range spec.Obs.Spans() {
			if sp.Name != "storage.read" || sp.Start < r.Start {
				continue
			}
			reads++
			if sp.End > r.End {
				t.Errorf("%s: recovery read %v..%v ends after check.recover %v..%v", name, sp.Start, sp.End, r.Start, r.End)
			}
		}
		if reads == 0 {
			t.Errorf("%s: no storage read inside check.recover %v..%v", name, r.Start, r.End)
		}
		if spec.Scheme.Coordinated() {
			if len(total) != 1 {
				t.Fatalf("%s: %d recover.total spans, want 1", name, len(total))
			}
			if tt := total[0]; r.Start > tt.Start || r.End != tt.End {
				t.Errorf("%s: check.recover %v..%v does not close with recover.total %v..%v", name, r.Start, r.End, tt.Start, tt.End)
			}
		}
	}
}
