package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// workload is one named input set of the benchmark. setup builds the cell
// list from the seed and computes every reference the cells compare against
// (fault-free baselines, sequential results), so no lazy work is left for
// the timed loop.
type workload struct {
	name     string
	why      string
	costName string // what virt_overhead_pct measures on this workload
	setup    func(seed uint64, hk hooks) (*plan, error)
}

// hooks are host-only observation points installed on every fault-free cell
// and on the storage probe. They cost no virtual time; the sensitivity test
// puts a fixed host delay in them to show the benchmark names the layer that
// got slower. The zero value installs nothing.
type hooks struct {
	onSend       func(src, dst int, m *mp.Message)
	storageFault func(op storage.Op, path string) error
}

// plan is a workload after setup: the cells one pass runs, in order, and the
// inputs the layer probes are sized from.
type plan struct {
	cells   []cell
	kernels []kernel   // the workload's sequential application kernels
	machine par.Config // the simulated machine, for the fabric probe
	hooks   hooks
}

// cell is one independent simulation. run executes it and returns its
// virtual outcome; tr is nil on untraced passes.
type cell struct {
	name string
	app  string
	ff   *ffSpec // the fault-free cell's spec; nil for oracle cells
	run  func(tr *tracer) (outcome, error)
}

// outcome is what a cell computed in virtual time. record is its canonical
// text form: every simulated statistic the cell produced, digested per pass.
type outcome struct {
	record  string
	exec    sim.Duration
	base    sim.Duration // fault-free, checkpoint-free exec of the cell's app; 0 for the reference cell itself
	oracle  bool         // a crash-recovery oracle cell
	crashed bool         // the oracle cell crashed and recovered
}

// kernel is one application's sequential reference computation at the size
// the workload simulates: the arithmetic every simulated run of that app
// also performs on the host.
type kernel struct {
	app string
	run func()
}

var workloads = []workload{
	{
		name:     "paper-8node",
		why:      "the paper's 8-node testbed and Table 3 schemes: host time is mostly application arithmetic, virtual cost is ckpt and storage",
		costName: "ckpt_overhead_pct",
		setup:    setupPaper,
	},
	{
		name:     "mesh64-msg",
		why:      "64-node mesh ring with tiny state: host time is goroutine handoff behind per-message fabric couriers and the coordinated marker flood",
		costName: "ckpt_overhead_pct",
		setup:    setupMesh,
	},
	{
		name:     "crash-recover",
		why:      "oracle crash cells: recovery reads images, replays delta chains, computes rdg recovery lines and runs the check auditor",
		costName: "crash_cost_pct",
		setup:    setupCrash,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive mixes the benchmark seed with a purpose key (splitmix64), so each
// input the seed controls gets its own independent stream.
func derive(seed, key uint64) uint64 {
	z := seed ^ (key * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit01 maps a derived seed onto [0,1).
func unit01(v uint64) float64 { return float64(v>>11) / float64(1<<53) }

// paperSchemes is Table 3's scheme set plus the CIC pair: every protocol
// family the simulator implements, in its paper configuration.
var paperSchemes = []ckpt.Variant{ckpt.CoordB, ckpt.CoordNBMS, ckpt.Indep, ckpt.IndepM, ckpt.CIC, ckpt.CICM}

// setupPaper builds paper-8node: the four pinned-v1 applications on the
// default machine, each run once without checkpointing and then under every
// scheme with 3 checkpoints at a quarter of its fault-free execution time.
// The seed draws the Ising and Gauss inputs, which leave the work per cell
// unchanged. SOR has no random input, and TSP keeps the pinned-v1 instance:
// its branch-and-bound work depends on the city layout, so a seeded layout
// would make host time a property of the seed rather than of the code.
func setupPaper(seed uint64, hk hooks) (*plan, error) {
	cfg := par.DefaultConfig()
	sor := apps.DefaultSOR(128, 60)
	ising := apps.DefaultIsing(256, 30)
	ising.Seed = derive(seed, 1)
	gauss := apps.DefaultGauss(128)
	gauss.Seed = derive(seed, 2)
	tsp := apps.TSPConfig{Cities: 12, Seed: 0x75b, OpsPerNode: 400}
	wls := []apps.Workload{
		apps.SORWorkload(sor), apps.IsingWorkload(ising),
		apps.GaussWorkload(gauss), apps.TSPWorkload(tsp),
	}
	p := &plan{
		machine: cfg,
		hooks:   hk,
		kernels: []kernel{
			{wls[0].Name, func() { apps.SequentialSOR(sor) }},
			{wls[1].Name, func() { apps.SequentialIsing(ising) }},
			{wls[2].Name, func() { apps.SequentialGauss(gauss) }},
			{wls[3].Name, func() { tspSearch(tsp) }},
		},
	}
	if err := p.addFaultFree(cfg, wls, paperSchemes, 3); err != nil {
		return nil, err
	}
	return p, nil
}

// tspSearch runs TSP's branch-and-bound search with a single worker, on a
// 2-node machine without checkpointing. TSP exports no sequential version of
// its search (HeldKarp reaches the same optimum by a different algorithm,
// with a fraction of the work), so this is the closest public call to the
// search arithmetic a simulated TSP cell performs: the work plus the few
// hundred task messages between master and worker.
func tspSearch(cfg apps.TSPConfig) {
	m := par.DefaultConfig()
	m.Fabric.MeshW, m.Fabric.MeshH = 2, 1
	if _, err := core.Run(apps.TSPWorkload(cfg), core.Config{Machine: m, SkipCheck: true}); err != nil {
		panic(fmt.Sprintf("tsp kernel: %v", err))
	}
}

// meshSchemes covers the coordinated marker flood (plain and with the
// three-phase commit) and both autonomous families.
var meshSchemes = []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBFT, ckpt.Indep, ckpt.CICM}

// setupMesh builds mesh64-msg: the E14 ring on an 8x8 mesh with storage
// striped over 4 servers and 4 KiB process images, run once without
// checkpointing and then under each scheme with 2 checkpoints at a third of
// its fault-free execution time. The seed draws the ring's per-iteration
// compute within +-2% of the E14 value.
func setupMesh(seed uint64, hk hooks) (*plan, error) {
	cfg := par.DefaultConfig()
	cfg.Fabric.Topo = nil
	cfg.Fabric.MeshW, cfg.Fabric.MeshH = 8, 8
	cfg.Fabric.HostAttaches = nil
	cfg.StorageServers = 4
	cfg.CkptImageBytes = 4096
	ops := 1e6 * (0.98 + 0.04*unit01(derive(seed, 4)))
	p := &plan{machine: cfg, hooks: hk}
	wl := bench.RingWorkloadN(64, 1024, 40, ops)
	if err := p.addFaultFree(cfg, []apps.Workload{wl}, meshSchemes, 2); err != nil {
		return nil, err
	}
	return p, nil
}

// addFaultFree runs each workload once without checkpointing (the reference
// cell, which also fills the workload's cached sequential result) and appends
// one cell per workload and scheme, with ckpts checkpoints spaced evenly over
// the reference execution time.
func (p *plan) addFaultFree(cfg par.Config, wls []apps.Workload, schemes []ckpt.Variant, ckpts int) error {
	for _, wl := range wls {
		ref := ffSpec{wl: wl, cfg: cfg}
		res, err := runFaultFree(ref, p.hooks, nil)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", wl.Name, err)
		}
		base := res.Exec
		p.cells = append(p.cells, p.ffCell(ref, 0))
		for _, v := range schemes {
			s := ffSpec{wl: wl, cfg: cfg, scheme: v, on: true, interval: base / sim.Duration(ckpts+1), ckpts: ckpts}
			p.cells = append(p.cells, p.ffCell(s, base))
		}
	}
	return nil
}

func (p *plan) ffCell(s ffSpec, base sim.Duration) cell {
	scheme := "none"
	if s.on {
		scheme = s.scheme.String()
	}
	hk := p.hooks
	return cell{
		name: s.wl.Name + "/" + scheme,
		app:  s.wl.Name,
		ff:   &s,
		run: func(tr *tracer) (outcome, error) {
			res, err := runFaultFree(s, hk, tr)
			if err != nil {
				return outcome{}, err
			}
			return outcome{record: fmt.Sprintf("%+v", res), exec: res.Exec, base: base}, nil
		},
	}
}

// setupCrash builds crash-recover: the oracle's QuickSweep lattice (two
// 8-node workloads x all 12 explorer schemes x 4 crash strata x 4 seeds)
// plus one FailoverSweep coordinator-kill cell per protocol window of
// Coord_NB_FT. Cell seeds are the lattice's identity seeds mixed with the
// benchmark seed, so the seed draws every crash instant. Setup fills the
// oracle's fault-free baselines and measures each workload's fault-free,
// checkpoint-free execution time.
func setupCrash(seed uint64, hk hooks) (*plan, error) {
	cfg := par.DefaultConfig()
	o := check.NewOracle(cfg)
	p := &plan{machine: cfg, hooks: hk}

	cells, specs := check.QuickSweep(cfg).Cells()
	fo := check.FailoverSweep(cfg)
	fo.Schemes = []ckpt.Variant{ckpt.CoordNBFT}
	fo.Seeds = 1
	fcells, fspecs := fo.Cells()
	cells = append(cells, fcells...)
	specs = append(specs, fspecs...)

	base := map[string]sim.Duration{}
	for i, c := range cells {
		spec := specs[i]
		spec.Seed = derive(seed, c.Seed())
		wl := spec.Workload
		if _, ok := base[wl.Name]; !ok {
			res, err := core.Run(wl, core.Config{Machine: cfg})
			if err != nil {
				return nil, fmt.Errorf("reference run of %s: %w", wl.Name, err)
			}
			base[wl.Name] = res.Exec
			// The first cell of each workload computes and caches the
			// oracle's baseline; running it here keeps that out of the
			// timed loop.
			if _, err := o.RunCell(spec); err != nil {
				return nil, fmt.Errorf("oracle baseline of %s: %w", wl.Name, err)
			}
		}
		p.cells = append(p.cells, oracleCell(o, c.Name(), spec, base[wl.Name]))
	}
	return p, nil
}

func oracleCell(o *check.Oracle, name string, spec check.CellSpec, base sim.Duration) cell {
	return cell{
		name: name,
		app:  spec.Workload.Name,
		run: func(tr *tracer) (outcome, error) {
			res, err := runOracle(o, spec, tr)
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				record:  fmt.Sprintf("%+v", res),
				exec:    res.Exec,
				base:    base,
				oracle:  true,
				crashed: res.Recovered,
			}, nil
		},
	}
}

// setupTimed runs setup at least reps times and until atLeast has passed,
// and returns the last plan with the median set-up duration: set-up is short
// enough that one sample is noisy.
func setupTimed(w workload, seed uint64, hk hooks, reps int, atLeast time.Duration) (*plan, time.Duration, error) {
	var p *plan
	var durs []float64
	start := time.Now()
	for len(durs) < reps || time.Since(start) < atLeast {
		t := time.Now()
		var err error
		p, err = w.setup(seed, hk)
		if err != nil {
			return nil, 0, err
		}
		durs = append(durs, float64(time.Since(t)))
	}
	return p, time.Duration(median(durs)), nil
}
