package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
)

// ffSpec is one fault-free cell: a workload on a machine, optionally under a
// checkpointing scheme.
type ffSpec struct {
	wl       apps.Workload
	cfg      par.Config
	scheme   ckpt.Variant
	on       bool // checkpointing on; scheme is ignored otherwise
	interval sim.Duration
	ckpts    int
}

// runFaultFree runs one fault-free cell through the same public calls, in the
// same order, as core.Run, so a traced pass can record a host span around
// each layer's entry point. Untraced (tr == nil) it adds nothing to what
// core.Run does.
func runFaultFree(s ffSpec, hk hooks, tr *tracer) (core.Result, error) {
	var o *obs.Observer
	var coll *perf.Collector
	if tr != nil {
		o = obs.New()
		coll = perf.NewCollector()
	}
	ps := coll.Begin(s.wl.Name, "none")
	end := tr.span("par.NewMachine")
	m := par.NewMachine(s.cfg)
	m.SetObserver(o)
	end()
	defer m.Shutdown() // on error paths; Shutdown is idempotent
	if hk.storageFault != nil {
		for _, st := range m.Stores {
			st.FaultHook = hk.storageFault
		}
	}
	var sch ckpt.Scheme
	if s.on {
		end = tr.span("ckpt.attach")
		opt := ckpt.Options{Interval: s.interval, MaxCheckpoints: s.ckpts}
		if s.scheme.Failover() {
			opt.Failover = ckpt.DefaultFailoverConfig()
		}
		sch = ckpt.New(s.scheme, opt)
		o.SetScheme(sch.Name())
		ps.SetScheme(sch.Name())
		sch.Attach(m)
		end()
	}
	end = tr.span("mp.launch")
	w := mp.NewWorld(m)
	w.OnSend = hk.onSend
	progs := make([]mp.Program, m.NumNodes())
	for rank := range progs {
		progs[rank] = s.wl.Make(rank, m.NumNodes())
		w.Launch(rank, progs[rank])
	}
	end()
	ps.EndSetup()
	end = tr.span("sim.run")
	err := m.Run()
	end()
	if err != nil {
		return core.Result{}, fmt.Errorf("%s: %w", s.wl.Name, err)
	}
	m.CollectPerf(ps)
	ps.EndSim()
	if s.wl.Check != nil {
		end = tr.span("apps.check")
		err := s.wl.Check(progs)
		end()
		if err != nil {
			return core.Result{}, fmt.Errorf("%s: result verification failed: %w", s.wl.Name, err)
		}
	}
	ps.EndCheck()
	res := collectResult(s.wl, s.interval, m, sch)
	end = tr.span("par.shutdown")
	m.Shutdown()
	end()
	ps.Finish()
	if tr != nil {
		row := faultFreeRow(res, o, coll.Samples()[0])
		row.retransmits = w.Retransmits()
		tr.add(row)
	}
	return res, nil
}

// collectResult reads a finished machine into a core.Result exactly as
// core.Run does.
func collectResult(wl apps.Workload, interval sim.Duration, m *par.Machine, sch ckpt.Scheme) core.Result {
	res := core.Result{
		Workload:       wl.Name,
		Scheme:         "none",
		Interval:       interval,
		Exec:           sim.Duration(m.AppsFinished),
		StorageServers: m.NumStores(),
	}
	res.HostLinkBusy = m.Net.HostLinkStats().Busy
	for i, s := range m.Stores {
		res.StoragePeak += s.PeakOccupied()
		res.FilesAtEnd += s.NumFiles()
		_, _, _, busy := s.Stats()
		res.DiskBusy += busy
		if busy > res.MaxDiskBusy {
			res.MaxDiskBusy = busy
		}
		if lb := m.Net.HostLinkStatsOf(i).Busy; lb > res.MaxHostLinkBusy {
			res.MaxHostLinkBusy = lb
		}
	}
	res.NetMsgs, res.NetBytes = m.Net.TotalTraffic()
	if sch != nil {
		res.Scheme = sch.Name()
		res.Ckpt = sch.Stats()
		res.Records = sch.Records()
	}
	return res
}

// runOracle runs one crash-recovery oracle cell; traced, it spans RunCell and
// arms an observer and a host collector through the cell spec.
func runOracle(o *check.Oracle, spec check.CellSpec, tr *tracer) (check.CellResult, error) {
	var coll *perf.Collector
	if tr != nil {
		spec.Obs = obs.New()
		coll = perf.NewCollector()
		spec.Perf = coll
	}
	end := tr.span("check.RunCell")
	res, err := o.RunCell(spec)
	end()
	if err != nil {
		return res, err
	}
	if tr != nil {
		tr.add(oracleRow(res, spec.Obs, coll.Samples()[0]))
	}
	return res, nil
}

// span is one host-time interval the traced run recorded around a call into
// a layer, relative to the tracer's start.
type span struct {
	name       string
	cell       int // index of the cell in the traced run; -1 for probes
	start, end time.Duration
}

// tracer keeps the traced run's spans and per-cell layer rows in memory; the
// run writes them out when it ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	cell  int
	spans []span
	rows  []layerRow
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cell: -1} }

func noop() {}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	start := time.Since(t.t0)
	cell := t.cell
	return func() {
		t.spans = append(t.spans, span{name: name, cell: cell, start: start, end: time.Since(t.t0)})
	}
}

// spanTotal sums the durations of the named spans of one cell.
func (t *tracer) spanTotal(cell int, name string) time.Duration {
	var d time.Duration
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].cell == cell; i-- {
		if t.spans[i].name == name {
			d += t.spans[i].end - t.spans[i].start
		}
	}
	return d
}

func (t *tracer) add(r layerRow) {
	r.par = t.spanTotal(t.cell, "par.NewMachine") + t.spanTotal(t.cell, "ckpt.attach") +
		t.spanTotal(t.cell, "mp.launch")
	r.shutdown = t.spanTotal(t.cell, "par.shutdown")
	r.check = t.spanTotal(t.cell, "apps.check")
	r.run = t.spanTotal(t.cell, "sim.run")
	if r.oracle {
		r.cellHost = t.spanTotal(t.cell, "check.RunCell")
		r.par, r.shutdown, r.run = r.sample.Setup, r.sample.Shutdown, r.sample.Sim
	}
	t.rows = append(t.rows, r)
}

// layerRow is everything the traced run learned about one cell, layer by
// layer. Host durations come from the benchmark's own spans or the perf
// collector; virtual quantities from the cell's observer.
type layerRow struct {
	app    string
	oracle bool
	wall   time.Duration
	sample perf.RunSample

	par, shutdown, check, run, cellHost time.Duration

	msgs, bytes, appMsgs, retransmits int64
	hostBusy, hostWait                sim.Duration

	ckpts, stateBytes, protoMsgs int64
	roundLat                     []sim.Duration
	forced, basic                int64
	blocked, sync, memcopy       sim.Duration
	diskWrite, tokenWait         sim.Duration

	reqs, written, read, retries int64
	maxDisk                      sim.Duration

	checks  int64
	crashed bool
	recover sim.Duration
	records []ckpt.Record
	ranks   int
}

// obsRow reads the layer counters and spans every cell's observer carries.
func obsRow(o *obs.Observer) layerRow {
	r := layerRow{
		msgs:       o.CounterTotal("fabric.msgs_sent"),
		bytes:      o.CounterTotal("fabric.bytes_sent"),
		appMsgs:    o.CounterTotal("mp.msgs_sent"),
		hostWait:   sim.Seconds(o.HistTotal("storage.hostlink_queue_wait")),
		stateBytes: o.CounterTotal("ckpt.state_bytes"),
		forced:     o.CounterTotal("cic.forced_ckpts"),
		basic:      o.CounterTotal("cic.basic_ckpts"),
		blocked:    sim.Seconds(o.HistTotal("ckpt.blocked_time")),
		sync:       o.SpanTotal("ckpt.sync"),
		memcopy:    o.SpanTotal("ckpt.memcopy"),
		diskWrite:  o.SpanTotal("ckpt.disk_write"),
		tokenWait:  o.SpanTotal("ckpt.token_wait"),
		reqs:       o.CounterTotal("storage.requests"),
		written:    o.CounterTotal("storage.bytes_written"),
		read:       o.CounterTotal("storage.bytes_read"),
		retries:    o.CounterTotal("faults.storage_retries"),
		recover:    o.SpanTotal("check.recover"),
	}
	busy := map[int]sim.Duration{}
	for _, sp := range o.Spans() {
		switch {
		case sp.Name == "ckpt.disk_write":
			r.ckpts++
		case sp.Name == "ckpt.round":
			r.roundLat = append(r.roundLat, sp.Duration())
		case strings.HasPrefix(sp.Name, "storage."):
			busy[sp.Pid] += sp.Duration()
		}
	}
	for _, b := range busy {
		if b > r.maxDisk {
			r.maxDisk = b
		}
	}
	return r
}

func faultFreeRow(res core.Result, o *obs.Observer, s perf.RunSample) layerRow {
	r := obsRow(o)
	r.app = res.Workload
	r.sample = s
	r.hostBusy = res.MaxHostLinkBusy
	r.protoMsgs = res.Ckpt.ProtoMsgs
	r.ckpts = int64(res.Ckpt.Checkpoints)
	r.roundLat = res.Ckpt.RoundLatency
	return r
}

func oracleRow(res check.CellResult, o *obs.Observer, s perf.RunSample) layerRow {
	r := obsRow(o)
	r.app = s.Workload
	r.oracle = true
	r.sample = s
	r.checks = res.Checks
	r.crashed = res.Recovered
	r.records = res.CrashRecords
	r.ranks = len(res.Line)
	return r
}
