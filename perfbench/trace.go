package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// runTraced is the per-layer measurement. It alternates untraced and traced
// passes over the cells until the time is up, so the difference between the
// two is the tracing overhead, checks that both produce byte-identical
// virtual outputs, then runs the layer probes and splits the traced cells'
// cost by layer.
func runTraced(w workload, seed uint64, seconds float64, hk hooks, traceOut string, errw io.Writer) (report, error) {
	p, _, err := setupTimed(w, seed, hk, 1, 0)
	if err != nil {
		return report{}, err
	}
	v := verifier{names: cellNames(p), errw: errw}
	tr := newTracer()
	var plain, traced []float64
	var first passResult
	start := time.Now()
	for len(traced) == 0 || another(start, len(traced), seconds) {
		u := runPass(p, nil)
		if len(plain) == 0 {
			first = u
		}
		v.add(u)
		plain = append(plain, u.wall.Seconds())
		t := runPass(p, tr)
		v.add(t)
		traced = append(traced, t.wall.Seconds())
	}
	tr.cell = -1
	d := runProbes(p, tr.rows, tr)
	if traceOut != "" {
		if err := writeChromeTrace(traceOut, w.name, tr.spans); err != nil {
			return report{}, err
		}
	}
	rep := report{
		correct:   v.failed == 0,
		attempted: v.attempted,
		failed:    v.failed,
		metrics:   layerMetrics(tr.rows, d),
	}
	rep.metrics = append(rep.metrics, metricValue{"trace_overhead_pct", "%",
		100 * (median(traced)/median(plain) - 1)})
	rep.lines = append(rep.lines,
		fmt.Sprintf("workload %s seed %d: %d traced and %d untraced passes of %d cells",
			w.name, seed, len(traced), len(plain), len(p.cells)))
	rep.lines = append(rep.lines, v.lines(w, first)...)
	rep.lines = append(rep.lines, shareLines(rep.metrics)...)
	return rep, nil
}

// layerMetrics averages the traced cells' layer rows per cell and combines
// them with the probes' per-operation costs.
func layerMetrics(rows []layerRow, d probeCosts) []metricValue {
	n := float64(len(rows))
	if n == 0 {
		n = 1
	}
	var (
		events, procs, runNS, wallNS                         float64
		msgs, bytes, appMsgs, retrans                        float64
		hostBusy, hostWait                                   sim.Duration
		ckpts, stateB, proto                                 float64
		roundSum                                             sim.Duration
		rounds                                               int
		forced, cicAll                                       float64
		blocked, syncD, memcopy, diskW, tokenW, maxDisk, rec sim.Duration
		reqs, wrB, rdB, retries, enc, dec                    float64
		checks, cellHost, appCheck, parNS, shutNS, checkNS   float64
		crashed, oracles                                     float64
		kernelNS                                             float64
	)
	for _, r := range rows {
		events += float64(r.sample.Events)
		procs += float64(r.sample.Procs)
		runNS += float64(r.run)
		wallNS += float64(r.wall)
		msgs += float64(r.msgs)
		bytes += float64(r.bytes)
		appMsgs += float64(r.appMsgs)
		retrans += float64(r.retransmits)
		hostBusy += r.hostBusy
		hostWait += r.hostWait
		ckpts += float64(r.ckpts)
		stateB += float64(r.stateBytes)
		proto += float64(r.protoMsgs)
		for _, l := range r.roundLat {
			roundSum += l
			rounds++
		}
		forced += float64(r.forced)
		cicAll += float64(r.forced + r.basic)
		blocked += r.blocked
		syncD += r.sync
		memcopy += r.memcopy
		diskW += r.diskWrite
		tokenW += r.tokenWait
		maxDisk += r.maxDisk
		reqs += float64(r.reqs)
		wrB += float64(r.written)
		rdB += float64(r.read)
		retries += float64(r.retries)
		enc += float64(r.sample.EncBytes)
		dec += float64(r.sample.DecBytes)
		checks += float64(r.checks)
		appCheck += float64(r.check)
		parNS += float64(r.par)
		shutNS += float64(r.shutdown)
		kernelNS += d.kernelMS[r.app] * 1e6
		if r.oracle {
			oracles++
			cellHost += float64(r.cellHost)
			checkNS += float64(r.sample.Check)
		}
		if r.crashed {
			crashed++
			rec += r.recover
		}
	}
	ms := func(t sim.Duration) float64 { return t.Seconds() * 1e3 / n }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var kernelTotal float64
	for _, k := range d.kernelMS {
		kernelTotal += k
	}
	fabricNS := msgs * d.nsPerMsg
	storageNS := (wrB + rdB) / mib * d.storageNSPerMB
	codecNS := enc/mib*d.encNSPerMB + dec/mib*d.reconNSPerMB
	simNS := runNS - kernelNS - fabricNS - storageNS - codecNS
	if simNS < 0 {
		simNS = 0
	}
	share := func(ns float64) float64 { return 100 * div(ns, wallNS) }
	var roundMS float64
	if rounds > 0 {
		roundMS = roundSum.Seconds() * 1e3 / float64(rounds)
	}
	var recMS float64
	if crashed > 0 {
		recMS = rec.Seconds() * 1e3 / crashed
	}
	return []metricValue{
		{"sim.events_per_cell", "count", events / n},
		{"sim.procs_per_cell", "count", procs / n},
		{"sim.host_ns_per_event", "ns", div(runNS, events)},
		{"sim.handoff_ns", "ns", d.handoffNS},
		{"sim.callback_ns", "ns", d.callbackNS},
		{"sim.host_share_pct", "%", share(simNS)},
		{"fabric.msgs_per_cell", "count", msgs / n},
		{"fabric.bytes_per_cell", "B", bytes / n},
		{"fabric.host_ns_per_msg", "ns", d.nsPerMsg},
		{"fabric.hostlink_busy_virt_ms", "ms", ms(hostBusy)},
		{"fabric.hostlink_queue_wait_virt_ms", "ms", ms(hostWait)},
		{"fabric.host_share_pct", "%", share(fabricNS)},
		{"mp.app_msgs_per_cell", "count", appMsgs / n},
		{"mp.retransmits_per_cell", "count", retrans / n},
		{"ckpt.checkpoints_per_cell", "count", ckpts / n},
		{"ckpt.state_mb_per_cell", "MiB", stateB / mib / n},
		{"ckpt.proto_msgs_per_cell", "count", proto / n},
		{"ckpt.round_latency_virt_ms", "ms", roundMS},
		{"ckpt.blocked_virt_ms", "ms", ms(blocked)},
		{"ckpt.sync_virt_ms", "ms", ms(syncD)},
		{"ckpt.memcopy_virt_ms", "ms", ms(memcopy)},
		{"ckpt.disk_write_virt_ms", "ms", ms(diskW)},
		{"ckpt.token_wait_virt_ms", "ms", ms(tokenW)},
		{"cic.forced_ratio", "ratio", div(forced, cicAll)},
		{"storage.reqs_per_cell", "count", reqs / n},
		{"storage.write_mb_per_cell", "MiB", wrB / mib / n},
		{"storage.read_mb_per_cell", "MiB", rdB / mib / n},
		{"storage.max_disk_busy_virt_ms", "ms", ms(maxDisk)},
		{"storage.retries_per_cell", "count", retries / n},
		{"storage.host_ns_per_mb", "ns", d.storageNSPerMB},
		{"storage.host_share_pct", "%", share(storageNS)},
		{"codec.enc_mb_per_cell", "MiB", enc / mib / n},
		{"codec.dec_mb_per_cell", "MiB", dec / mib / n},
		{"codec.host_ns_per_mb_enc", "ns", d.encNSPerMB},
		{"codec.host_ns_per_mb_reconstruct", "ns", d.reconNSPerMB},
		{"codec.host_share_pct", "%", share(codecNS)},
		{"rdg.recovery_line_us", "us", d.rdgLineUS},
		{"rdg.rollback_ckpts_per_crash", "count", d.rollbackPer},
		{"check.invariant_checks_per_cell", "count", checks / n},
		{"check.cell_host_ms", "ms", div(cellHost, oracles) / 1e6},
		{"check.recover_virt_ms", "ms", recMS},
		{"check.host_share_pct", "%", share(checkNS)},
		{"apps.kernel_host_ms", "ms", kernelTotal},
		{"apps.check_host_ms", "ms", appCheck / n / 1e6},
		{"apps.host_share_pct", "%", share(kernelNS)},
		{"par.setup_us", "us", parNS / n / 1e3},
		{"par.shutdown_us", "us", shutNS / n / 1e3},
		{"par.host_share_pct", "%", share(parNS + shutNS)},
	}
}

// shareLines prints the host-time split by layer, largest first.
func shareLines(ms []metricValue) []string {
	var shares []metricValue
	for _, m := range ms {
		if strings.HasSuffix(m.name, ".host_share_pct") {
			shares = append(shares, m)
		}
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].value > shares[j].value })
	out := []string{"host time by layer (share of traced cell wall time):"}
	for _, m := range shares {
		out = append(out, fmt.Sprintf("  %-8s %6.2f %%", strings.TrimSuffix(m.name, ".host_share_pct"), m.value))
	}
	return out
}

// writeChromeTrace writes the traced run's host spans as a Chrome trace
// (chrome://tracing, ui.perfetto.dev): one track per traced cell, one for
// the probes.
func writeChromeTrace(path, name string, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.cell + 1}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "otherData": map[string]string{"workload": name}}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
