package main

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/fabric"
	"repro/internal/rdg"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The layer probes call one layer's public functions directly, with inputs
// of the size the workload produces, and report host cost per operation.
// They price a layer without instrumenting inside the program. Each probe
// repeats its measurement probeReps times and keeps the median.
const probeReps = 5

const mib = 1 << 20

// probeCosts are the per-operation host costs the probes measured.
type probeCosts struct {
	handoffNS, callbackNS    float64
	nsPerMsg                 float64
	storageNSPerMB           float64
	encNSPerMB, reconNSPerMB float64
	rdgLineUS, rollbackPer   float64
	kernelMS                 map[string]float64
}

func medianOf(reps int, f func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// runProbes measures every layer probe for plan p, sizing the fabric,
// storage and codec inputs from the mean message and checkpoint image the
// traced cells produced.
func runProbes(p *plan, rows []layerRow, tr *tracer) probeCosts {
	var d probeCosts
	image, msg := meanSizes(rows)
	timed := func(name string, f func()) {
		end := tr.span(name)
		f()
		end()
	}
	timed("probe.sim", func() {
		d.handoffNS = medianOf(probeReps, func() float64 { return probeHandoff(20000) })
		d.callbackNS = medianOf(probeReps, func() float64 { return probeCallbacks(1000000) })
	})
	timed("probe.fabric", func() {
		d.nsPerMsg = medianOf(probeReps, func() float64 { return probeFabric(p.machine.Fabric, msg, 10000) })
	})
	timed("probe.storage", func() {
		d.storageNSPerMB = medianOf(probeReps, func() float64 {
			return probeStorage(p.machine.Storage, p.hooks.storageFault, image, reps(32*mib, image))
		})
	})
	timed("probe.codec", func() {
		d.encNSPerMB = medianOf(probeReps, func() float64 { return probeEncode(image, reps(16*mib, image)) })
		d.reconNSPerMB = medianOf(probeReps, func() float64 { return probeReconstruct(image, reps(16*mib, image)) })
	})
	timed("probe.rdg", func() { d.rdgLineUS, d.rollbackPer = probeRDG(rows) })
	timed("probe.apps", func() {
		d.kernelMS = map[string]float64{}
		for _, k := range p.kernels {
			d.kernelMS[k.app] = medianOf(3, func() float64 {
				t := time.Now()
				k.run()
				return float64(time.Since(t)) / 1e6
			})
		}
	})
	return d
}

// reps is how many operations on size-byte inputs move total bytes, so a
// probe on small images still runs long enough to time; at least 16.
func reps(total, size int) int {
	if n := total / size; n > 16 {
		return n
	}
	return 16
}

// meanSizes returns the mean bytes one checkpoint wrote and one message
// carried on the wire in the traced cells. The image is floored at one page
// so a probe never runs on an empty input.
func meanSizes(rows []layerRow) (image, msg int) {
	var ckptBytes, ckpts, wire, msgs int64
	for _, r := range rows {
		ckptBytes += r.stateBytes
		ckpts += r.ckpts
		wire += r.bytes
		msgs += r.msgs
	}
	image, msg = 4096, 64
	if ckpts > 0 && ckptBytes/ckpts > 4096 {
		image = int(ckptBytes / ckpts)
	}
	if msgs > 0 {
		msg = int(wire / msgs)
	}
	return image, msg
}

// probeHandoff ping-pongs a token between two processes through mailboxes
// and returns host ns per control handoff.
func probeHandoff(rounds int) float64 {
	eng := sim.New()
	defer eng.Shutdown()
	ping, pong := sim.NewMailbox[int](eng), sim.NewMailbox[int](eng)
	eng.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			pong.Put(i)
			ping.GetAny(p)
		}
	})
	eng.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Put(pong.GetAny(p))
		}
	})
	t := time.Now()
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("handoff probe: %v", err))
	}
	return float64(time.Since(t)) / float64(2*rounds)
}

// probeCallbacks runs a cascade of Engine.At timers, each scheduling the
// next, and returns host ns per callback.
func probeCallbacks(n int) float64 {
	eng := sim.New()
	defer eng.Shutdown()
	k := 0
	var step func()
	step = func() {
		k++
		if k < n {
			eng.At(eng.Now().Add(sim.Microsecond), step)
		}
	}
	eng.At(0, step)
	t := time.Now()
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("callback probe: %v", err))
	}
	return float64(time.Since(t)) / float64(n)
}

// probeFabric sends msgs messages of size wire bytes between spread pairs of
// the workload's mesh from one sending process (paced by the software send
// overhead) and returns host ns per message, delivery included.
func probeFabric(cfg fabric.Config, size, msgs int) float64 {
	eng := sim.New()
	defer eng.Shutdown()
	net := fabric.New(eng, cfg)
	nodes := cfg.Nodes()
	delivered := 0
	for id := 0; id < nodes; id++ {
		net.SetDeliver(fabric.NodeID(id), func(*fabric.Envelope) { delivered++ })
	}
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			src := i % nodes
			dst := (src + 1 + (i*7)%(nodes-1)) % nodes
			net.Send(p, &fabric.Envelope{Src: fabric.NodeID(src), Dst: fabric.NodeID(dst), Size: size})
		}
	})
	t := time.Now()
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("fabric probe: %v", err))
	}
	el := time.Since(t)
	if delivered != msgs {
		panic(fmt.Sprintf("fabric probe: %d of %d messages delivered", delivered, msgs))
	}
	return float64(el) / float64(msgs)
}

// probeStorage has one client process write an image-sized blob durably and
// read it back, n times, each request waiting for the one before it as a
// checkpoint daemon's do, and returns host ns per MiB moved.
func probeStorage(cfg storage.Config, hook func(storage.Op, string) error, image, n int) float64 {
	eng := sim.New()
	defer eng.Shutdown()
	s := storage.New(eng, cfg)
	s.FaultHook = hook
	blob := make([]byte, image)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	replies := sim.NewMailbox[storage.Reply](eng)
	done := func(r storage.Reply) { replies.Put(r) }
	var failed error
	eng.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n && failed == nil; i++ {
			path := fmt.Sprintf("ckpt/%d", i%8)
			s.Submit(storage.Request{Op: storage.OpWrite, Path: path, Data: blob, Durable: true, Done: done})
			if r := replies.GetAny(p); r.Err != nil {
				failed = r.Err
				break
			}
			s.Submit(storage.Request{Op: storage.OpRead, Path: path, Done: done})
			if r := replies.GetAny(p); r.Err != nil || len(r.Data) != image {
				failed = fmt.Errorf("read %s: %d bytes, %v", path, len(r.Data), r.Err)
			}
		}
	})
	t := time.Now()
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("storage probe: %v", err))
	}
	el := time.Since(t)
	if failed != nil {
		panic(fmt.Sprintf("storage probe: %v", failed))
	}
	return float64(el) / (float64(2*n*image) / mib)
}

// testImage returns an image of n bytes and a successor with every tenth
// page rewritten — the dirty fraction the incremental schemes see.
func testImage(n int) (prev, cur []byte) {
	prev = make([]byte, n)
	for i := range prev {
		prev[i] = byte(i*7 + i>>9)
	}
	cur = append([]byte(nil), prev...)
	for off := 0; off < n; off += 10 * 4096 {
		for i := off; i < off+4096 && i < n; i++ {
			cur[i] ^= 0x5a
		}
	}
	return prev, cur
}

// probeEncode encodes reps base images and deltas of the image size and
// returns host ns per MiB of image encoded.
func probeEncode(image, reps int) float64 {
	prev, cur := testImage(image)
	t := time.Now()
	for i := 0; i < reps; i++ {
		codec.EncodeBaseImage(cur)
		codec.EncodeDelta(prev, cur, 4096)
	}
	return float64(time.Since(t)) / (float64(2*reps*image) / mib)
}

// probeReconstruct replays a base image plus three deltas reps times and
// returns host ns per MiB of image reconstructed.
func probeReconstruct(image, reps int) float64 {
	prev, cur := testImage(image)
	chain := [][]byte{codec.EncodeBaseImage(prev)}
	for i := 0; i < 3; i++ {
		chain = append(chain, codec.EncodeDelta(prev, cur, 4096))
		prev, cur = cur, prev
	}
	t := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := codec.ReconstructImage(chain); err != nil {
			panic(fmt.Sprintf("codec probe: %v", err))
		}
	}
	return float64(time.Since(t)) / (float64(reps*image) / mib)
}

// probeRDG recomputes the recovery line of every traced crashed cell from its
// committed-checkpoint ledger and returns the mean host µs per recovery line
// and the mean checkpoints rolled back per crash. Workloads without crashes
// have no ledgers and read zero.
func probeRDG(rows []layerRow) (lineUS, rollback float64) {
	const rounds = 20 // one recovery line takes microseconds; time several
	var total time.Duration
	var lines, rolled int
	for _, r := range rows {
		if len(r.records) == 0 {
			continue
		}
		t := time.Now()
		var line []int
		var g *rdg.Graph
		for i := 0; i < rounds; i++ {
			g = rdg.FromRecords(r.ranks, r.records)
			line = g.RecoveryLine()
		}
		total += time.Since(t)
		for _, k := range g.RollbackCheckpoints(line) {
			rolled += k
		}
		lines++
	}
	if lines == 0 {
		return 0, 0
	}
	return float64(total) / 1e3 / float64(rounds*lines), float64(rolled) / float64(lines)
}
