package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// courier_ref_test.go — the goroutine transport, kept as the reference the
// event-driven courier is proven against. Before couriers became chains of
// engine events, Send spawned one process per remote message that walked the
// path, parking in Resource.Acquire and Sleep for every chunk of every hop.
// refSend is that transport, sharing admit, Path, the links and arrive with
// production, so the only difference under test is processes versus
// callbacks.

// refSend is Send with a goroutine courier.
func (n *Network) refSend(sender *sim.Proc, env *Envelope) {
	c := n.admit(sender, env)
	if c == nil {
		return
	}
	n.eng.Spawn("courier", func(p *sim.Proc) {
		for _, hop := range c.path {
			l := n.links[hop]
			remaining := env.Size
			var waited sim.Duration
			for {
				chunk := remaining
				if n.cfg.PacketBytes > 0 && chunk > n.cfg.PacketBytes {
					chunk = n.cfg.PacketBytes
				}
				t0 := p.Now()
				l.res.Acquire(p)
				waited += p.Now().Sub(t0)
				p.Sleep(l.lat + sim.BytesAt(chunk, l.bw))
				l.res.Release()
				remaining -= chunk
				if remaining <= 0 {
					break
				}
			}
			if n.Obs.Enabled() && n.isHost(hop[1]) {
				n.Obs.ObserveDur(int(env.Src), "storage.hostlink_queue_wait", waited)
			}
			l.bytes += int64(env.Size)
			l.msgs++
			if hop[1] != env.Dst && n.TransitHook != nil {
				n.TransitHook(hop[1], env.Size)
			}
		}
		if c.faultDelay > 0 {
			p.Sleep(c.faultDelay)
		}
		n.arrive(c.pair, c.pairSeq, env, c.dropped)
	})
}

// scenario is one seeded traffic mix: a machine shape, the hooks armed on
// it, and per-sender scripts of (pause, destination, size) sends.
type scenario struct {
	cfg     Config
	faults  bool // FaultHook delays and drops
	transit bool // TransitHook armed
	armObs  bool // Obs armed (host-link queue-wait histograms)
	replies bool // deliveries to compute nodes answer from engine context
	senders [][]scriptedSend
	timed   []scriptedSend // sends issued by engine events, sender nil
}

type scriptedSend struct {
	pause    sim.Duration // sleep before the send (procs) or absolute time (events)
	src, dst NodeID
	size     int
}

func randomScenario(rng *rand.Rand) scenario {
	var sc scenario
	sc.cfg = testConfig()
	if rng.Intn(2) == 0 {
		sc.cfg.Topo = topo.Mesh2D{W: 4, H: 4}
		sc.cfg.Hosts = 1 + rng.Intn(3)
	}
	if rng.Intn(2) == 0 {
		sc.cfg.PacketBytes = []int{256, 1024, 4096}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		sc.cfg.SendOverhead = 0
	}
	sc.faults = rng.Intn(2) == 0
	sc.transit = rng.Intn(2) == 0
	sc.armObs = rng.Intn(2) == 0
	sc.replies = rng.Intn(2) == 0

	nodes := sc.cfg.Nodes()
	hosts := sc.cfg.NumHosts()
	endpoint := func() NodeID {
		// One send in three targets stable storage, so host links contend.
		if rng.Intn(3) == 0 {
			return sc.cfg.HostID(rng.Intn(hosts))
		}
		return NodeID(rng.Intn(nodes))
	}
	size := func() int {
		if rng.Intn(4) == 0 {
			return 2000 + rng.Intn(20000)
		}
		return rng.Intn(600)
	}
	for s := 1 + rng.Intn(6); s > 0; s-- {
		src := NodeID(rng.Intn(nodes))
		var script []scriptedSend
		for k := rng.Intn(12); k > 0; k-- {
			script = append(script, scriptedSend{
				pause: sim.Duration(rng.Intn(4)) * 500 * sim.Microsecond,
				src:   src, dst: endpoint(), size: size(),
			})
		}
		sc.senders = append(sc.senders, script)
	}
	for k := rng.Intn(10); k > 0; k-- {
		src := endpoint()
		sc.timed = append(sc.timed, scriptedSend{
			pause: sim.Duration(rng.Intn(8)) * sim.Millisecond,
			src:   src, dst: endpoint(), size: size(),
		})
	}
	return sc
}

// outcome is everything a transport can influence that the rest of the
// simulator could observe.
type outcome struct {
	Deliveries []string // seq, destination, delivery time — in delivery order
	Transits   []string
	Pushes     uint64
	Pops       uint64
	MaxDepth   int
	Links      []string // per directed link: bytes, msgs, busy time
	Metrics    []obs.Metric
	Procs      int
}

func (sc scenario) run(t *testing.T, send func(n *Network, p *sim.Proc, env *Envelope)) outcome {
	t.Helper()
	var out outcome
	e := sim.New()
	n := New(e, sc.cfg)
	if sc.armObs {
		n.Obs = obs.New()
		n.Obs.Bind(e)
	}
	if sc.faults {
		n.FaultHook = func(env *Envelope) (sim.Duration, bool) {
			return sim.Duration(env.Seq%4) * 300 * sim.Microsecond, env.Seq%7 == 3
		}
	}
	if sc.transit {
		n.TransitHook = func(node NodeID, bytes int) {
			out.Transits = append(out.Transits, fmt.Sprintf("%v %d %d", e.Now(), node, bytes))
		}
	}
	nodes := sc.cfg.Nodes()
	for id := 0; id < len(n.deliver); id++ {
		if id >= nodes && !n.isHost(NodeID(id)) {
			continue
		}
		n.SetDeliver(NodeID(id), func(env *Envelope) {
			out.Deliveries = append(out.Deliveries, fmt.Sprintf("%d %d %v", env.Seq, env.Dst, e.Now()))
			// A reply sent from inside the handler exercises transport
			// started from engine context mid-delivery.
			if sc.replies && int(env.Dst) < nodes && env.Port == 0 {
				send(n, nil, &Envelope{Src: env.Dst, Dst: env.Src, Port: 1, Size: 40})
			}
		})
	}
	for i, script := range sc.senders {
		script := script
		e.Spawn(fmt.Sprintf("sender%d", i), func(p *sim.Proc) {
			for _, s := range script {
				p.Sleep(s.pause)
				send(n, p, &Envelope{Src: s.src, Dst: s.dst, Size: s.size})
			}
		})
	}
	for _, s := range sc.timed {
		s := s
		e.At(sim.Time(s.pause), func() { send(n, nil, &Envelope{Src: s.src, Dst: s.dst, Size: s.size}) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	out.Pushes, out.Pops, out.MaxDepth, out.Procs = st.Pushes, st.Pops, st.MaxQueueDepth, st.ProcsSpawned
	keys := make([][2]NodeID, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		l := n.links[k]
		out.Links = append(out.Links, fmt.Sprintf("%v %d %d %v", k, l.bytes, l.msgs, l.res.BusyTime()))
	}
	out.Metrics = n.Obs.Snapshot()
	e.Shutdown()
	return out
}

// TestEventCourierMatchesGoroutineCourier drives seeded random traffic
// through both transports — packetization on and off, one to three
// contended host links, fault delays and drops, transit accounting, an armed
// observer, and replies sent from delivery handlers — and requires the same
// observable run: every delivery at the same virtual time in the same order,
// the same per-link traffic and busy time, the same host-link queue-wait
// histograms, and the same number of engine events, i.e. every scheduling
// sequence number allocated identically. Only the process count differs:
// the event courier spawns none.
func TestEventCourierMatchesGoroutineCourier(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	var remoteTotal int
	for seed := 1; seed <= seeds; seed++ {
		sc := randomScenario(rand.New(rand.NewSource(int64(seed))))
		got := sc.run(t, (*Network).Send)
		want := sc.run(t, (*Network).refSend)
		remote := want.Procs - len(sc.senders)
		remoteTotal += remote
		if got.Procs != len(sc.senders) {
			t.Fatalf("seed %d: event transport spawned %d processes, want %d (the senders)", seed, got.Procs, len(sc.senders))
		}
		got.Procs, want.Procs = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d remote messages, cfg %+v): transports diverge\nevent:     %+v\ngoroutine: %+v",
				seed, remote, sc.cfg, got, want)
		}
	}
	if remoteTotal < 10*seeds {
		t.Fatalf("only %d remote messages over %d seeds: the traffic generator has degenerated", remoteTotal, seeds)
	}
}
