// Package fabric simulates the interconnect of a transputer-style
// multicomputer: compute nodes joined by a routed topology (the default is
// the Parsytec's 2-D mesh with XY dimension-ordered store-and-forward
// routing; package topo supplies 3-D meshes, tori and fat trees), plus one or
// more host links attaching mesh nodes to host endpoints (the stable-storage
// servers' machines).
//
// Every directed link is a FIFO resource with a latency and a bandwidth, so
// concurrent traffic queues hop by hop; this is what produces the network
// contention effects that the checkpointing study measures. Delivery order
// between a fixed (src, dst) pair is FIFO because all such messages follow
// the same deterministic path, which the reliable-FIFO message layer above
// relies on.
//
// Transport runs as engine events, not processes: each remote message is
// carried by a courier state machine whose link acquisitions, wire times and
// fault delays are a chain of At/After callbacks, issued in the order a
// process per message would have slept and woken, so the virtual schedule is
// unchanged while no goroutine is spawned or switched per message. Delivery
// handlers therefore run in engine context.
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// NodeID identifies an endpoint or routing vertex: 0..Nodes()-1 are compute
// nodes, Nodes()..Nodes()+Routers()-1 are routing-only switches (indirect
// topologies), and HostID(i) are the host machines behind the host links.
type NodeID int

// Config describes the machine's interconnect.
type Config struct {
	MeshW, MeshH int // legacy 2-D mesh dimensions, used when Topo is nil

	// Topo, when non-nil, replaces the MeshW×MeshH mesh with an arbitrary
	// routed topology (package topo). The default machine is byte-identical
	// whether expressed as a nil Topo or an explicit topo.Mesh2D{W: 4, H: 2}.
	Topo topo.Topology

	LinkBandwidth float64      // bytes/s per topology link (scaled by the link's Cap)
	LinkLatency   sim.Duration // per-hop wire latency

	HostBandwidth float64      // bytes/s of each host link
	HostLatency   sim.Duration // host link latency
	HostAttach    NodeID       // compute node host 0's link attaches to

	// Hosts is the number of host endpoints — one per storage server when
	// the storage layer is sharded; 0 or 1 means the single legacy host.
	Hosts int

	// HostAttaches optionally pins each host's attach point. Hosts beyond
	// its length attach at evenly spread compute nodes (i*Nodes()/Hosts),
	// except host 0 which defaults to HostAttach.
	HostAttaches []NodeID

	SendOverhead sim.Duration // software overhead charged to the sending process
	LocalLatency sim.Duration // latency of a node-local (src == dst) delivery

	// PacketBytes is the link scheduling granularity: a message holds a link
	// for at most this many bytes before yielding to competing traffic, so
	// large checkpoint transfers do not monopolize links against small
	// application messages. Zero disables packetization.
	PacketBytes int

	// TransitCPUPerMB is the CPU time the software router steals from an
	// intermediate node per megabyte forwarded (Parix virtual links were
	// partly CPU-driven). The node layer charges it to computations running
	// concurrently with the forwarding.
	TransitCPUPerMB sim.Duration
}

// topology resolves the effective topology: explicit, or the legacy mesh.
func (c Config) topology() topo.Topology {
	if c.Topo != nil {
		return c.Topo
	}
	return topo.Mesh2D{W: c.MeshW, H: c.MeshH}
}

// Nodes returns the number of compute nodes.
func (c Config) Nodes() int {
	if c.Topo != nil {
		return c.Topo.Nodes()
	}
	return c.MeshW * c.MeshH
}

// Routers returns the number of routing-only vertices of the topology.
func (c Config) Routers() int {
	if c.Topo != nil {
		return c.Topo.Routers()
	}
	return 0
}

// NumHosts returns the number of host endpoints (at least 1).
func (c Config) NumHosts() int {
	if c.Hosts > 1 {
		return c.Hosts
	}
	return 1
}

// HostID returns the NodeID of host endpoint i.
func (c Config) HostID(i int) NodeID { return NodeID(c.Nodes() + c.Routers() + i) }

// Host returns the NodeID of the first host endpoint. On the legacy
// single-host machine this is NodeID(Nodes()), as before.
func (c Config) Host() NodeID { return c.HostID(0) }

// AttachOf returns the compute node host i's link attaches to.
func (c Config) AttachOf(i int) NodeID {
	if i < len(c.HostAttaches) {
		return c.HostAttaches[i]
	}
	if i == 0 {
		return c.HostAttach
	}
	return NodeID(i * c.Nodes() / c.NumHosts())
}

// Validate reports whether the configuration describes a buildable machine;
// New panics on exactly the conditions Validate rejects, so CLIs can check
// user-supplied shapes up front and fail with a usage error instead.
func (c Config) Validate() error {
	if c.Topo == nil && (c.MeshW < 1 || c.MeshH < 1) {
		return errors.New("mesh dimensions must be >= 1")
	}
	if c.Hosts > c.Nodes() {
		return fmt.Errorf("%d hosts exceed the topology's %d compute nodes", c.Hosts, c.Nodes())
	}
	for i := 0; i < c.NumHosts(); i++ {
		if a := int(c.AttachOf(i)); a < 0 || a >= c.Nodes() {
			return fmt.Errorf("host %d attach point %d outside the %d compute nodes", i, a, c.Nodes())
		}
	}
	return nil
}

// Envelope is one message on the wire. Payload is opaque to the fabric; Size
// is the number of bytes that occupy link bandwidth.
type Envelope struct {
	Src, Dst NodeID
	Port     int // endpoint-local demultiplexing port
	Inc      int // sender incarnation number (used by the node layer)
	Size     int // bytes on the wire (payload + headers)
	Payload  any
	SentAt   sim.Time
	Seq      uint64 // global send sequence, for tracing
}

// Handler receives a delivered envelope. It runs in engine context — from the
// event that completes the envelope's transport — and must not block.
type Handler func(*Envelope)

type link struct {
	res *sim.Resource
	lat sim.Duration
	bw  float64

	bytes int64 // traffic accounting
	msgs  int64
}

// Network is the simulated interconnect.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	top      topo.Topology
	nNodes   int
	nRouters int
	links    map[[2]NodeID]*link // directed (from,to) including host-link endpoints
	deliver  []Handler
	seq      uint64

	// pathCache memoizes Path: routes are a pure function of the static
	// topology, and the hot path asks for the same few (src,dst) pairs once
	// per message. Cached slices are shared — Path callers iterate, never
	// mutate.
	pathCache map[[2]NodeID][][2]NodeID

	// Per-(src,dst) sequencing: packetized messages can overtake each other
	// in flight, so arrivals are re-ordered before delivery to preserve the
	// FIFO guarantee the message layer builds on.
	sendSeq map[[2]NodeID]uint64
	nextRcv map[[2]NodeID]uint64
	held    map[[2]NodeID]map[uint64]arrival

	// FaultHook, when set, is consulted once per remote Send and returns the
	// fault verdict for that envelope's traversal: extra delivery delay, and
	// whether the message is dropped before reaching its destination. A
	// dropped envelope still traverses the path (its packets occupy links)
	// and still advances the pair's arrival sequencing, so FIFO delivery of
	// the surviving traffic is preserved. Installed by the fault-injection
	// layer; nil — the default — leaves the data path untouched.
	FaultHook func(env *Envelope) (delay sim.Duration, drop bool)

	// TransitHook, when set, is told about every message forwarded through
	// an intermediate vertex (software routing CPU accounting; the node
	// layer ignores routing-only switch vertices).
	TransitHook func(node NodeID, bytes int)

	// Obs receives per-sender traffic counters and the queue-wait histogram
	// of the mesh→host direction of the host links (the path every stable-
	// storage write takes); nil disables the instrumentation.
	Obs *obs.Observer

	couriers []*courier // free list of idle couriers

	totalMsgs  int64
	totalBytes int64
}

// New builds the topology plus host links described by cfg.
func New(eng *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic("fabric: " + err.Error())
	}
	top := cfg.topology()
	nh := cfg.NumHosts()
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		top:      top,
		nNodes:   top.Nodes(),
		nRouters: top.Routers(),
		links:    make(map[[2]NodeID]*link),
		deliver:  make([]Handler, top.Nodes()+top.Routers()+nh),
		sendSeq:  make(map[[2]NodeID]uint64),
		nextRcv:  make(map[[2]NodeID]uint64),
		held:     make(map[[2]NodeID]map[uint64]arrival),
	}
	addLink := func(a, b NodeID, lat sim.Duration, bw float64) {
		n.links[[2]NodeID{a, b}] = &link{res: sim.NewResource(eng, 1), lat: lat, bw: bw}
		n.links[[2]NodeID{b, a}] = &link{res: sim.NewResource(eng, 1), lat: lat, bw: bw}
	}
	for _, lk := range top.Links() {
		mult := lk.Cap
		if mult <= 0 {
			mult = 1
		}
		addLink(NodeID(lk.A), NodeID(lk.B), cfg.LinkLatency, cfg.LinkBandwidth*mult)
	}
	for i := 0; i < nh; i++ {
		addLink(cfg.AttachOf(i), cfg.HostID(i), cfg.HostLatency, cfg.HostBandwidth)
	}
	return n
}

// Config returns the interconnect configuration.
func (n *Network) Config() Config { return n.cfg }

// isHost reports whether id is a host endpoint (as opposed to a compute node
// or a routing-only switch).
func (n *Network) isHost(id NodeID) bool { return int(id) >= n.nNodes+n.nRouters }

func (n *Network) hostIndex(id NodeID) int { return int(id) - n.nNodes - n.nRouters }

// Path returns the sequence of directed hops from src to dst along the
// topology's deterministic route, traversing a host link first/last as
// needed. The returned slice is memoized and shared across calls — callers
// must treat it as read-only.
func (n *Network) Path(src, dst NodeID) [][2]NodeID {
	if src == dst {
		return nil
	}
	key := [2]NodeID{src, dst}
	if hops, ok := n.pathCache[key]; ok {
		return hops
	}
	var hops [][2]NodeID
	cur := src
	if n.isHost(src) {
		attach := n.cfg.AttachOf(n.hostIndex(src))
		hops = append(hops, [2]NodeID{src, attach})
		cur = attach
	}
	meshDst := dst
	if n.isHost(dst) {
		meshDst = n.cfg.AttachOf(n.hostIndex(dst))
	}
	for _, v := range n.top.Route(int(cur), int(meshDst)) {
		hops = append(hops, [2]NodeID{cur, NodeID(v)})
		cur = NodeID(v)
	}
	if n.isHost(dst) {
		hops = append(hops, [2]NodeID{cur, dst})
	}
	if n.pathCache == nil {
		n.pathCache = make(map[[2]NodeID][][2]NodeID)
	}
	n.pathCache[key] = hops
	return hops
}

// SetDeliver installs the delivery handler for endpoint id.
func (n *Network) SetDeliver(id NodeID, h Handler) { n.deliver[id] = h }

// Send injects env into the network. If sender is non-nil the configured
// software send overhead is charged to it (the sender blocks for that time);
// transport then proceeds asynchronously as a chain of engine events (see
// courier), so Send models a non-blocking (buffered) send. Send panics on an
// invalid destination (routing-only switches are not endpoints).
func (n *Network) Send(sender *sim.Proc, env *Envelope) {
	if c := n.admit(sender, env); c != nil {
		n.eng.At(n.eng.Now(), c.beginFn)
	}
}

// admit performs everything Send does before transport starts: sequencing,
// traffic accounting, the sender's software overhead and the fault verdict.
// A node-local envelope is scheduled for delivery directly and admit returns
// nil; a remote one gets a courier loaded with its route, which the caller
// starts.
func (n *Network) admit(sender *sim.Proc, env *Envelope) *courier {
	if d := int(env.Dst); d < 0 || d >= len(n.deliver) || (d >= n.nNodes && !n.isHost(env.Dst)) {
		panic(fmt.Sprintf("fabric: send to invalid node %d", env.Dst))
	}
	n.seq++
	env.Seq = n.seq
	env.SentAt = n.eng.Now()
	n.totalMsgs++
	n.totalBytes += int64(env.Size)
	n.Obs.Add(int(env.Src), "fabric.msgs_sent", 1)
	n.Obs.Add(int(env.Src), "fabric.bytes_sent", int64(env.Size))
	if sender != nil && n.cfg.SendOverhead > 0 {
		sender.Sleep(n.cfg.SendOverhead)
	}
	if env.Src == env.Dst {
		n.eng.After(n.cfg.LocalLatency, func() { n.handoff(env) })
		return nil
	}
	c := n.newCourier()
	c.env = env
	c.pair = [2]NodeID{env.Src, env.Dst}
	n.sendSeq[c.pair]++
	c.pairSeq = n.sendSeq[c.pair]
	// The fault verdict is drawn at send time, in deterministic send order,
	// so the injection stream does not depend on transport interleaving.
	if n.FaultHook != nil {
		c.faultDelay, c.dropped = n.FaultHook(env)
	}
	c.path = n.Path(env.Src, env.Dst)
	return c
}

// courier carries one remote envelope along its path as a chain of engine
// events: for every packet-sized chunk of every hop it acquires the link,
// holds it for the chunk's wire time, and releases it; after the last hop an
// optional fault delay runs, then arrive's per-pair resequencing. Each
// scheduled event stands where a process courier would Sleep or be woken, in
// the same order, so the virtual schedule — event sequence numbers included —
// is what a goroutine per message would produce, at the cost of a callback
// instead of two goroutine handoffs. Couriers are recycled through the
// network's free list, with their callbacks bound once, so steady-state
// transport allocates nothing.
type courier struct {
	n          *Network
	env        *Envelope
	path       [][2]NodeID
	pair       [2]NodeID
	pairSeq    uint64
	faultDelay sim.Duration
	dropped    bool

	hop       int   // index into path of the hop in flight
	l         *link // path[hop]'s link
	remaining int   // bytes of this hop not yet sent
	chunk     int   // bytes of the chunk holding or awaiting the link

	// Queue wait of this hop's chunks: the time they spend waiting behind
	// competing traffic for the link, reported for the host-link hops (the
	// shared path to stable storage). Reading the clock does not perturb the
	// acquisition order, so instrumented runs keep the exact virtual
	// schedule.
	t0     sim.Time
	waited sim.Duration

	// The methods below as func values, bound once per courier.
	beginFn, transmitFn, nextFn, arriveFn func()
}

func (n *Network) newCourier() *courier {
	if k := len(n.couriers); k > 0 {
		c := n.couriers[k-1]
		n.couriers = n.couriers[:k-1]
		return c
	}
	c := &courier{n: n}
	c.beginFn, c.transmitFn, c.nextFn, c.arriveFn = c.beginHop, c.transmit, c.next, c.arrive
	return c
}

// beginHop starts carrying the envelope over path[hop]; a fresh courier
// starts at hop 0.
func (c *courier) beginHop() {
	hop := c.path[c.hop]
	c.l = c.n.links[hop]
	c.remaining = c.env.Size
	c.waited = 0
	c.acquire()
}

// acquire requests the link for the next chunk; transmit runs once it is
// granted, at once if the link is free.
func (c *courier) acquire() {
	c.chunk = c.remaining
	if pb := c.n.cfg.PacketBytes; pb > 0 && c.chunk > pb {
		c.chunk = pb
	}
	c.t0 = c.n.eng.Now()
	if c.l.res.AcquireFn(c.transmitFn) {
		c.transmit()
	}
}

// transmit holds the granted link for the chunk's wire time.
func (c *courier) transmit() {
	c.waited += c.n.eng.Now().Sub(c.t0)
	c.n.eng.After(c.l.lat+sim.BytesAt(c.chunk, c.l.bw), c.nextFn)
}

// next releases the link after a chunk and moves on: the hop's next chunk,
// the path's next hop, or delivery.
func (c *courier) next() {
	n, l := c.n, c.l
	l.res.Release()
	c.remaining -= c.chunk
	if c.remaining > 0 {
		c.acquire()
		return
	}
	hop := c.path[c.hop]
	if n.Obs.Enabled() && n.isHost(hop[1]) {
		n.Obs.ObserveDur(int(c.env.Src), "storage.hostlink_queue_wait", c.waited)
	}
	l.bytes += int64(c.env.Size)
	l.msgs++
	if hop[1] != c.env.Dst && n.TransitHook != nil {
		n.TransitHook(hop[1], c.env.Size)
	}
	c.hop++
	if c.hop < len(c.path) {
		c.beginHop()
		return
	}
	if c.faultDelay > 0 {
		n.eng.After(c.faultDelay, c.arriveFn)
		return
	}
	c.arrive()
}

// arrive hands the envelope to the pair's resequencer and returns the
// courier to the free list.
func (c *courier) arrive() {
	n := c.n
	n.arrive(c.pair, c.pairSeq, c.env, c.dropped)
	*c = courier{n: n, beginFn: c.beginFn, transmitFn: c.transmitFn, nextFn: c.nextFn, arriveFn: c.arriveFn}
	n.couriers = append(n.couriers, c)
}

// arrival is one transport completion awaiting in-order delivery. Dropped
// arrivals advance the sequence without a handoff: the envelope is lost, but
// later traffic on the pair is not stalled behind it.
type arrival struct {
	env     *Envelope
	dropped bool
}

// arrive re-sequences packetized arrivals so each (src,dst) pair delivers in
// send order, then hands envelopes to the destination.
func (n *Network) arrive(pair [2]NodeID, pairSeq uint64, env *Envelope, dropped bool) {
	expected := n.nextRcv[pair] + 1
	if pairSeq != expected {
		hm := n.held[pair]
		if hm == nil {
			hm = make(map[uint64]arrival)
			n.held[pair] = hm
		}
		hm[pairSeq] = arrival{env: env, dropped: dropped}
		return
	}
	if !dropped {
		n.handoff(env)
	}
	n.nextRcv[pair] = expected
	for {
		next, ok := n.held[pair][n.nextRcv[pair]+1]
		if !ok {
			return
		}
		delete(n.held[pair], n.nextRcv[pair]+1)
		n.nextRcv[pair]++
		if !next.dropped {
			n.handoff(next.env)
		}
	}
}

func (n *Network) handoff(env *Envelope) {
	if h := n.deliver[env.Dst]; h != nil {
		h(env)
	}
}

// LinkStats describes accumulated traffic on one directed link.
type LinkStats struct {
	From, To NodeID
	Bytes    int64
	Msgs     int64
	Busy     sim.Duration
}

// HostLinkStatsOf returns traffic stats of the mesh→host direction of host
// link i, the principal bottleneck for checkpoint traffic to that server.
func (n *Network) HostLinkStatsOf(i int) LinkStats {
	key := [2]NodeID{n.cfg.AttachOf(i), n.cfg.HostID(i)}
	l := n.links[key]
	return LinkStats{From: key[0], To: key[1], Bytes: l.bytes, Msgs: l.msgs, Busy: l.res.BusyTime()}
}

// HostLinkStats returns traffic stats of the mesh→host direction of the
// first host link (the only one on the legacy single-server machine).
func (n *Network) HostLinkStats() LinkStats { return n.HostLinkStatsOf(0) }

// TotalTraffic returns the total number of messages and payload bytes
// injected since the network was created.
func (n *Network) TotalTraffic() (msgs, bytes int64) { return n.totalMsgs, n.totalBytes }

// DebugHeld reports how many envelopes sit in reorder buffers per pair
// (test/diagnostic helper).
func DebugHeld(n *Network) map[[2]NodeID]int {
	out := map[[2]NodeID]int{}
	for pair, hm := range n.held {
		if len(hm) > 0 {
			out[pair] = len(hm)
		}
	}
	return out
}
