package fabric

import (
	"testing"

	"repro/internal/sim"
)

// alloc_test.go — deterministic pins on the transport's host cost. A remote
// message is carried by a recycled courier whose callbacks are bound once,
// so in steady state Send allocates nothing and spawns no process; these
// tests fail on a regression instead of leaving it to the noisy wall clock.

// steadySender is a warmed-up network with a batch of reusable envelopes
// that Send from one engine event: every remote hop contends on the same
// links, so the run exercises queued link grants as well as free ones.
type steadySender struct {
	e    *sim.Engine
	n    *Network
	envs []Envelope
	fire func()
}

func newSteadySender(t testing.TB, packetBytes, batch int, send func(*Network, *sim.Proc, *Envelope)) *steadySender {
	cfg := testConfig()
	cfg.PacketBytes = packetBytes
	s := &steadySender{e: sim.New(), envs: make([]Envelope, batch)}
	s.n = New(s.e, cfg)
	s.n.SetDeliver(7, func(*Envelope) {})
	s.fire = func() {
		for i := range s.envs {
			s.envs[i] = Envelope{Src: 0, Dst: 7, Size: 3000}
			send(s.n, nil, &s.envs[i])
		}
	}
	s.cycle(t)
	return s
}

// cycle sends one batch and runs the engine until every envelope arrived.
func (s *steadySender) cycle(t testing.TB) {
	s.e.At(s.e.Now(), s.fire)
	if err := s.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsNetworkSend pins steady-state remote transport — admission, the
// multi-hop courier with queued and free link grants, resequencing and
// delivery — at zero allocations per message, with and without
// packetization.
func TestAllocsNetworkSend(t *testing.T) {
	const batch = 64
	for _, pb := range []int{0, 1024} {
		s := newSteadySender(t, pb, batch, (*Network).Send)
		perCycle := testing.AllocsPerRun(100, func() { s.cycle(t) })
		if perMsg := perCycle / batch; perMsg != 0 {
			t.Errorf("PacketBytes=%d: steady-state remote Send allocates %.3f objects per message, want 0", pb, perMsg)
		}
	}
}

// TestSendSpawnsNoProcesses pins the transport's process count: remote
// messages travel as engine events, so N sends leave the engine's spawn
// counter where it was.
func TestSendSpawnsNoProcesses(t *testing.T) {
	s := newSteadySender(t, 512, 32, (*Network).Send)
	before := s.e.Stats().ProcsSpawned
	for i := 0; i < 10; i++ {
		s.cycle(t)
	}
	if after := s.e.Stats().ProcsSpawned; after != before {
		t.Fatalf("320 remote sends spawned %d processes, want 0", after-before)
	}
}
