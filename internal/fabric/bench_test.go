package fabric

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNetworkSend measures the host cost of one remote message end to
// end: Send, a 4-hop contended courier, resequencing and delivery. One op is
// one message, so benchstat compares transports per message;
// BenchmarkNetworkSendGoroutineRef runs the same traffic through the
// goroutine courier kept as the test reference.
func BenchmarkNetworkSend(b *testing.B) { benchmarkSend(b, (*Network).Send) }

func BenchmarkNetworkSendGoroutineRef(b *testing.B) { benchmarkSend(b, (*Network).refSend) }

func benchmarkSend(b *testing.B, send func(*Network, *sim.Proc, *Envelope)) {
	const batch = 64
	s := newSteadySender(b, 1024, batch, send)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		s.cycle(b)
	}
}
