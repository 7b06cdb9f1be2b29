package engine

import (
	"testing"

	"hatrpc/internal/sim"
)

// TestHybridSwitchBoundary pins the rendezvous switchover boundary for
// both hybrid protocols: payloads up to AND INCLUDING the threshold
// travel eagerly, strictly larger ones go rendezvous (DESIGN.md's 4 KB
// Hybrid-EagerRNDV threshold).
func TestHybridSwitchBoundary(t *testing.T) {
	const th = DefaultRndvThreshold
	cases := []struct {
		proto Protocol
		size  int
		want  Protocol
	}{
		{HybridEagerRNDV, 0, EagerSendRecv},
		{HybridEagerRNDV, th - 1, EagerSendRecv},
		{HybridEagerRNDV, th, EagerSendRecv},
		{HybridEagerRNDV, th + 1, WriteRNDV},
		{HybridEagerRead, th, EagerSendRecv},
		{HybridEagerRead, th + 1, ReadRNDV},
		// Non-hybrids pass through untouched regardless of size.
		{WriteRNDV, 1, WriteRNDV},
		{EagerSendRecv, th + 1, EagerSendRecv},
	}
	for _, c := range cases {
		if got := hybridSwitch(c.proto, c.size); got != c.want {
			t.Errorf("hybridSwitch(%s, %d) = %s, want %s", c.proto, c.size, got, c.want)
		}
	}
}

// TestResolveBoundaryMatchesBehavior checks the boundary end-to-end on
// both directions: a threshold-sized payload through a hybrid touches no
// rendezvous pool buffer (eager path), threshold+1 does.
func TestResolveBoundaryMatchesBehavior(t *testing.T) {
	const th = DefaultRndvThreshold
	allocs := func(reqSize, respSize int) (srvAllocs, cliAllocs int64) {
		env, srvEng, cliEng := testCluster(21)
		observe(srvEng, cliEng)
		srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
			return make([]byte, respSize)
		})
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			if _, err := c.Call(p, 1, make([]byte, reqSize),
				CallOpts{Proto: HybridEagerRNDV, RespProto: HybridEagerRNDV, Busy: true}); err != nil {
				t.Error(err)
			}
			env.Stop()
		})
		env.Run()
		// Request rendezvous allocates at the server (grant), response
		// rendezvous at the client.
		return ctr(srvEng, "engine.rndv_pool.miss"), ctr(cliEng, "engine.rndv_pool.miss")
	}
	if s, c := allocs(th, th); s != 0 || c != 0 {
		t.Errorf("threshold-sized req/resp used rendezvous (srv=%d cli=%d allocs), want eager", s, c)
	}
	if s, _ := allocs(th+1, th); s == 0 {
		t.Error("threshold+1 request did not use rendezvous")
	}
	if _, c := allocs(th, th+1); c == 0 {
		t.Error("threshold+1 response did not use rendezvous")
	}
}
