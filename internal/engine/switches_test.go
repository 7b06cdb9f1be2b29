package engine

import (
	"fmt"
	"testing"

	"hatrpc/internal/sim"
)

// switchesPerCall runs two warming echoes of size bytes and returns the
// kernel's counts over a third, with the client and the server's
// dispatcher both polling as busy says.
func switchesPerCall(t *testing.T, proto Protocol, size int, busy bool) sim.Counts {
	env, srvEng, cliEng := testCluster(14)
	srv := srvEng.Serve("svc", benchEchoHandler)
	srv.Busy = busy
	req := pattern(size)
	var before, after sim.Counts
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		conn := cliEng.Dial(p, srvEng.Node(), "svc")
		for i := 0; i < 3; i++ {
			if i == 2 {
				before = env.Counts()
			}
			if _, err := conn.Call(p, 1, req, CallOpts{Proto: proto, Busy: busy}); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		after = env.Counts()
	})
	env.Run()
	return sim.Counts{
		Fired:        after.Fired - before.Fired,
		Dispatches:   after.Dispatches - before.Dispatches,
		Inline:       after.Inline - before.Inline,
		CallbackGaps: after.CallbackGaps - before.CallbackGaps,
	}
}

// TestSwitchesPerCall pins the DES kernel's work for one warmed echo on
// an idle pair of nodes, by protocol, polling and size: events fired,
// dispatches (a coroutine switch there and back), waits continued inline,
// and dispatches after a park in which only callbacks fired. A call needs
// two dispatches, the server's and the caller's wake; the callback-gap
// ones are all a receive wait that went on without parking could save
// (ROADMAP item 22). The counts move with the event order or with how
// the engine waits, never with host-side work.
func TestSwitchesPerCall(t *testing.T) {
	cases := []struct {
		proto Protocol
		busy  bool
		size  int
		want  sim.Counts
	}{
		{EagerSendRecv, true, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 12, CallbackGaps: 0}},
		{EagerSendRecv, true, 8192, sim.Counts{Fired: 44, Dispatches: 10, Inline: 16, CallbackGaps: 8}},
		{EagerSendRecv, false, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 12, CallbackGaps: 0}},
		{EagerSendRecv, false, 8192, sim.Counts{Fired: 44, Dispatches: 10, Inline: 16, CallbackGaps: 8}},
		{DirectWriteSend, true, 64, sim.Counts{Fired: 26, Dispatches: 4, Inline: 4, CallbackGaps: 2}},
		{DirectWriteSend, true, 8192, sim.Counts{Fired: 28, Dispatches: 4, Inline: 4, CallbackGaps: 2}},
		{DirectWriteSend, false, 64, sim.Counts{Fired: 26, Dispatches: 4, Inline: 4, CallbackGaps: 2}},
		{DirectWriteSend, false, 8192, sim.Counts{Fired: 28, Dispatches: 4, Inline: 4, CallbackGaps: 2}},
		{ChainedWriteSend, true, 64, sim.Counts{Fired: 22, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{ChainedWriteSend, true, 8192, sim.Counts{Fired: 24, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{ChainedWriteSend, false, 64, sim.Counts{Fired: 22, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{ChainedWriteSend, false, 8192, sim.Counts{Fired: 24, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{WriteRNDV, true, 64, sim.Counts{Fired: 38, Dispatches: 6, Inline: 12, CallbackGaps: 0}},
		{WriteRNDV, true, 8192, sim.Counts{Fired: 40, Dispatches: 6, Inline: 12, CallbackGaps: 0}},
		{WriteRNDV, false, 64, sim.Counts{Fired: 38, Dispatches: 6, Inline: 12, CallbackGaps: 0}},
		{WriteRNDV, false, 8192, sim.Counts{Fired: 40, Dispatches: 6, Inline: 12, CallbackGaps: 0}},
		{ReadRNDV, true, 64, sim.Counts{Fired: 48, Dispatches: 10, Inline: 8, CallbackGaps: 8}},
		{ReadRNDV, true, 8192, sim.Counts{Fired: 48, Dispatches: 10, Inline: 8, CallbackGaps: 8}},
		{ReadRNDV, false, 64, sim.Counts{Fired: 46, Dispatches: 8, Inline: 10, CallbackGaps: 2}},
		{ReadRNDV, false, 8192, sim.Counts{Fired: 46, Dispatches: 8, Inline: 10, CallbackGaps: 2}},
		{DirectWriteIMM, true, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{DirectWriteIMM, true, 8192, sim.Counts{Fired: 16, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{DirectWriteIMM, false, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{DirectWriteIMM, false, 8192, sim.Counts{Fired: 16, Dispatches: 2, Inline: 4, CallbackGaps: 0}},
		{Pilaf, true, 64, sim.Counts{Fired: 51, Dispatches: 8, Inline: 13, CallbackGaps: 6}},
		{Pilaf, true, 8192, sim.Counts{Fired: 73, Dispatches: 15, Inline: 12, CallbackGaps: 9}},
		{Pilaf, false, 64, sim.Counts{Fired: 52, Dispatches: 9, Inline: 12, CallbackGaps: 5}},
		{Pilaf, false, 8192, sim.Counts{Fired: 73, Dispatches: 16, Inline: 11, CallbackGaps: 10}},
		{FaRM, true, 64, sim.Counts{Fired: 41, Dispatches: 7, Inline: 11, CallbackGaps: 5}},
		{FaRM, true, 8192, sim.Counts{Fired: 63, Dispatches: 14, Inline: 10, CallbackGaps: 8}},
		{FaRM, false, 64, sim.Counts{Fired: 42, Dispatches: 8, Inline: 10, CallbackGaps: 4}},
		{FaRM, false, 8192, sim.Counts{Fired: 63, Dispatches: 15, Inline: 9, CallbackGaps: 9}},
		{RFP, true, 64, sim.Counts{Fired: 18, Dispatches: 3, Inline: 4, CallbackGaps: 1}},
		{RFP, true, 8192, sim.Counts{Fired: 42, Dispatches: 7, Inline: 7, CallbackGaps: 5}},
		{RFP, false, 64, sim.Counts{Fired: 30, Dispatches: 6, Inline: 5, CallbackGaps: 2}},
		{RFP, false, 8192, sim.Counts{Fired: 41, Dispatches: 7, Inline: 7, CallbackGaps: 3}},
		{HERD, true, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 8, CallbackGaps: 0}},
		{HERD, true, 8192, sim.Counts{Fired: 29, Dispatches: 6, Inline: 10, CallbackGaps: 4}},
		{HERD, false, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 8, CallbackGaps: 0}},
		{HERD, false, 8192, sim.Counts{Fired: 29, Dispatches: 6, Inline: 10, CallbackGaps: 4}},
		{HybridEagerRNDV, true, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 12, CallbackGaps: 0}},
		{HybridEagerRNDV, true, 8192, sim.Counts{Fired: 40, Dispatches: 6, Inline: 12, CallbackGaps: 0}},
		{HybridEagerRNDV, false, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 12, CallbackGaps: 0}},
		{HybridEagerRNDV, false, 8192, sim.Counts{Fired: 40, Dispatches: 6, Inline: 12, CallbackGaps: 0}},
		{HybridEagerRead, true, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 12, CallbackGaps: 0}},
		{HybridEagerRead, true, 8192, sim.Counts{Fired: 48, Dispatches: 10, Inline: 8, CallbackGaps: 8}},
		{HybridEagerRead, false, 64, sim.Counts{Fired: 12, Dispatches: 2, Inline: 12, CallbackGaps: 0}},
		{HybridEagerRead, false, 8192, sim.Counts{Fired: 46, Dispatches: 8, Inline: 10, CallbackGaps: 2}},
	}
	if len(cases) != 4*len(AllProtocols) {
		t.Fatalf("%d cases, want both pollings at two sizes of each of %d protocols", len(cases), len(AllProtocols))
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/busy=%v/%d", c.proto, c.busy, c.size), func(t *testing.T) {
			if got := switchesPerCall(t, c.proto, c.size, c.busy); got != c.want {
				t.Errorf("kernel counts per call %+v, want %+v", got, c.want)
			}
		})
	}
}
