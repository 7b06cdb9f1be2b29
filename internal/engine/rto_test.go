package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// rtoFabric is a two-node fabric with one server whose handler checks that
// the request is the pattern of its own length, computes for work, counts
// its executions and answers eight bytes.
type rtoFabric struct {
	env            *sim.Env
	cl             *simnet.Cluster
	srvEng, cliEng *Engine
	srvReg, cliReg *obs.Registry
	runs           int
}

var rtoReply = []byte("answered")

func newRTOFabric(t *testing.T, deadline, work sim.Duration) *rtoFabric {
	f := &rtoFabric{env: sim.NewEnv(17), srvReg: obs.NewRegistry(), cliReg: obs.NewRegistry()}
	f.cl = simnet.NewCluster(f.env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cfg := DefaultConfig()
	cfg.CallDeadline = deadline
	f.srvEng, f.cliEng = New(f.cl.Node(0), cfg), New(f.cl.Node(1), cfg)
	f.srvEng.SetObs(f.srvReg)
	f.cliEng.SetObs(f.cliReg)
	f.srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		f.runs++
		if !bytes.Equal(req, pattern(len(req))) {
			t.Errorf("handler got a %d-byte request that is not the pattern it was sent as", len(req))
		}
		if work > 0 {
			f.srvEng.Node().CPU.Compute(p, work)
		}
		return rtoReply
	})
	return f
}

// client runs body as the fabric's one client process and stops the
// simulation when it returns.
func (f *rtoFabric) client(body func(p *sim.Proc)) {
	f.env.Spawn("client", func(p *sim.Proc) {
		body(p)
		f.env.Stop()
	})
	f.env.Run()
}

func (f *rtoFabric) retries() int64 { return f.cliReg.Counter("engine.retries").Value() }
func (f *rtoFabric) dups() int64    { return f.srvReg.Counter("engine.dup_requests").Value() }

// callCost is what one call cost end to end: its latency, the
// retransmissions and duplicate deliveries it caused, the payload bytes
// the client engine accounted and the time the client's NIC spent
// serialising — every byte the call put on the wire, control traffic and
// any second copy of the request included.
type callCost struct {
	lat           sim.Duration
	retries, dups int64
	bytesSent     int64
	txBusy        int64
}

// measure makes one call and lets its trailing traffic (FINs, duplicate
// responses) drain before it reads the counters again.
func (f *rtoFabric) measure(t *testing.T, p *sim.Proc, c *Conn, proto Protocol, size int) callCost {
	t.Helper()
	before := callCost{retries: f.retries(), dups: f.dups(), bytesSent: ctr(f.cliEng, "engine.bytes_sent."), txBusy: f.cliEng.Node().TX.BusyNs()}
	start := p.Now()
	got, err := c.Call(p, 1, pattern(size), CallOpts{Proto: proto, Busy: true})
	lat := sim.Duration(p.Now() - start)
	if err != nil || !bytes.Equal(got, rtoReply) {
		t.Fatalf("%d-byte %s call: %q, %v", size, proto, got, err)
	}
	p.Sleep(1_000_000)
	return callCost{
		lat:       lat,
		retries:   f.retries() - before.retries,
		dups:      f.dups() - before.dups,
		bytesSent: ctr(f.cliEng, "engine.bytes_sent.") - before.bytesSent,
		txBusy:    f.cliEng.Node().TX.BusyNs() - before.txBusy,
	}
}

// sentOnceRun makes four calls on a connection and then the first call of
// a second one, which has no response time to go by yet.
func sentOnceRun(t *testing.T, proto Protocol, size int, work, deadline sim.Duration) []callCost {
	f := newRTOFabric(t, deadline, work)
	var calls []callCost
	f.client(func(p *sim.Proc) {
		c := f.cliEng.Dial(p, f.srvEng.Node(), "svc")
		for i := 0; i < 4; i++ {
			calls = append(calls, f.measure(t, p, c, proto, size))
		}
		calls = append(calls, f.measure(t, p, f.cliEng.Dial(p, f.srvEng.Node(), "svc"), proto, size))
	})
	if f.runs != len(calls) {
		t.Errorf("handler ran %d times for %d calls", f.runs, len(calls))
	}
	assertNoLeaks(t, f.srvEng, f.cliEng)
	return calls
}

// TestSentOnce: on a fault-free fabric a deadline buys a call nothing but
// the deadline. A request that is slow because it is long is sent once
// from the engines' very first call on — cold rendezvous pools and a
// connection with no response time to go by included — because no timer
// runs over the silence its length explains. A request that is slow
// because its handler takes four base timers is sent once from a
// connection's second call on. Sent once means: no retransmission, no
// duplicate at the server, the wire time of the same call without a
// deadline, and its latency to the nanosecond.
func TestSentOnce(t *testing.T) {
	cases := []struct {
		name string
		size int
		work sim.Duration
	}{
		{"512B+200us", 512, 200_000},
		{"64KB", 64 << 10, 0},
		{"1MB", 1 << 20, 0},
	}
	for _, tc := range cases {
		for _, proto := range []Protocol{EagerSendRecv, DirectWriteIMM, WriteRNDV, ReadRNDV, HybridEagerRNDV, RFP} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, proto), func(t *testing.T) {
				bounded := sentOnceRun(t, proto, tc.size, tc.work, 5_000_000)
				free := sentOnceRun(t, proto, tc.size, tc.work, 0)
				for i, got := range bounded {
					what, want := fmt.Sprintf("call %d", i+1), free[i]
					if i == len(bounded)-1 {
						what = "first call of a second connection"
					}
					if tc.work > 0 {
						// Nothing tells a connection's first call that the
						// handler is slow: it is re-sent (DESIGN.md §9). The
						// call after it still meets its duplicate responses (a
						// rendezvous response is not delivered to a client
						// between calls) but must add none of its own.
						switch i {
						case 0, len(bounded) - 1:
							continue
						case 1:
							want.lat, want.txBusy = got.lat, got.txBusy
						}
					}
					if got.retries != 0 || got.dups != 0 {
						t.Errorf("%s: %d retransmissions, %d duplicate requests at the server, want none", what, got.retries, got.dups)
					}
					if got.bytesSent != int64(tc.size) {
						t.Errorf("%s: connection accounted %d payload bytes for a %d-byte request", what, got.bytesSent, tc.size)
					}
					if got.txBusy != want.txBusy {
						t.Errorf("%s: client NIC serialised for %d ns, %d ns without a deadline", what, got.txBusy, want.txBusy)
					}
					if got.lat != want.lat {
						t.Errorf("%s: took %d ns, %d ns without a deadline", what, got.lat, want.lat)
					}
				}
				t.Logf("no deadline %d ns; with one: first call %d ns (%d retransmissions), steady %d ns (%d), first call of a second connection %d ns (%d)",
					free[2].lat, bounded[0].lat, bounded[0].retries, bounded[2].lat, bounded[2].retries, bounded[4].lat, bounded[4].retries)
			})
		}
	}
}

// TestFinishedCallLeavesNoTimer: the wake a bounded wait arms is stopped
// when the wait ends. Left armed, it would keep the event queue alive
// past the last call — the clock would run on to it — and fire into
// whichever wait the connection is in by then.
func TestFinishedCallLeavesNoTimer(t *testing.T) {
	for _, proto := range []Protocol{EagerSendRecv, WriteRNDV, RFP} {
		t.Run(proto.String(), func(t *testing.T) {
			f := newRTOFabric(t, 5_000_000, 0)
			var done sim.Time
			f.env.Spawn("client", func(p *sim.Proc) {
				c := f.cliEng.Dial(p, f.srvEng.Node(), "svc")
				for i := 0; i < 3; i++ {
					if _, err := c.Call(p, 1, pattern(8<<10), CallOpts{Proto: proto}); err != nil {
						t.Fatal(err)
					}
				}
				done = p.Now()
			})
			// No Stop: the run ends when nothing is left to happen, which
			// must be the last call's trailing traffic, not its timers.
			if end := f.env.Run(); end-done >= retryBackoffBaseNs/2 {
				t.Errorf("events kept firing until %d ns after the last call returned: its wait left a wake armed", end-done)
			}
		})
	}
}

// TestRTOEstimator pins the timer's arithmetic: the floor, the first
// sample, convergence on a steady response time, and the guess retained
// from a call that was re-sent — large enough to have let that call
// through, capped at a quarter of the next call's budget, kept until a
// sample replaces it and never built upon.
func TestRTOEstimator(t *testing.T) {
	const budget = 5_000_000
	var e rtoEstimator
	if got := e.timer(budget); got != retryBackoffBaseNs {
		t.Errorf("unsampled timer %v, want the base", got)
	}
	for i := 0; i < 50; i++ {
		e.observe(9_000)
		if got := e.timer(budget); got != retryBackoffBaseNs {
			t.Fatalf("sample %d of a 9 µs response: timer %v, want the base", i, got)
		}
	}
	e = rtoEstimator{}
	e.observe(208_000)
	if got, want := e.timer(budget), sim.Duration(208_000+4*104_000); got != want {
		t.Errorf("first 208 µs sample: timer %v, want %v (R + 4·R/2)", got, want)
	}
	for i := 0; i < 40; i++ {
		e.observe(208_000)
	}
	if got := e.timer(budget); got < 208_000 || got > 210_000 {
		t.Errorf("steady 208 µs response: timer %v, want just above it", got)
	}

	for _, tc := range []struct{ inForce, elapsed, want sim.Duration }{
		{200_000, 150_000, 200_000},     // covered: kept as it is
		{200_000, 208_000, 400_000},     // one doubling short of a 200 µs handler
		{400_000, 1_008_000, 1_250_000}, // capped far below a 1 ms one: 1.6 ms, of which a 5 ms budget grants a quarter
	} {
		e = rtoEstimator{}
		e.retain(tc.inForce, tc.elapsed)
		if got := e.timer(budget); got != tc.want {
			t.Errorf("timer %v in force, answered after %v: next call gets %v, want %v", tc.inForce, tc.elapsed, got, tc.want)
		}
		e.retain(3_200_000, 4_000_000) // that call was re-sent too, under loss
		if got := e.timer(budget); got != tc.want {
			t.Errorf("a call that started from the guess moved it to %v, want %v still", got, tc.want)
		}
		e.observe(9_000)
		if got := e.timer(budget); got != retryBackoffBaseNs {
			t.Errorf("timer %v after a sample, want the measured one again", got)
		}
	}
	e = rtoEstimator{}
	e.observe(900_000)
	e.retain(100_000, 120_000)
	if got := e.timer(budget); got != 900_000+4*450_000 {
		t.Errorf("a 200 µs guess under a measured 2.7 ms timer: next call gets %v, want the measured one", got)
	}
}

// TestSlowHandlerConverges: a handler slower than the doubling ceiling.
// The first call is re-sent (nothing is known yet) and so yields no sample;
// the retained timer must still grow past the handler, or every later call
// would be re-sent at the ceiling for the life of the connection.
func TestSlowHandlerConverges(t *testing.T) {
	f := newRTOFabric(t, 5_000_000, 1_000_000)
	f.client(func(p *sim.Proc) {
		c := f.cliEng.Dial(p, f.srvEng.Node(), "svc")
		first := f.measure(t, p, c, EagerSendRecv, 512)
		if first.retries == 0 {
			t.Error("a connection's first 1 ms call was not re-sent: the test no longer tests convergence")
		}
		for i := 2; i <= 4; i++ {
			if got := f.measure(t, p, c, EagerSendRecv, 512); got.retries != 0 || got.dups != 0 {
				t.Errorf("call %d: %d retransmissions, %d duplicates", i, got.retries, got.dups)
			}
		}
	})
	if f.runs != 4 {
		t.Errorf("handler ran %d times for 4 calls", f.runs)
	}
}

// Scripted-loss reference points, measured with this file's scenarios on
// the commit before the timer became adaptive (fixed 50 µs first wait, no
// exit on transport errors): see CHANGES.md, PR 17.
const (
	parentRequestLostNs   = 262_576 // TestScriptedLossRequest's call, request dropped
	parentResponseLostNs  = 362_576 // TestScriptedLossResponse's call, response dropped (3 retransmissions)
	parentDeadLinkRetries = 7       // TestScriptedLossDeadLink's call, 2 ms deadline
)

// lossFabric is rtoFabric with a 200 µs handler and a connection whose
// timer has settled on it.
func lossFabric(t *testing.T, deadline sim.Duration, body func(f *rtoFabric, p *sim.Proc, c *Conn)) *rtoFabric {
	f := newRTOFabric(t, deadline, 200_000)
	f.client(func(p *sim.Proc) {
		c := f.cliEng.Dial(p, f.srvEng.Node(), "svc")
		for i := 0; i < 12; i++ {
			f.measure(t, p, c, EagerSendRecv, 512)
		}
		body(f, p, c)
	})
	return f
}

// TestScriptedLossRequest: the request is lost. The NIC reports it at the
// RC retry timeout, and the attempt ends there instead of sleeping on to
// its timer: the call completes no later than it did when the timer was a
// fixed 50 µs — although the timer itself is now four times that.
func TestScriptedLossRequest(t *testing.T) {
	f := lossFabric(t, 5_000_000, func(f *rtoFabric, p *sim.Proc, c *Conn) {
		healthy := f.measure(t, p, c, EagerSendRecv, 512)
		f.cl.InstallFaults(simnet.FaultConfig{DropNth: []simnet.NthDrop{{From: f.cliEng.Node().ID(), To: f.srvEng.Node().ID(), N: 1}}})
		runs := f.runs
		got := f.measure(t, p, c, EagerSendRecv, 512)
		if got.retries != 1 || f.runs != runs+1 {
			t.Errorf("%d retransmissions, %d executions, want one of each", got.retries, f.runs-runs)
		}
		if got.lat > parentRequestLostNs {
			t.Errorf("lost request recovered in %d ns, %d ns with the fixed timer", got.lat, parentRequestLostNs)
		}
		cm := f.cliEng.dev.CostModel()
		if over := got.lat - healthy.lat; over > sim.Duration(cm.RetryTimeoutNs+cm.QPRecoverNs+2_000) {
			t.Errorf("lost request cost %d ns over a healthy call: more than the RC retry timeout and a QP recovery", over)
		}
		t.Logf("healthy %d ns, request lost %d ns (fixed timer: %d ns)", healthy.lat, got.lat, parentRequestLostNs)
	})
	assertNoLeaks(t, f.srvEng, f.cliEng)
}

// TestScriptedLossResponse: the response is lost. Nothing fails at the
// client — the loss is the server's — so only the timer can tell: the
// request is re-sent when the measured timer runs out, the server answers
// it from its dedup cache, and the call ends within one timer of a
// healthy one with the right bytes after one execution.
func TestScriptedLossResponse(t *testing.T) {
	f := lossFabric(t, 5_000_000, func(f *rtoFabric, p *sim.Proc, c *Conn) {
		timer := c.rto.timer(5_000_000)
		f.cl.InstallFaults(simnet.FaultConfig{DropNth: []simnet.NthDrop{{From: f.srvEng.Node().ID(), To: f.cliEng.Node().ID(), N: 1}}})
		runs := f.runs
		got := f.measure(t, p, c, EagerSendRecv, 512)
		if got.retries != 1 || got.dups != 1 || f.runs != runs+1 {
			t.Errorf("%d retransmissions, %d duplicates, %d executions, want one of each", got.retries, got.dups, f.runs-runs)
		}
		if got.lat < timer || got.lat > timer+20_000 {
			t.Errorf("lost response recovered in %d ns, want within 20 µs after the %d ns timer", got.lat, timer)
		}
		if got.lat > parentResponseLostNs {
			t.Errorf("lost response recovered in %d ns, %d ns with the fixed timer", got.lat, parentResponseLostNs)
		}
		t.Logf("timer %d ns, response lost %d ns (fixed timer: %d ns)", timer, got.lat, parentResponseLostNs)
	})
	assertNoLeaks(t, f.srvEng, f.cliEng)
}

// TestScriptedLossDeadLink: every message is lost from here on. The first
// retransmission leaves early, on the NIC's report; after that the link is
// probed at the timer's exponential spacing — no more often than when the
// timer was fixed, and with the same typed error at the deadline and
// nothing left pinned.
func TestScriptedLossDeadLink(t *testing.T) {
	// The error says whether the QP was in the error state at the deadline:
	// RFP's fetch loop recovers it between its READs.
	for _, tc := range []struct {
		proto Protocol
		want  error
	}{{EagerSendRecv, ErrPeerDown}, {WriteRNDV, ErrPeerDown}, {RFP, ErrDeadline}} {
		proto, want := tc.proto, tc.want
		t.Run(proto.String(), func(t *testing.T) {
			f := newRTOFabric(t, 2_000_000, 0)
			f.client(func(p *sim.Proc) {
				c := f.cliEng.Dial(p, f.srvEng.Node(), "svc")
				f.measure(t, p, c, proto, 512)
				f.cl.InstallFaults(simnet.FaultConfig{DropProb: 1.0})
				before, start := f.retries(), p.Now()
				_, err := c.Call(p, 1, pattern(512), CallOpts{Proto: proto, Busy: true})
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want %v as with the fixed timer", err, want)
				}
				if took := p.Now() - start; took < 2_000_000 || took > 2_030_000 {
					t.Errorf("call returned after %d ns of a 2 ms deadline", took)
				}
				if n := f.retries() - before; n > parentDeadLinkRetries {
					t.Errorf("%d retransmissions into a dead link, %d with the fixed timer", n, parentDeadLinkRetries)
				} else {
					t.Logf("%d retransmissions (fixed timer: %d), %v", n, parentDeadLinkRetries, err)
				}
				c.Close()
			})
			f.cliEng.Close()
			if got := f.cliEng.PinnedBytes(); got != 0 {
				t.Errorf("%d bytes pinned after the failed call and Close", got)
			}
		})
	}
}
