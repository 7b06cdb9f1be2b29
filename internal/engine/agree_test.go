package engine

import (
	"bytes"
	"fmt"
	"testing"

	"hatrpc/internal/hatdebug"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// agreeSizes are the call sizes a script picks from: inline, either side
// of the eager slot (the rendezvous threshold), 64 KB and 100 KB.
var agreeSizes = [...]int{64, 4096, 4097, 64 << 10, 100_000}

// agreeCall is one call of a script. A oneway's handler replies with
// nothing, as a generated processor answers a oneway function
// (trdma.Table.Serve): to the engine it is a call with an empty reply.
type agreeCall struct {
	caller, size int
	oneway       bool
}

// agreeScript is what FuzzProtocolsAgree runs on every protocol: calls
// spread over one to three callers, each caller with a connection of its
// own, and one fault installed once every caller has dialed.
type agreeScript struct {
	callers int
	calls   []agreeCall
	fault   func(now int64, srv, cli int) simnet.FaultConfig
}

// maxAgreeCalls bounds a script, so that one input stays a few
// milliseconds of simulated time on each of the 24 runs.
const maxAgreeCalls = 6

// decodeScript reads a script from fuzzer bytes: the callers, the fault
// and its two parameters, then one byte a call (its size, its oneway flag
// and its caller). It reports false for too few bytes to name a call.
func decodeScript(data []byte) (agreeScript, bool) {
	if len(data) < 5 {
		return agreeScript{}, false
	}
	s := agreeScript{callers: 1 + int(data[0])%3}
	kind, toClient := data[1]%4, data[1]&4 != 0
	a, b := int64(data[2]), int64(data[3])
	s.fault = func(now int64, srv, cli int) simnet.FaultConfig {
		from, to := cli, srv
		if toClient {
			from, to = srv, cli
		}
		switch kind {
		case 1: // the a-th packet of one direction is lost
			return simnet.FaultConfig{DropNth: []simnet.NthDrop{{From: from, To: to, N: 1 + int(a%64)}}}
		case 2: // one direction goes dark for up to 1.6 ms
			start := now + a*10_000
			return simnet.FaultConfig{OneWayCuts: []simnet.LinkCut{{From: from, To: to, StartNs: start, EndNs: start + (1+b%32)*50_000}}}
		case 3: // the receiving node stalls for up to 80 µs in every period
			return simnet.FaultConfig{PausePeriodNs: (1 + a%8) * 100_000, PauseForNs: (1 + b%8) * 10_000, PausedNodes: []int{to}}
		}
		return simnet.FaultConfig{}
	}
	for _, c := range data[4:min(len(data), 4+maxAgreeCalls)] {
		s.calls = append(s.calls, agreeCall{caller: int(c>>4) % s.callers, size: agreeSizes[int(c&7)%len(agreeSizes)], oneway: c&8 != 0})
	}
	return s, true
}

// agreeRequest is call i's request: every byte below 200, so no request
// is ever the sanitizer's poison.
func agreeRequest(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte((j*7 + i*13) % 200)
	}
	return b
}

// agreeRun is what one protocol did with a script: a call is acked when
// Call returns its reply.
type agreeRun struct {
	acked []bool // per call: returned no error
	runs  []int  // per call: how often its handler ran
}

// runScript runs s with every call on proto and busy, on a fresh env. It
// checks the bytes each handler read and each caller was answered with,
// and that rings and pinned bytes come back; the caller checks the counts.
func runScript(t *testing.T, s agreeScript, proto Protocol, busy bool) agreeRun {
	t.Helper()
	largest := 0
	for _, c := range s.calls {
		largest = max(largest, c.size)
	}
	env := sim.NewEnv(27)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cfg := DefaultConfig()
	cfg.CallDeadline = LossDeadline(largest, 0.01)
	srvEng, cliEng := New(cl.Node(0), cfg), New(cl.Node(1), cfg)
	observe(srvEng, cliEng)

	r := agreeRun{acked: make([]bool, len(s.calls)), runs: make([]int, len(s.calls))}
	replies := make([][]byte, len(s.calls))
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		i := int(fn) - 1
		if i < 0 || i >= len(s.calls) {
			t.Errorf("handler ran for unknown fn %d", fn)
			return nil
		}
		r.runs[i]++
		want := agreeRequest(i, s.calls[i].size)
		if hatdebug.On && bytes.IndexByte(req, hatdebug.Poisoned) >= 0 {
			t.Errorf("call %d: the request arrived with poisoned bytes", i)
		} else if !bytes.Equal(req, want) {
			t.Errorf("call %d: the handler read %d bytes that are not the %d sent", i, len(req), len(want))
		}
		if s.calls[i].oneway {
			return nil
		}
		out := make([]byte, len(req))
		for j, v := range req {
			out[j] = v + 1
		}
		replies[i] = bytes.Clone(out)
		return out
	})
	srv.Busy = busy

	env.Spawn("script", func(p *sim.Proc) {
		conns := make([]*Conn, s.callers)
		for k := range conns {
			conns[k] = cliEng.Dial(p, srvEng.Node(), "svc")
		}
		cl.InstallFaults(s.fault(int64(p.Now()), srvEng.Node().ID(), cliEng.Node().ID()))
		left := s.callers
		for k := range conns {
			env.Spawn(fmt.Sprintf("caller-%d", k), func(p *sim.Proc) {
				for i, c := range s.calls {
					if c.caller != k {
						continue
					}
					resp, err := conns[k].Call(p, uint32(i+1), agreeRequest(i, c.size), CallOpts{Proto: proto, Busy: busy})
					r.acked[i] = err == nil
					switch {
					case !r.acked[i]:
					case hatdebug.On && bytes.IndexByte(resp, hatdebug.Poisoned) >= 0:
						t.Errorf("call %d: the reply arrived with poisoned bytes", i)
					case !bytes.Equal(resp, replies[i]):
						t.Errorf("call %d: a reply of %d bytes that is not the handler's %d", i, len(resp), len(replies[i]))
					}
				}
				if left--; left == 0 {
					p.Sleep(2 * cfg.CallDeadline) // every retransmission lands
					env.Stop()
				}
			})
		}
	})
	env.Run()
	assertNoLeaks(t, srvEng, cliEng)
	env.Shutdown() // a fuzzer runs thousands of envs: free each one's parked processes
	return r
}

// checkProtocolsAgree runs a script on every protocol under both pollings
// and checks each run: no handler ran twice, and an acked call's once.
// So every run whose calls were all acked ran each handler once: the
// protocols agree, under every fault.
func checkProtocolsAgree(t *testing.T, s agreeScript) {
	t.Helper()
	for _, proto := range AllProtocols {
		for _, busy := range []bool{true, false} {
			r := runScript(t, s, proto, busy)
			for i, n := range r.runs {
				switch {
				case n > 1:
					t.Errorf("call %d ran %d times", i, n)
				case r.acked[i] && n != 1:
					t.Errorf("call %d was acked, but its handler ran %d times", i, n)
				}
			}
			if t.Failed() {
				t.Fatalf("%s/busy=%v failed the script %+v", proto, busy, s.calls)
			}
		}
	}
}

// FuzzProtocolsAgree runs a script of calls under one fault on every
// protocol and both pollings (ROADMAP item 27(a)): an acked call's handler
// ran once and its reply is the handler's, no call runs twice, rings and
// pinned bytes come back and no poisoned byte arrives (under hatdebug).
// The corpus (testdata/fuzz/FuzzProtocolsAgree) holds one script per
// chaos test, a late rendezvous, and two oneways and a call on one
// connection.
func FuzzProtocolsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, ok := decodeScript(data); ok {
			checkProtocolsAgree(t, s)
		}
	})
}
