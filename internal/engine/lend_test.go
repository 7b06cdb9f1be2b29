package engine

import (
	"bytes"
	"fmt"
	"testing"

	"hatrpc/internal/hatdebug"
	"hatrpc/internal/sim"
)

// directProtocols are the two ways a message reaches the peer's direct
// region: a WRITE_WITH_IMM, or a WRITE and a notify SEND.
var directProtocols = []Protocol{DirectWriteIMM, ChainedWriteSend}

// TestLentRequestSurvivesAbandonment: a client whose call has a deadline
// gives up on it while its handler still runs, and issues its next call,
// which lands in the server's direct region. The abandoned request is
// served where it landed, and the landing moves the region away from it
// (verbs.MR.Lend), so its handler's argument is unchanged when the
// handler returns.
func TestLentRequestSurvivesAbandonment(t *testing.T) {
	for _, proto := range directProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			const size = 2048
			env, srvEng, cliEng := testCluster(31)
			runs, changed := 0, false
			srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
				if runs++; runs == 1 {
					kept := append([]byte(nil), req...)
					p.Sleep(1_000_000) // past the deadline and the next call's arrival
					changed = !bytes.Equal(req, kept)
				}
				return nil
			})
			env.Spawn("client", func(p *sim.Proc) {
				defer env.Stop()
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				first := CallOpts{Proto: proto, Busy: true, Deadline: 200_000}
				if _, err := c.Call(p, 1, bytes.Repeat([]byte{'A'}, size), first); err == nil {
					t.Fatal("the first call was answered inside its deadline; it must be abandoned")
				}
				if _, err := c.Call(p, 2, bytes.Repeat([]byte{'B'}, size), CallOpts{Proto: proto, Busy: true}); err != nil {
					t.Fatalf("next call: %v", err)
				}
			})
			env.Run()
			if runs != 2 {
				t.Fatalf("handler ran %d times for two calls", runs)
			}
			if changed {
				t.Error("the abandoned call's request changed under its running handler: the next call overwrote it")
			}
		})
	}
}

// TestDirectDeliveriesServedInPlace: a request, deadlined or not, is
// served from the server's direct region, and the response Invoke
// returns is the client's; Call hands its caller a copy. A window handed
// to Recycle never enters the arena.
func TestDirectDeliveriesServedInPlace(t *testing.T) {
	for _, proto := range directProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := testCluster(32)
			var inPlace []bool
			srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
				inPlace = append(inPlace, p.Value.(*Conn).lent(req))
				return req
			})
			req := pattern(1000)
			env.Spawn("client", func(p *sim.Proc) {
				defer env.Stop()
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				opts := CallOpts{Proto: proto, Busy: true}
				check := func(what string, out []byte, err error, lent bool) {
					if err != nil || !bytes.Equal(out, req) {
						t.Fatalf("%s: %d bytes, err %v", what, len(out), err)
					}
					if c.lent(out) != lent {
						t.Errorf("%s: response lies in the direct region = %v, want %v", what, c.lent(out), lent)
					}
				}
				out, err := c.Invoke(p, 1, req, opts)
				check("Invoke", out, err, true)
				if !hatdebug.On {
					c.Recycle(out)
					if cliEng.dev.Holds(out) {
						t.Error("Recycle took a window onto the direct region into the arena")
					}
				}
				out, err = c.Call(p, 1, req, opts)
				check("Call", out, err, false)
				c.Recycle(out)
				out, err = c.Call(p, 1, req, CallOpts{Proto: proto, Busy: true, Deadline: 1_000_000})
				check("deadlined Call", out, err, false)
			})
			env.Run()
			if want := []bool{true, true, true}; fmt.Sprint(inPlace) != fmt.Sprint(want) {
				t.Errorf("requests served in place: %v, want %v (Invoke, Call, deadlined)", inPlace, want)
			}
		})
	}
}
