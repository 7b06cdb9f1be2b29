package engine

import (
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// TestIsUnavailableCoversTypedUnavailability pins the availability
// class: every typed unavailability error — bare or wrapped — is in it,
// and validation/flow errors are not. Adding a typed unavailability
// error without extending IsUnavailable (or vice versa) fails here.
func TestIsUnavailableCoversTypedUnavailability(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrDeadline, true},
		{ErrPeerDown, true},
		{ErrOverloaded, true},
		{ErrCircuitOpen, true},
		{ErrStaleShardEpoch, true},
		{ErrDraining, true},
		{ErrResponseTooLarge, false}, // the same request gets the same answer
		{errors.New("engine: some validation failure"), false},
	}
	for _, tc := range cases {
		if got := IsUnavailable(tc.err); got != tc.want {
			t.Errorf("IsUnavailable(%v) = %v, want %v", tc.err, got, tc.want)
		}
		wrapped := fmt.Errorf("seq 42: %w", tc.err)
		if got := IsUnavailable(wrapped); got != tc.want {
			t.Errorf("IsUnavailable(wrapped %v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	if IsUnavailable(nil) {
		t.Error("IsUnavailable(nil) = true")
	}
}

// TestSessionOneWayCut: only the server→client direction of the link is
// cut, so requests reach the server and the replies vanish — the QP never
// errors and no ErrPeerDown is produced. A call on an established session
// fails typed at its session deadline instead of hanging; a fresh
// session's dial fails typed too (the handshake needs the severed
// direction); and once the cut heals the original connection answers, with
// no reconnect and no replay.
func TestSessionOneWayCut(t *testing.T) {
	env, cl, cliEng, _ := sessionCluster(131)
	cl.InstallFaults(simnet.FaultConfig{
		OneWayCuts: []simnet.LinkCut{{From: 0, To: 1, StartNs: 1_000_000, EndNs: 8_000_000}},
	})
	finished := false
	env.Spawn("client", func(p *sim.Proc) {
		s := cliEng.OpenSession(cl.Node(0), "svc", false)
		opts := CallOpts{Proto: EagerSendRecv, Busy: true}
		resp, err := s.Call(p, 1, []byte("pre"), opts)
		if err != nil || string(resp) != "ECHOpre" {
			t.Errorf("pre-cut call: %q, %v", resp, err)
			env.Stop()
			return
		}
		p.Sleep(sim.Duration(1_200_000 - p.Now())) // into the cut
		start := p.Now()
		if _, err := s.Call(p, 2, []byte("cut"), opts); !errors.Is(err, ErrDeadline) {
			t.Errorf("call during the cut: %v, want ErrDeadline", err)
		}
		if took := p.Now() - start; took != sim.Time(DefaultSessionCallDeadline) {
			t.Errorf("call during the cut failed after %d ns, want its %d ns session deadline", took, DefaultSessionCallDeadline)
		}
		start = p.Now()
		if _, err := cliEng.OpenSession(cl.Node(0), "svc", false).Call(p, 3, []byte("dial"), opts); !errors.Is(err, ErrPeerDown) {
			t.Errorf("fresh session during the cut: %v, want ErrPeerDown", err)
		}
		if took := p.Now() - start; took >= sim.Time(sessionHandshakeTimeoutNs) {
			t.Errorf("fresh session during the cut failed after %d ns, want two refused dials (≈ 230 µs), not a handshake wait", took)
		}
		p.Sleep(sim.Duration(8_500_000 - p.Now())) // past the heal
		resp, err = s.Call(p, 4, []byte("post"), opts)
		if err != nil || string(resp) != "ECHOpost" {
			t.Errorf("post-heal call: %q, %v", resp, err)
		}
		finished = true
		env.Stop()
	})
	env.At(30_000_000, env.Stop) // watchdog: a hang is a failure, not a deadlock
	env.Run()
	if !finished {
		t.Fatal("client never finished — session hung under the one-way cut")
	}
	if f, r := ctr(cliEng, "engine.session_failovers"), ctr(cliEng, "engine.replays"); f != 0 || r != 0 {
		t.Errorf("session_failovers = %d, replays = %d; want 0 and 0 (the original connection survives the cut)", f, r)
	}
}

// TestBreakerHalfOpenRespectsHeal: the breaker trips while the
// response direction is cut, rejects locally while open, and the
// half-open probe after the heal closes it — exactly one open over the
// whole episode.
func TestBreakerHalfOpenRespectsHeal(t *testing.T) {
	env := sim.NewEnv(137)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	// The cut opens well after the blocking dial handshake (~100µs of
	// OOB round trips) completes.
	cl.InstallFaults(simnet.FaultConfig{
		OneWayCuts: []simnet.LinkCut{{From: 0, To: 1, StartNs: 600_000, EndNs: 2_000_000}},
	})
	cfg := DefaultConfig()
	cfg.CallDeadline = 300_000
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 1_000_000
	srvEng := New(cl.Node(0), cfg)
	cliEng := New(cl.Node(1), cfg)
	observe(cliEng)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc") // dialed before the cut
		for p.Now() < 700_000 {
			p.Sleep(50_000) // cut active: requests arrive, replies vanish
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Call(p, uint32(i), []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true}); !IsUnavailable(err) {
				t.Fatalf("call %d under cut: %v, want unavailable", i, err)
			}
		}
		if _, err := c.Call(p, 2, []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true}); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-state err = %v, want ErrCircuitOpen", err)
		}
		// Past the heal AND the cooldown: the half-open probe must see the
		// healed link and close the breaker.
		for p.Now() < 2_500_000 {
			p.Sleep(100_000)
		}
		resp, err := c.Call(p, 3, []byte("probe"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil || string(resp) != "ECHOprobe" {
			t.Fatalf("half-open probe after heal: %q, %v", resp, err)
		}
		if _, err := c.Call(p, 4, []byte("after"), CallOpts{Proto: EagerSendRecv, Busy: true}); err != nil {
			t.Fatalf("post-close call: %v", err)
		}
		env.Stop()
	})
	env.Run()
	if got := ctr(cliEng, "engine.breaker_open"); got != 1 {
		t.Errorf("engine.breaker_open = %d, want 1 (trip, then close on healed probe)", got)
	}
}
