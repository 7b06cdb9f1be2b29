package engine

import (
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/sim"
)

// TestDrainFenceTypedAcrossProtocols: once the fence is up, every
// response protocol rejects new calls with the typed ErrDraining — a
// header-only kDrain, posted on the ring or, on the one-sided paths,
// stamped at the call's seq in the published region — never a deadline
// wait.
func TestDrainFenceTypedAcrossProtocols(t *testing.T) {
	for _, proto := range AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := testCluster(1)
			srv := srvEng.Serve("svc", echoHandler)
			var before, after error
			var rejectedAt, sentAt sim.Time
			env.Spawn("client", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				_, before = c.Call(p, 3, []byte("ok"), CallOpts{Proto: proto, Busy: true})
				srv.SetDraining(true)
				sentAt = p.Now()
				_, after = c.Call(p, 4, []byte("no"), CallOpts{Proto: proto, Busy: true})
				rejectedAt = p.Now()
				env.Stop()
			})
			env.Run()
			if before != nil {
				t.Fatalf("pre-drain call: %v", before)
			}
			if !errors.Is(after, ErrDraining) {
				t.Fatalf("post-drain call err = %v, want ErrDraining", after)
			}
			if !IsUnavailable(after) {
				t.Error("ErrDraining must be in the IsUnavailable class")
			}
			// Typed rejection, not a timeout: the answer must come back in
			// round-trip time, far under any deadline.
			if lat := rejectedAt - sentAt; lat > 100_000 {
				t.Errorf("rejection took %dns — that is a timeout, not a typed reply", lat)
			}
			if srv.Drained != 1 {
				t.Errorf("Drained = %d, want 1", srv.Drained)
			}
		})
	}
}

// TestDrainWaitsForInFlight: Drain lets a handler that started before
// the fence run to completion, returns true once in-flight work is
// gone, and requests arriving during the drain are fenced.
func TestDrainWaitsForInFlight(t *testing.T) {
	env, srvEng, cliEng := testCluster(3)
	started := false
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		started = true
		p.Sleep(200_000) // slow handler: in flight across the drain start
		return []byte("done")
	})
	var slowErr, fencedErr error
	var drainOK bool
	var quiescedAt, slowDoneAt sim.Time
	env.Spawn("slow-client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		_, slowErr = c.Call(p, 1, nil, CallOpts{Proto: EagerSendRecv, Busy: true})
		slowDoneAt = p.Now()
	})
	env.Spawn("ops", func(p *sim.Proc) {
		for !started {
			p.Sleep(10_000) // wait until the slow call is mid-handler
		}
		// A request arriving while the drain runs must be fenced.
		env.Spawn("late-client", func(lp *sim.Proc) {
			c := cliEng.Dial(lp, srvEng.Node(), "svc")
			_, fencedErr = c.Call(lp, 2, nil, CallOpts{Proto: EagerSendRecv, Busy: true})
		})
		drainOK = srv.Drain(p, 0)
		quiescedAt = p.Now()
		p.Sleep(300_000)
		env.Stop()
	})
	env.Run()
	if slowErr != nil {
		t.Errorf("in-flight call must complete through a drain: %v", slowErr)
	}
	if !errors.Is(fencedErr, ErrDraining) {
		t.Errorf("late call err = %v, want ErrDraining", fencedErr)
	}
	if !drainOK {
		t.Error("Drain without deadline returned false")
	}
	if quiescedAt < slowDoneAt {
		t.Errorf("Drain returned at %d before the in-flight handler finished at %d", quiescedAt, slowDoneAt)
	}
}

// TestDrainDeadlineEscalates: a handler outlasting the drain deadline
// makes Drain return false — the caller's signal to escalate to the
// crash path.
func TestDrainDeadlineEscalates(t *testing.T) {
	env, srvEng, cliEng := testCluster(4)
	started := false
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		started = true
		p.Sleep(2_000_000)
		return nil
	})
	var drainOK bool
	var drainStart, returned sim.Time
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		_, _ = c.Call(p, 1, nil, CallOpts{Proto: EagerSendRecv, Busy: true, Deadline: 3_000_000})
	})
	env.Spawn("ops", func(p *sim.Proc) {
		for !started {
			p.Sleep(10_000)
		}
		drainStart = p.Now()
		drainOK = srv.Drain(p, p.Now()+100_000)
		returned = p.Now()
		env.Stop()
	})
	env.Run()
	if drainOK {
		t.Error("Drain returned true with a handler still in flight")
	}
	if d := returned - drainStart; d < 100_000 || d > 150_000 {
		t.Errorf("Drain returned %dns after start, want ~its 100000ns deadline", d)
	}
}

// TestDrainFenceLiftsCleanly: dropping the fence restores normal
// service on the same connections.
func TestDrainFenceLiftsCleanly(t *testing.T) {
	env, srvEng, cliEng := testCluster(7)
	srv := srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		srv.SetDraining(true)
		if _, err := c.Call(p, 1, nil, CallOpts{Proto: EagerSendRecv, Busy: true}); !errors.Is(err, ErrDraining) {
			t.Errorf("fenced call err = %v, want ErrDraining", err)
		}
		srv.SetDraining(false)
		resp, err := c.Call(p, 2, []byte("back"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil || string(resp) != "ECHOback" {
			t.Errorf("post-lift call: %q, %v", resp, err)
		}
		env.Stop()
	})
	env.Run()
}

// TestDrainActiveCountsQueuedWork: Active must include admission-queued
// waiters, not just running handlers — draining with a backlog must not
// report quiescence early.
func TestDrainActiveCountsQueuedWork(t *testing.T) {
	env, srvEng, cliEng := testCluster(8)
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		p.Sleep(100_000)
		return nil
	})
	srv.AdmitLimit = 1
	results := make([]error, 4)
	for i := 0; i < 4; i++ {
		i := i
		env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			_, results[i] = c.Call(p, uint32(i), nil, CallOpts{Proto: EagerSendRecv, Busy: true, Deadline: 2_000_000})
		})
	}
	var drainOK bool
	var drainStart, quiescedAt sim.Time
	env.Spawn("ops", func(p *sim.Proc) {
		for srv.Active() < 4 {
			p.Sleep(5_000) // wait for one running + three queued waiters
		}
		drainStart = p.Now()
		drainOK = srv.Drain(p, 0)
		quiescedAt = p.Now()
		p.Sleep(500_000)
		env.Stop()
	})
	env.Run()
	if !drainOK {
		t.Fatal("Drain returned false without a deadline")
	}
	for i, err := range results {
		if err != nil {
			t.Errorf("queued call %d failed across the drain: %v", i, err)
		}
	}
	// Four serial 100us handlers were pending when the drain started;
	// quiescence cannot arrive before the last one finishes.
	if quiescedAt < drainStart+300_000 {
		t.Errorf("Drain returned at %d (started %d) with queued work still pending", quiescedAt, drainStart)
	}
}
