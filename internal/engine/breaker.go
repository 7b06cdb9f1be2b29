package engine

import (
	"errors"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// ErrCircuitOpen is returned by Call while the connection's circuit
// breaker is open: recent calls failed with overload or deadline errors
// and the cooldown has not yet elapsed, so the call is rejected locally
// without touching the wire. Retrying into a saturated server only adds
// to the overload; the breaker converts that retry pressure into cheap
// local failures.
var ErrCircuitOpen = errors.New("engine: circuit breaker open")

// Breaker states.
const (
	brkClosed int8 = iota // normal operation
	brkOpen               // rejecting calls until openUntil
	brkHalf               // cooldown elapsed; one probe call in flight
)

// breaker is the per-connection client-side circuit breaker
// (Config.BreakerThreshold > 0). Consecutive overload-class failures
// (ErrOverloaded, ErrDeadline, ErrPeerDown) open it; while open every
// call fails immediately with ErrCircuitOpen. After the cooldown the
// next call is admitted as a half-open probe: success closes the
// breaker, failure re-opens it with the cooldown doubled (capped at
// 16× the base), the classic exponential-backoff half-open machine.
type breaker struct {
	threshold int          // consecutive failures that trip it
	base      sim.Duration // initial cooldown
	cooldown  sim.Duration // current cooldown (doubles on failed probes)
	max       sim.Duration // cooldown ceiling (16× base)
	fails     int          // consecutive overload-class failures
	state     int8
	openUntil sim.Time
}

func newBreaker(threshold int, cooldown sim.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &breaker{
		threshold: threshold,
		base:      cooldown,
		cooldown:  cooldown,
		max:       16 * cooldown,
	}
}

// breakerGate runs at call entry. It either rejects the call
// (ErrCircuitOpen), admits it as a half-open probe (speculatively
// recovering the QP, which a link fault may have left errored — a no-op
// on a healthy QP), or passes it through.
func (c *Conn) breakerGate(p *sim.Proc) error {
	b := c.brk
	if b == nil || b.state == brkClosed {
		return nil
	}
	if b.state == brkOpen {
		if p.Now() < b.openUntil {
			return ErrCircuitOpen
		}
		b.state = brkHalf
		if trc := c.eng.trc; trc != nil {
			trc.Instant("engine", "breaker_half_open", c.eng.node.ID(), c.id, int64(p.Now()))
		}
		c.recoverQP(p)
	}
	// brkHalf: admit the probe. (One outstanding call per connection, so
	// there is never more than one probe in flight.)
	return nil
}

// breakerObserve runs after every gated call with its outcome. Only
// overload-class failures count toward the trip threshold; other errors
// (validation, typed application errors) say nothing about server
// health and leave the breaker alone.
func (c *Conn) breakerObserve(p *sim.Proc, err error) {
	b := c.brk
	if b == nil {
		return
	}
	if err == nil {
		if b.state != brkClosed || b.fails > 0 {
			if trc := c.eng.trc; trc != nil && b.state != brkClosed {
				trc.Instant("engine", "breaker_close", c.eng.node.ID(), c.id, int64(p.Now()))
			}
			b.state = brkClosed
			b.fails = 0
			b.cooldown = b.base
		}
		return
	}
	if !IsUnavailable(err) {
		return
	}
	b.fails++
	if b.state == brkHalf {
		// Failed probe: back off harder.
		b.cooldown *= 2
		if b.cooldown > b.max {
			b.cooldown = b.max
		}
	} else if b.fails < b.threshold {
		return
	}
	b.state = brkOpen
	b.openUntil = p.Now() + sim.Time(b.cooldown)
	b.fails = 0
	c.eng.em.breakerOpen.Inc()
	if trc := c.eng.trc; trc != nil {
		trc.Instant("engine", "breaker_open", c.eng.node.ID(), c.id, int64(p.Now()),
			obs.Arg{K: "cooldown_ns", V: int64(b.cooldown)})
	}
}
