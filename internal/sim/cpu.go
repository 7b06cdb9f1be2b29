package sim

import "math"

// CPU models a node's processor complex as a processor-sharing (PS)
// server with a fixed number of cores. Compute tasks carry a work amount
// expressed as nanoseconds of dedicated-core time; while R tasks are
// runnable on C cores every task progresses at rate min(1, C/R). Busy-poll
// loops register as persistent load (AddLoad/RemoveLoad) — they consume
// core share without ever completing, which is exactly how spin-polling
// degrades co-located work under over-subscription.
//
// The PS abstraction reproduces the first-order behaviour the paper's
// Figure 5 depends on: with clients ≤ cores (under-subscription) busy
// polling is free, and beyond that every added poller stretches everyone's
// service time linearly.
type CPU struct {
	env   *Env
	cores int
	load  int // persistent runnable load (busy pollers)

	tasks      []cpuTask // running tasks, in admission order
	minRem     float64   // least remaining work of tasks, +Inf with none
	lastUpdate Time
	rate       float64 // current per-task progress rate in (0,1]
	completion Timer   // pending earliest-completion callback
	complete   func()  // c.onCompletion, bound once
}

type cpuTask struct {
	remaining float64 // ns of dedicated-core work left
	proc      *Proc
}

// NewCPU returns a PS CPU with the given core count.
func NewCPU(env *Env, cores int) *CPU {
	if cores < 1 {
		panic("sim: CPU needs at least one core")
	}
	c := &CPU{env: env, cores: cores, rate: 1, minRem: math.Inf(1)}
	c.complete = c.onCompletion
	return c
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Runnable returns the current number of runnable entities
// (active compute tasks plus persistent load).
func (c *CPU) Runnable() int { return len(c.tasks) + c.load }

// LoadFactor returns runnable/cores, floored at 1. It is the slowdown
// factor experienced by any single runnable entity.
func (c *CPU) LoadFactor() float64 {
	r := c.Runnable()
	if r <= c.cores {
		return 1
	}
	return float64(r) / float64(c.cores)
}

// AddLoad registers n persistent runnable entities (e.g. busy pollers).
func (c *CPU) AddLoad(n int) {
	c.advance()
	c.load += n
	c.reschedule()
}

// RemoveLoad deregisters n persistent runnable entities.
func (c *CPU) RemoveLoad(n int) {
	c.advance()
	c.load -= n
	if c.load < 0 {
		panic("sim: CPU load underflow")
	}
	c.reschedule()
}

// Compute blocks the process for work nanoseconds of dedicated-core time,
// stretched by processor sharing while the CPU is over-committed. A task
// that runs alone on a free core and ends before anything else is due
// goes on without parking (Env.continues): the CPU is left as the
// completion callback would have left it.
func (c *CPU) Compute(p *Proc, work Duration) {
	if work <= 0 {
		return
	}
	if e := c.env; len(c.tasks) == 0 && c.load < c.cores {
		if at := e.now + Time(work); e.continues(p, at) {
			e.seq += 2 // the completion callback's and the wake's
			e.now = at
			c.lastUpdate, c.rate = at, 1
			return
		}
	}
	c.advance()
	c.tasks = append(c.tasks, cpuTask{remaining: float64(work), proc: p})
	c.minRem = min(c.minRem, float64(work))
	c.reschedule()
	p.park()
}

// advance applies progress to all running tasks for the time elapsed since
// the last state change, completes any finished tasks and finds the least
// remaining work of the rest.
func (c *CPU) advance() {
	now := c.env.now
	elapsed := float64(now - c.lastUpdate)
	c.lastUpdate = now
	if elapsed <= 0 || len(c.tasks) == 0 {
		return
	}
	progress := elapsed * c.rate
	// Tasks completing at the same instant wake in admission order, which
	// is the slice's order: survivors are moved down in place.
	live, least := 0, math.Inf(1)
	for i := range c.tasks {
		t := &c.tasks[i]
		if t.remaining -= progress; t.remaining <= 1e-6 {
			c.env.schedule(now, t.proc, nil)
			continue
		}
		if t.remaining < least {
			least = t.remaining
		}
		if live < i {
			c.tasks[live] = *t
		}
		live++
	}
	clear(c.tasks[live:])
	c.tasks, c.minRem = c.tasks[:live], least
}

// reschedule recomputes the PS rate and re-arms the earliest-completion
// callback: a pending one moves to its new time in the queue, under the
// sequence number a fresh scheduling would take.
func (c *CPU) reschedule() {
	r := c.Runnable()
	if r <= c.cores {
		c.rate = 1
	} else {
		c.rate = float64(c.cores) / float64(r)
	}
	if len(c.tasks) == 0 {
		c.completion.Stop()
		c.completion = Timer{}
		return
	}
	eta := Time(math.Ceil(c.minRem / c.rate))
	if eta < 1 {
		eta = 1
	}
	if at := c.env.now + eta; c.completion.live() {
		c.completion = c.env.retime(c.completion, at)
	} else {
		c.completion = c.env.schedule(at, nil, c.complete)
	}
}

func (c *CPU) onCompletion() {
	c.completion = Timer{}
	c.advance()
	c.reschedule()
}
