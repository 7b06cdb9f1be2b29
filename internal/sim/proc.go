//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulation process. A Proc's body runs as a coroutine of
// whichever goroutine drives the Env: exactly one of the scheduler and the
// processes runs at any moment, and a switch between them is a direct
// hand-off with no trip through the Go scheduler.
type Proc struct {
	env   *Env
	name  string
	next  func() (struct{}, bool) // scheduler side: run the body until it parks or returns
	stop  func()                  // scheduler side: make the parked body unwind, and join it
	yield func(struct{}) bool     // body side: park; false means the process was stopped
	done  bool
	wake  Timer // pending timer if parked in Sleep or WaitUntil

	// Value is the body's to set: one datum that code running on the
	// process, however deep below the body, may need to find again (the
	// engine's dispatcher stores its connection here). The kernel never
	// reads it.
	Value any
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the debug name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// killed is the panic value that unwinds a stopped process. runtime.Goexit
// cannot do this job in a coroutine: iter.Pull forwards a Goexit to the
// caller of next or stop, which here is the scheduler itself.
type killed struct{}

// Spawn starts fn as a new simulation process. It may be called from
// outside the simulation (before Run) or from inside another process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	// The process first runs when the scheduler reaches its start event.
	e.schedule(e.now, p, nil)
	return p
}

// exit is the last deferred call of every process body. It ends a kill's
// unwinding, and sends any other panic on to whoever resumed the process
// (see RunUntil) with the process named: on that goroutine the body's own
// stack is gone, so the trace is attached here. Env.procs outlives the
// process, so exit also drops the coroutine and, with it, everything the
// body's closure captured.
func (p *Proc) exit() {
	p.done = true
	p.next, p.stop, p.yield = nil, nil, nil
	if r := recover(); r != nil && r != any(killed{}) {
		panic(fmt.Sprintf("sim: process %q panicked at t=%d: %v\n%s", p.name, p.env.now, r, debug.Stack()))
	}
}

// park hands control from the running process back to the scheduler and
// blocks until the scheduler resumes this process. If the process is
// killed or the environment shut down while it is parked, park panics
// with the killed sentinel instead of returning, so the body unwinds
// through its defers. A defer that parks again keeps unwinding: once a
// process is stopped, yield reports false without switching.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Sleep suspends the process for d of virtual time. When nothing else is
// due before the wake, the process goes on without parking (Env.continues).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now + Time(d)
	if e.continues(p, at) {
		e.seq++ // the wake's
		e.now = at
		return
	}
	p.wake = e.schedule(at, p, nil)
	p.park()
	p.wake = Timer{}
}

// Yield reschedules the process at the current time behind already-queued
// events, letting same-timestamp work interleave deterministically. It is
// Sleep(0): with nothing else due now, the process goes straight on.
func (p *Proc) Yield() { p.Sleep(0) }

// dispatch resumes process pr and returns when it parks or finishes.
func (e *Env) dispatch(pr *Proc) {
	e.current = pr
	pr.next()
	e.current = nil
}

// Kill terminates process p immediately: its body unwinds from wherever
// it is parked (running its defers) and any pending timer wakeup is
// cancelled. The caller — a scheduler callback or another process —
// resumes only once p has fully unwound, so the one-process-at-a-time
// invariant holds through the teardown (this is the same join Shutdown
// performs, for a single process mid-run). A process killed before its
// first dispatch never runs. Killing an already-finished process is a
// no-op; a process cannot kill itself.
func (e *Env) Kill(p *Proc) {
	if p == nil || p.done || e.shut {
		return
	}
	if p == e.current {
		panic("sim: process cannot Kill itself")
	}
	p.done = true
	p.wake.Stop()
	p.wake = Timer{}
	p.stop()
}

// Shutdown terminates every process still parked in the environment so
// the simulation's memory can be reclaimed. Processes are torn down one
// at a time in spawn order: each unwinds through its deferred cleanup and
// is joined before the next — preserving the kernel's
// one-process-at-a-time invariant through teardown (deferred cleanup
// touches shared scheduler state such as CPU load tracking). Call it
// after the final Run; the environment must not be used afterwards.
func (e *Env) Shutdown() {
	if e.shut {
		return
	}
	e.shut = true
	for _, p := range e.procs {
		if !p.done {
			p.stop()
		}
	}
	e.procs = nil
}
