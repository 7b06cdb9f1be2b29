// Package sim implements a deterministic discrete-event simulation (DES)
// kernel in the style of SimPy: simulation processes are coroutines that
// execute strictly one at a time under a cooperative scheduler driven by a
// virtual clock. Blocking operations (Sleep, Wait, resource acquisition)
// park the calling process and hand control back to the scheduler, which
// advances virtual time to the next pending event — unless that event
// would be the process's own wake, which it then takes without parking.
//
// Determinism: events are ordered by (time, sequence number), processes
// never run concurrently, and all randomness flows through the
// environment's seeded RNG — so a given seed always produces an identical
// event order and identical virtual-time results.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"hatrpc/internal/hatdebug"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// event is a scheduled wakeup for a parked process or a deferred callback.
// Events are pooled: the scheduler recycles one as soon as it has fired or
// been stopped, so nothing outside the queue may hold a bare *event —
// holders keep a Timer, which remembers the sequence number too.
type event struct {
	at   Time
	seq  uint64 // unique per scheduling; 0 while in the free list
	idx  int    // slot in the heap, or -1 while in the ready FIFO
	env  *Env   // the owner, for Timer.Stop; kept through recycling
	proc *Proc  // non-nil: resume this process
	fn   func() // non-nil: run this callback inside the scheduler
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a cancellable handle to one scheduling of a pooled event. It
// stays safe to keep after the event has fired: the struct is recycled
// under a new sequence number, which a stale Timer no longer matches. The
// zero Timer is disarmed.
type Timer struct {
	ev  *event
	seq uint64
}

func (t Timer) armed() bool { return t.ev != nil }

// live reports whether t's event is still queued under t's scheduling.
func (t Timer) live() bool { return t.ev != nil && t.ev.seq == t.seq }

// Stop takes the timer's event out of the queue if it has not fired yet;
// stopping a fired, stopped or zero Timer does nothing.
func (t Timer) Stop() {
	if !t.live() {
		return
	}
	ev := t.ev
	e := ev.env
	if ev.idx >= 0 {
		e.remove(ev.idx)
	} else {
		for i := 0; ; i++ {
			if e.ready.At(i) == ev {
				e.ready.RemoveAt(i)
				break
			}
		}
	}
	e.recycle(ev)
}

// Env is a simulation environment: a virtual clock plus the scheduler
// state. An Env must be driven from a single OS goroutine via Run or
// RunUntil.
type Env struct {
	now Time
	seq uint64
	// events is a binary min-heap on (at, seq) of the events queued for a
	// later time than the clock then read; ready holds, in seq order, the
	// ones queued for the current instant.
	events []*event
	ready  FIFO[*event]
	free   []*event // recycled events
	rng    *rand.Rand

	current *Proc // the process being dispatched, if any
	limit   Time  // RunUntil's bound while it runs
	stopped bool
	procs   []*Proc // every spawned process, in spawn order (for Shutdown)
	shut    bool    // Shutdown has run

	counts Counts
	last   *Proc // the process RunUntil dispatched last
}

// Counts are the kernel's running totals since NewEnv.
type Counts struct {
	Fired      int // events fired: callbacks run and process wakes popped
	Dispatches int // processes resumed: a coroutine switch there and back
	Inline     int // Sleeps, Yields and Computes that went on without parking (Env.continues)
	// CallbackGaps counts the dispatches of a process that no other
	// process ran while it was parked: only callbacks fired between its
	// park and its wake.
	CallbackGaps int
}

// Counts returns the kernel's running totals.
func (e *Env) Counts() Counts { return e.counts }

// NewEnv returns a fresh environment whose RNG is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// NewRand returns a deterministic RNG seeded with seed, independent of
// any Env (for input generators that run before a simulation exists).
// The sim kernel is the single place allowed to mint RNG sources — the
// simdet analyzer forbids rand.New elsewhere in DES-scheduled packages
// — so all randomness is either this or Env.Rand, both explicitly
// seeded.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Rand returns the environment's deterministic RNG. It must only be used
// from simulation processes (never concurrently).
func (e *Env) Rand() *rand.Rand { return e.rng }

// schedule queues an event. One due now goes to the ready FIFO, behind
// every event due now: those in the heap were queued before the clock got
// here and those in ready before this one, so all have smaller seqs. Only
// a later event pays for the heap.
func (e *Env) schedule(at Time, proc *Proc, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %d < %d", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = &event{env: e}
	}
	e.seq++
	ev.at, ev.seq, ev.idx, ev.proc, ev.fn = at, e.seq, -1, proc, fn
	if at == e.now {
		e.ready.Push(ev)
	} else {
		e.events = append(e.events, ev)
		i := len(e.events) - 1
		e.checkPath(i, e.up(ev, i))
	}
	return Timer{ev, ev.seq}
}

// retime moves t's queued event to at under a fresh sequence number: the
// (at, seq) a Stop and a new schedule would give it, without leaving the
// heap. The event must be in the heap, as one queued for a later time
// is, and at must be after now.
func (e *Env) retime(t Timer, at Time) Timer {
	ev := t.ev
	e.seq++
	ev.at, ev.seq = at, e.seq
	i := ev.idx
	j := e.down(ev, i)
	if j == i {
		j = e.up(ev, i)
	}
	e.checkPath(i, j)
	return Timer{ev, ev.seq}
}

// up moves ev, which belongs in slot i, toward the root past every parent
// it precedes, and returns the slot it ends in. (at, seq) is a strict total
// order, so the pop order does not depend on how the heap arranges
// equal-looking entries.
func (e *Env) up(ev *event, i int) int {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
	return i
}

// down moves ev, which belongs in slot i, toward the leaves past every
// child that precedes it, and returns the slot it ends in.
func (e *Env) down(ev *event, i int) int {
	h := e.events
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = ev
	ev.idx = i
	return i
}

// remove deletes the heap's slot i, filling it with the last entry.
func (e *Env) remove(i int) {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if i == n {
		return
	}
	j := e.down(last, i)
	if j == i && i > 0 {
		j = e.up(last, i)
	}
	e.checkPath(i, j)
}

// checkPath has the buffer sanitizer's build (`-tags hatdebug`) vet a sift
// that moved entries along the path between heap slots a and b, one the
// other's ancestor: each slot on it must know its index and keep (at, seq)
// order with its parent and children. Only the moved slots are checked,
// so the tagged build stays about as fast as the plain one, which
// compiles the call to nothing.
func (e *Env) checkPath(a, b int) {
	if hatdebug.On {
		e.checkSlots(min(a, b), max(a, b))
	}
}

func (e *Env) checkSlots(top, i int) {
	h := e.events
	for ; ; i = (i - 1) / 2 {
		ev := h[i]
		bad := ev.idx != i || i > 0 && ev.before(h[(i-1)/2])
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			bad = bad || h[c].before(ev)
		}
		if bad {
			panic(fmt.Sprintf("sim: heap slot %d (idx %d, at %d, seq %d) out of order", i, ev.idx, ev.at, ev.seq))
		}
		if i <= top {
			return
		}
	}
}

// recycle returns a fired or stopped event to the free list.
func (e *Env) recycle(ev *event) {
	ev.seq, ev.proc, ev.fn = 0, nil, nil
	e.free = append(e.free, ev)
}

// At schedules fn to run inside the scheduler loop at absolute time at.
// fn must not block; it is intended for timer-style callbacks.
func (e *Env) At(at Time, fn func()) { e.schedule(at, nil, fn) }

// AtTimer is At for a callback its scheduler may no longer want by then: the
// returned Timer stops it.
func (e *Env) AtTimer(at Time, fn func()) Timer { return e.schedule(at, nil, fn) }

// After schedules fn to run d from now.
func (e *Env) After(d Duration, fn func()) { e.At(e.now+Time(d), fn) }

// Run executes events until the event queue is exhausted or the
// environment is stopped. It returns the final virtual time.
func (e *Env) Run() Time { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= limit. It returns the
// virtual time of the last executed event (or limit if the queue emptied
// beyond it). A panic in a process body surfaces here, on the caller's
// goroutine, with the process name and virtual time attached.
func (e *Env) RunUntil(limit Time) Time {
	e.limit = limit
	for !e.stopped {
		// The next event is the heap's top if it is due now (it was queued
		// before the clock got here, so ahead of all of ready), else
		// ready's head, else the heap's top.
		h := e.events
		fromHeap := len(h) > 0 && (h[0].at == e.now || e.ready.Len() == 0)
		next := e.now
		if fromHeap {
			next = h[0].at
		} else if e.ready.Len() == 0 {
			break
		}
		if next > limit {
			// A limit behind the clock turns it back, and what ready
			// holds is no longer due now: the heap takes it.
			for e.ready.Len() > 0 {
				ev := e.ready.Pop()
				e.events = append(e.events, ev)
				e.checkPath(len(e.events)-1, e.up(ev, len(e.events)-1))
			}
			e.now = limit
			return e.now
		}
		var top *event
		if fromHeap {
			top = h[0]
			e.remove(0)
		} else {
			top = e.ready.Pop()
		}
		ev := *top
		e.recycle(top)
		e.now = ev.at
		e.counts.Fired++
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.proc != nil && !ev.proc.done:
			// Dispatching the process dispatched last ends a gap in which
			// only callbacks ran.
			e.counts.Dispatches++
			if ev.proc == e.last {
				e.counts.CallbackGaps++
			}
			e.last = ev.proc
			e.dispatch(ev.proc)
		}
	}
	return e.now
}

// continues reports whether process p, about to park until at, may keep
// running instead: its wakeup would be the very next event RunUntil
// fires, so parking would only switch to the scheduler and straight
// back. That holds when p is the dispatched process (a process unwinding
// under Kill or Shutdown never is), the scheduler would go on (not
// stopped, at within its limit), and at is strictly before every queued
// event — a tie parks, since the event queued earlier fires first, and so
// does anything in ready, which is due now. The caller then consumes the
// sequence numbers its events would have taken and moves the clock to at,
// so (time, seq) order is the same either way.
func (e *Env) continues(p *Proc, at Time) bool {
	if p != e.current || e.stopped || at > e.limit || e.ready.Len() > 0 {
		return false
	}
	return len(e.events) == 0 || at < e.events[0].at
}

// Stop halts the scheduler after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// ---------------------------------------------------------------------------
// FIFO: the slice-backed queue under Signal and Queue, and every other
// queue of the stack (verbs receive queues, engine arrivals and admission).

// FIFO is a first-in first-out queue that reuses its storage. It pops by
// advancing a head index, not by reslicing, so the backing array is
// reused: the index resets whenever the queue drains, and a queue that
// never drains is moved down once its dead prefix is at least as long as
// its live part. Popped slots are zeroed so they pin nothing. The zero
// FIFO is empty and ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= f.Len() {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the oldest element. The queue must not be empty.
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	f.drained()
	return v
}

// At returns the i-th oldest element (0 is the head), leaving it queued.
func (f *FIFO[T]) At(i int) T { return f.buf[f.head+i] }

// RemoveAt deletes the i-th oldest element, keeping the order of the rest.
func (f *FIFO[T]) RemoveAt(i int) {
	var zero T
	n := len(f.buf) - 1
	copy(f.buf[f.head+i:], f.buf[f.head+i+1:])
	f.buf[n] = zero
	f.buf = f.buf[:n]
	f.drained()
}

// Clear empties the queue, keeping its storage.
func (f *FIFO[T]) Clear() {
	clear(f.buf)
	f.buf, f.head = f.buf[:0], 0
}

func (f *FIFO[T]) drained() {
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// ---------------------------------------------------------------------------
// Signals: single-wakeup condition variables for process synchronization.

// Signal is a deterministic FIFO wait queue. Processes call Wait; other
// processes (or scheduler callbacks) call Fire to wake exactly one waiter,
// or Broadcast to wake all current waiters.
type Signal struct {
	env     *Env
	waiters FIFO[*Proc]
	pending int // fires delivered with no waiter present
}

// NewSignal returns a Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait parks the process until a Fire is delivered to it. If a Fire
// arrived earlier with no waiter, Wait consumes it and returns without
// blocking (semaphore semantics), after a deterministic yield.
func (s *Signal) Wait(p *Proc) {
	if s.pending > 0 {
		s.pending--
		p.Yield()
		return
	}
	s.waiters.Push(p)
	p.park()
}

// TryConsume consumes a pending fire without blocking. It reports whether
// one was available.
func (s *Signal) TryConsume() bool {
	if s.pending > 0 {
		s.pending--
		return true
	}
	return false
}

// WaitUntil parks the process until a Fire is delivered or virtual time
// reaches the absolute deadline until, whichever comes first. It reports
// whether a fire was consumed (false means timeout). Fire cancels the
// waiter's deadline timer before waking it, so exactly one of the two
// wakeup paths ever resumes the process.
func (s *Signal) WaitUntil(p *Proc, until Time) bool {
	if s.pending > 0 {
		s.pending--
		p.Yield()
		return true
	}
	if s.env.now >= until {
		return false
	}
	s.waiters.Push(p)
	p.wake = s.env.schedule(until, p, nil)
	p.park()
	if !p.wake.armed() {
		return true // Fire consumed the timer and woke us
	}
	p.wake = Timer{}
	for i := 0; i < s.waiters.Len(); i++ {
		if s.waiters.At(i) == p {
			s.waiters.RemoveAt(i)
			break
		}
	}
	return false
}

// wake makes w runnable at the current time, disarming its deadline timer
// if it is a timed waiter.
func (s *Signal) wake(w *Proc) {
	w.wake.Stop()
	w.wake = Timer{}
	s.env.schedule(s.env.now, w, nil)
}

// Fire wakes the oldest live waiter, or records a pending fire if none
// waits. It may be called from a process or from a scheduler callback.
// Waiters killed while parked are skipped so a fire is never lost to a
// dead process.
func (s *Signal) Fire() {
	for s.waiters.Len() > 0 {
		if w := s.waiters.Pop(); !w.done {
			s.wake(w)
			return
		}
	}
	s.pending++
}

// Broadcast wakes every currently-waiting live process (it does not add
// pending fires).
func (s *Signal) Broadcast() {
	for s.waiters.Len() > 0 {
		if w := s.waiters.Pop(); !w.done {
			s.wake(w)
		}
	}
}

// Waiting returns the number of parked waiters.
func (s *Signal) Waiting() int { return s.waiters.Len() }

// ---------------------------------------------------------------------------
// Queue: an unbounded deterministic FIFO channel between processes.

// Queue is a FIFO of arbitrary items with blocking Pop.
type Queue[T any] struct {
	items FIFO[T]
	sig   *Signal
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] {
	return &Queue[T]{sig: NewSignal(env)}
}

// Push appends an item and wakes one waiting consumer.
func (q *Queue[T]) Push(v T) {
	q.items.Push(v)
	q.sig.Fire()
}

// Pop removes and returns the oldest item, blocking the process while the
// queue is empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.Len() == 0 {
		q.sig.Wait(p)
	}
	return q.items.Pop()
}

// PopUntil is Pop with a virtual-time bound: it removes and returns the
// oldest item, or reports ok=false if the queue is still empty when the
// clock reaches the absolute deadline until.
func (q *Queue[T]) PopUntil(p *Proc, until Time) (T, bool) {
	for q.items.Len() == 0 {
		if !q.sig.WaitUntil(p, until) {
			var zero T
			return zero, false
		}
	}
	return q.items.Pop(), true
}

// TryPop removes the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// ---------------------------------------------------------------------------
// Mutex: a FIFO mutual-exclusion lock for simulation processes.

// Mutex serializes processes around a critical section (e.g. a
// single-writer store). Waiters wake FIFO.
type Mutex struct {
	locked bool
	sig    *Signal
}

// NewMutex returns an unlocked mutex.
func NewMutex(env *Env) *Mutex { return &Mutex{sig: NewSignal(env)} }

// Lock blocks p until the mutex is acquired.
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		m.sig.Wait(p)
	}
	m.locked = true
}

// Unlock releases the mutex and wakes one waiter.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked mutex")
	}
	m.locked = false
	m.sig.Fire()
}

// TryLock acquires the mutex if free.
func (m *Mutex) TryLock() bool {
	if m.locked {
		return false
	}
	m.locked = true
	return true
}
