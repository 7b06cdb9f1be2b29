package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Process lifecycle: Kill and Shutdown.

func TestKillInSleepCancelsTimer(t *testing.T) {
	env := NewEnv(1)
	woke, cleaned := false, false
	victim := env.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(100)
		woke = true
	})
	env.After(10, func() { env.Kill(victim) })
	end := env.Run()
	if woke || !cleaned {
		t.Fatalf("woke=%v cleaned=%v, want killed in Sleep with its defer run", woke, cleaned)
	}
	if end != 10 {
		t.Fatalf("clock ran to %d: the killed sleeper's timer still advanced it past 10", end)
	}
}

func TestKillInWaitThenFireReachesLiveWaiter(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	var got []string
	waiter := func(name string) *Proc {
		return env.Spawn(name, func(p *Proc) {
			sig.Wait(p)
			got = append(got, name)
		})
	}
	first := waiter("first")
	waiter("second")
	env.After(5, func() {
		env.Kill(first)
		sig.Fire()
	})
	env.Run()
	if len(got) != 1 || got[0] != "second" {
		t.Fatalf("woken %v, want [second]: the fire must skip the killed waiter", got)
	}
	if sig.TryConsume() {
		t.Fatal("a fire was left pending: it was delivered twice or to nobody")
	}
}

func TestKillBeforeFirstDispatch(t *testing.T) {
	env := NewEnv(1)
	ran := false
	p := env.Spawn("unborn", func(p *Proc) { ran = true })
	env.Kill(p)
	env.Run()
	if ran {
		t.Fatal("a process killed before its first dispatch ran anyway")
	}
}

func TestKillRunsDefersEvenWhenTheyPark(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	var steps []string
	victim := env.Spawn("victim", func(p *Proc) {
		defer func() { steps = append(steps, "outer") }()
		defer func() {
			steps = append(steps, "inner")
			p.Sleep(5) // cleanup that blocks: must keep unwinding, not hang
			steps = append(steps, "unreachable")
		}()
		sig.Wait(p)
		steps = append(steps, "unreachable")
	})
	joined := false
	env.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		env.Kill(victim)
		joined = len(steps) == 2 // Kill returns only after the victim has unwound
	})
	env.Run()
	if want := "inner,outer"; strings.Join(steps, ",") != want {
		t.Fatalf("defers ran %v, want %s", steps, want)
	}
	if !joined {
		t.Fatal("Kill returned before the victim finished unwinding")
	}
}

func TestKillSelfPanics(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("suicidal", func(p *Proc) { env.Kill(p) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "cannot Kill itself") {
			t.Fatalf("recovered %v, want the self-kill panic", r)
		}
	}()
	env.Run()
}

func TestKillFinishedIsNoop(t *testing.T) {
	env := NewEnv(1)
	p := env.Spawn("short", func(p *Proc) {})
	env.Run()
	env.Kill(p)
	env.Kill(p)
	env.Kill(nil)
}

func TestShutdownJoinsInSpawnOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		env.Spawn("parked", func(p *Proc) {
			defer func() { order = append(order, i) }()
			p.Sleep(1000)
		})
	}
	env.Spawn("finished", func(p *Proc) {})
	env.RunUntil(10)
	env.Spawn("never-dispatched", func(p *Proc) { t.Error("Shutdown ran a process that had not started") })
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with 5 parked processes, %d before NewEnv", n, before)
	}
	env.Shutdown()
	env.Shutdown() // idempotent
	for i, v := range order {
		if v != i {
			t.Fatalf("teardown order %v, want spawn order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("%d of 5 parked processes ran their defers", len(order))
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Shutdown, %d before NewEnv", n, before)
	}
}

// A holder may keep its timer past the firing (Proc.wake does until the
// process next runs; CPU.completion would if its callback did not clear
// it first). By then the pooled event may carry somebody else's wakeup.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	env := NewEnv(1)
	stale := env.schedule(5, nil, func() {})
	env.RunUntil(5) // fires; the event goes back to the pool
	fired := false
	fresh := env.schedule(10, nil, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("the pool did not reuse the event: the test no longer tests anything")
	}
	stale.Stop()
	env.Run()
	if !fired {
		t.Fatal("cancelling a fired timer killed the event that reused its struct")
	}
}

// A stopped AtTimer callback never runs and never moves the clock; stopping
// it again, stopping one that has fired and stopping the zero Timer are
// no-ops — also once the pool has handed the event to somebody else.
func TestAtTimerStop(t *testing.T) {
	env := NewEnv(1)
	ran := 0
	count := func() { ran++ }
	kept := env.AtTimer(5, count)
	stopped := env.AtTimer(1000, count)
	stopped.Stop()
	stopped.Stop()
	Timer{}.Stop()
	if end := env.Run(); end != 5 || ran != 1 {
		t.Fatalf("clock at %d after %d callbacks, want 5 after 1: the stopped timer still counted", end, ran)
	}
	fresh := env.AtTimer(10, count)
	kept.Stop()    // fired long ago
	stopped.Stop() // discarded long ago
	if fresh.ev != kept.ev && fresh.ev != stopped.ev {
		t.Fatal("the pool did not reuse an event: the test no longer tests anything")
	}
	if env.Run(); ran != 2 {
		t.Fatal("a stale Stop killed the event that reused its struct")
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
	env.Spawn("faulty", func(p *Proc) {
		p.Sleep(42)
		var m map[string]int
		m["x"] = 1
	})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{`"faulty"`, "t=42", "assignment to entry in nil map", "kernel_test.go"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic out of Run lacks %q:\n%s", want, msg)
			}
		}
		env.Shutdown() // the environment still tears down cleanly
	}()
	env.Run()
	t.Fatal("Run returned")
}

// ---------------------------------------------------------------------------
// Inline continuation: Sleep and Compute go on without parking only when
// their wake is the very next event. Each case sets up one reason it is
// not, and checks that the process parked — or that the clock did not
// move.

func TestSleepTyingAnEarlierEventParks(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.At(10, func() { order = append(order, "callback") })
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10) // ties the callback, which was queued first
		order = append(order, "sleeper")
	})
	env.Run()
	if got := strings.Join(order, ","); got != "callback,sleeper" {
		t.Fatalf("ran %s, want the earlier-queued callback first", got)
	}
}

func TestSleepPastTheLimitResumesOnTheNextRun(t *testing.T) {
	env := NewEnv(1)
	woke := Time(-1)
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	if end := env.RunUntil(50); end != 50 || woke != -1 {
		t.Fatalf("RunUntil(50) ended at %d with the sleeper woken at %d: it ran past the limit", end, woke)
	}
	if env.RunUntil(200); woke != 100 {
		t.Fatalf("sleeper woke at %d on the next RunUntil, want 100", woke)
	}
}

func TestSleepAfterStopParks(t *testing.T) {
	env := NewEnv(1)
	woke := false
	env.Spawn("sleeper", func(p *Proc) {
		env.Stop()
		p.Sleep(10)
		woke = true
	})
	if end := env.Run(); end != 0 || woke {
		t.Fatalf("stopped run ended at %d, woke=%v: the sleeper went on after Stop", end, woke)
	}
}

func TestKilledSleeperDoesNotMoveTheClock(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	victim := func(name string) *Proc {
		return env.Spawn(name, func(p *Proc) {
			defer p.Sleep(5) // cleanup that sleeps while being killed
			sig.Wait(p)
		})
	}
	first, second := victim("killed"), victim("shut down")
	var after Time
	env.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		env.Kill(first)
		after = p.Now()
	})
	end := env.Run()
	if after != 10 {
		t.Fatalf("clock at %d once Kill returned, want 10: the dying sleeper moved it", after)
	}
	env.Shutdown()
	if env.Now() != end || !second.done {
		t.Fatalf("clock at %d after Shutdown (victim done=%v), want %d", env.Now(), second.done, end)
	}
}

func TestComputeParksUnlessAloneOnAFreeCore(t *testing.T) {
	// One core, another task running: both progress at half rate, so the
	// short task ends at 20 and the long one at 110.
	env := NewEnv(1)
	cpu := NewCPU(env, 1)
	var long, short Time
	env.Spawn("long", func(p *Proc) {
		cpu.Compute(p, 100)
		long = p.Now()
	})
	env.Spawn("short", func(p *Proc) {
		cpu.Compute(p, 10)
		short = p.Now()
	})
	env.Run()
	if short != 20 || long != 110 {
		t.Fatalf("tasks ended at %d and %d, want 20 and 110", short, long)
	}

	// One core filled by busy load: the lone task runs at half rate.
	env = NewEnv(1)
	cpu = NewCPU(env, 1)
	cpu.AddLoad(1)
	var done Time
	env.Spawn("loaded", func(p *Proc) {
		cpu.Compute(p, 10)
		done = p.Now()
	})
	env.Run()
	if done != 20 {
		t.Fatalf("task beside a busy poller ended at %d, want 20", done)
	}
}

// ---------------------------------------------------------------------------
// FIFO: backing-array reuse.

func TestFifoReusesBackingArray(t *testing.T) {
	var f FIFO[*int]
	x := new(int)
	for round := 0; round < 1000; round++ { // drains every round
		f.Push(x)
		f.Push(x)
		f.Pop()
		f.Pop()
	}
	if cap(f.buf) > 4 {
		t.Fatalf("draining queue grew to cap %d", cap(f.buf))
	}
	f.Push(x)
	for round := 0; round < 1000; round++ { // never drains
		f.Push(x)
		f.Pop()
	}
	if cap(f.buf) > 8 || f.Len() != 1 {
		t.Fatalf("steady queue of 1: cap %d len %d", cap(f.buf), f.Len())
	}
	for _, p := range f.buf[:f.head] {
		if p != nil {
			t.Fatal("popped slot still holds its pointer")
		}
	}
	var order FIFO[int]
	next := 0
	for i := 0; i < 200; i++ {
		order.Push(i)
		if i%3 != 0 {
			if got := order.Pop(); got != next {
				t.Fatalf("pop %d, want %d", got, next)
			}
			next++
		}
	}
	// RemoveAt and At index from the head, wherever the head has moved to;
	// Clear empties the queue and unpins every slot.
	for order.Len() > 3 {
		order.Pop()
	}
	a, b, c := order.At(0), order.At(1), order.At(2)
	order.RemoveAt(1)
	if order.Len() != 2 || order.At(0) != a || order.At(1) != c {
		t.Fatalf("removing %d from [%d %d %d] left %d elements, head %d", b, a, b, c, order.Len(), order.At(0))
	}
	f.Push(x)
	f.Clear()
	if f.Len() != 0 || cap(f.buf) == 0 {
		t.Fatalf("cleared queue: len %d cap %d", f.Len(), cap(f.buf))
	}
	for _, p := range f.buf[:cap(f.buf)] {
		if p != nil {
			t.Fatal("cleared slot still holds its pointer")
		}
	}
}

// ---------------------------------------------------------------------------
// Steady-state cost: the shapes of the benchmark ledger's sim.*_host_ns rows
// (bench/layers.go) must not allocate once the event pool, ready FIFO, wait
// queues and task slice are warm. bench_test.go times the same shapes.

// pingPong returns an environment in which each RunUntil(now+1) performs one
// round trip between two processes parked on Signals.
func pingPong() *Env {
	env := NewEnv(1)
	a, b := NewSignal(env), NewSignal(env)
	env.Spawn("ping", func(p *Proc) {
		for {
			p.Sleep(1)
			b.Fire()
			a.Wait(p)
		}
	})
	env.Spawn("pong", func(p *Proc) {
		for {
			b.Wait(p)
			a.Fire()
		}
	})
	return env
}

func computeLoop() *Env {
	env := NewEnv(1)
	cpu := NewCPU(env, 4)
	for i := 0; i < 8; i++ {
		env.Spawn("w", func(p *Proc) {
			for {
				cpu.Compute(p, 1000)
			}
		})
	}
	return env
}

func TestKernelSteadyStateAllocs(t *testing.T) {
	step := func(env *Env, d Time) func() {
		return func() { env.RunUntil(env.Now() + d) }
	}
	sleeper := NewEnv(1)
	sleeper.Spawn("s", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	timers := NewEnv(1)
	var tick func()
	tick = func() { timers.After(1, tick) }
	timers.After(1, tick)
	stopped := NewEnv(1)
	var guard Timer
	var rearm func()
	rearm = func() { // a timeout that never fires: stopped and re-armed each step
		guard.Stop()
		guard = stopped.AtTimer(stopped.Now()+3, func() { panic("stopped timer fired") })
		stopped.After(1, rearm)
	}
	stopped.After(1, rearm)
	same := NewEnv(1)
	noop, never := func() {}, func() { panic("stopped timer fired") }
	var hop func()
	hop = func() { // same-instant events: one fires from ready, one is stopped there
		same.At(same.Now(), noop)
		same.AtTimer(same.Now(), never).Stop()
		same.After(1, hop)
	}
	same.After(1, hop)
	// The far heap's shapes: a wake and a timeout due past the horizon.
	farSleeper := NewEnv(1)
	farSleeper.Spawn("s", func(p *Proc) {
		for {
			p.Sleep(3 * horizon)
		}
	})
	farStopped := NewEnv(1)
	var farGuard Timer
	var farRearm func()
	farRearm = func() {
		farGuard.Stop()
		farGuard = farStopped.AtTimer(farStopped.Now()+3*horizon, func() { panic("stopped timer fired") })
		farStopped.After(1, farRearm)
	}
	farStopped.After(1, farRearm)

	for _, c := range []struct {
		name string
		env  *Env
		d    Time
		far  bool // it keeps an event in the far heap
	}{
		{"Sleep", sleeper, 1, false},
		{"Signal ping-pong", pingPong(), 1, false},
		{"After", timers, 1, false},
		{"AtTimer+Stop", stopped, 1, false},
		{"same-instant At+Stop", same, 1, false},
		{"Compute", computeLoop(), 2000, false},
		{"far Sleep", farSleeper, 3 * horizon, true},
		{"far AtTimer+Stop", farStopped, 1, true},
	} {
		run := step(c.env, c.d)
		for i := 0; i < 10; i++ {
			run() // warm up: event pool, wait queues, task slice
		}
		if far := len(c.env.later) > 0; far != c.far {
			t.Errorf("%s: %d events in the far heap", c.name, len(c.env.later))
		}
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s: %v allocs per step in steady state, want 0", c.name, n)
		}
		c.env.Shutdown()
	}
}
