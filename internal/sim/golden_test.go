package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// goldenTraceHash was recorded at the commit before the kernel moved from
// goroutines and channels to coroutines and a pooled event queue (PR 15).
// A kernel change that is meant to be timing-neutral must not move it: the
// hash covers (virtual time, event sequence number, process) at every step
// of a scenario that reaches every scheduling primitive.
const goldenTraceHash = "dd229cb63ff500d1"

// goldenTrace runs the fixed scenario and returns the hash of its trace and
// the number of trace records.
func goldenTrace() (string, int) {
	env := NewEnv(20260926)
	h := fnv.New64a()
	n := 0
	rec := func(who string, step int) {
		fmt.Fprintf(h, "%d %d %s %d\n", env.now, env.seq, who, step)
		n++
	}

	// Sleep ties and Yield interleaving.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("sleeper%d", i)
		d := Duration(40 - 10*(i%3))
		env.Spawn(name, func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Sleep(d)
				rec(name, k)
				if k%2 == 0 {
					p.Yield()
					rec(name, 100+k)
				}
			}
		})
	}

	// Signal: FIFO waiters, a pending fire, timed waiters that time out
	// and timed waiters that are fired, a broadcast.
	sig := NewSignal(env)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("waiter%d", i)
		env.Spawn(name, func(p *Proc) {
			for k := 0; k < 3; k++ {
				sig.Wait(p)
				rec(name, k)
			}
		})
	}
	tsig := NewSignal(env)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("timed%d", i)
		until := Time(25 + 30*i)
		env.Spawn(name, func(p *Proc) {
			for k := 0; k < 4; k++ {
				ok := tsig.WaitUntil(p, p.Now()+until)
				step := k
				if ok {
					step += 100
				}
				rec(name, step)
			}
		})
	}
	env.Spawn("firer", func(p *Proc) {
		sig.Fire()
		for k := 0; k < 8; k++ {
			p.Sleep(Duration(7 + env.Rand().Intn(20)))
			sig.Fire()
			tsig.Fire()
			rec("firer", k)
		}
		sig.Broadcast()
		tsig.Broadcast()
		tsig.Fire() // left pending
		rec("firer", 99)
	})

	// Queue: Pop, PopUntil with timeouts, TryPop, bursts that drain and
	// refill the backing array.
	q := NewQueue[int](env)
	env.Spawn("producer", func(p *Proc) {
		for k := 0; k < 30; k++ {
			if k%5 != 0 {
				p.Sleep(Duration(3 + env.Rand().Intn(9)))
			}
			q.Push(k)
			rec("producer", k)
		}
	})
	env.Spawn("popper", func(p *Proc) {
		for k := 0; k < 12; k++ {
			rec("popper", q.Pop(p))
		}
	})
	env.Spawn("timedpopper", func(p *Proc) {
		for k := 0; k < 25; k++ {
			v, ok := q.PopUntil(p, p.Now()+6)
			if !ok {
				v = -1
			}
			rec("timedpopper", v)
			if v2, ok := q.TryPop(); ok {
				rec("trypop", v2)
			}
		}
	})

	// Mutex with FIFO hand-off, the critical section on a CPU.
	mu := NewMutex(env)
	under := NewCPU(env, 4)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("locker%d", i)
		env.Spawn(name, func(p *Proc) {
			for k := 0; k < 4; k++ {
				mu.Lock(p)
				rec(name, k)
				under.Compute(p, Duration(11+i))
				mu.Unlock()
				p.Sleep(Duration(5 * (i + 1)))
			}
		})
	}

	// CPU over-subscription: 7 tasks on 2 cores with simultaneous
	// completions, arrivals mid-flight and persistent load coming and going.
	over := NewCPU(env, 2)
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("task%d", i)
		work := Duration(100 + 50*(i%3))
		env.Spawn(name, func(p *Proc) {
			p.Sleep(Duration(13 * (i % 4)))
			for k := 0; k < 3; k++ {
				over.Compute(p, work)
				rec(name, k)
			}
		})
	}
	env.After(90, func() { over.AddLoad(2); rec("load", 1) })
	env.After(400, func() { over.RemoveLoad(2); rec("load", 0) })

	// Kill: in Sleep, in Signal.Wait (the next Fire must reach a live
	// waiter), in Compute (its share stays charged until it would have
	// finished), before first dispatch, and of a finished process.
	ksig := NewSignal(env)
	inSleep := env.Spawn("victim-sleep", func(p *Proc) {
		defer rec("victim-sleep", -1)
		p.Sleep(1000)
		rec("victim-sleep", 0)
	})
	inWait := env.Spawn("victim-wait", func(p *Proc) {
		defer rec("victim-wait", -1)
		ksig.Wait(p)
		rec("victim-wait", 0)
	})
	env.Spawn("survivor-wait", func(p *Proc) {
		ksig.Wait(p)
		rec("survivor-wait", 0)
	})
	inCompute := env.Spawn("victim-compute", func(p *Proc) {
		defer rec("victim-compute", -1)
		over.Compute(p, 5000)
		rec("victim-compute", 0)
	})
	finished := env.Spawn("finished", func(p *Proc) { rec("finished", 0) })
	env.Spawn("killer", func(p *Proc) {
		p.Sleep(60)
		env.Kill(inSleep)
		rec("killer", 0)
		p.Sleep(10)
		env.Kill(inWait)
		ksig.Fire()
		rec("killer", 1)
		p.Sleep(10)
		env.Kill(inCompute)
		env.Kill(finished)
		unborn := env.Spawn("unborn", func(p *Proc) { rec("unborn", 0) })
		env.Kill(unborn)
		rec("killer", 2)
	})

	// Callbacks that spawn, fire and chain.
	var chain func()
	left := 10
	chain = func() {
		rec("chain", left)
		if left--; left > 0 {
			env.After(Duration(17+left), chain)
		}
		if left == 5 {
			env.Spawn("late", func(p *Proc) {
				p.Sleep(3)
				rec("late", 0)
				sig.Fire()
			})
		}
	}
	env.After(5, chain)

	end := env.RunUntil(300)
	rec("rununtil", int(end))
	end = env.Run()
	rec("run", int(end))
	env.Shutdown()
	return fmt.Sprintf("%016x", h.Sum64()), n
}

func TestEventOrderGolden(t *testing.T) {
	got, n := goldenTrace()
	if again, _ := goldenTrace(); again != got {
		t.Fatalf("trace hash not repeatable: %s then %s", got, again)
	}
	if got != goldenTraceHash {
		t.Fatalf("event order moved: trace hash %s over %d records, want %s", got, n, goldenTraceHash)
	}
}
