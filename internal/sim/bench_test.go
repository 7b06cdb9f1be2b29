package sim

import "testing"

// Four benchmarks mirror the benchmark ledger's sim.switch_host_ns,
// sim.timer_host_ns, sim.compute_host_ns and sim.spawn_host_ns rows
// (bench/layers.go), so a kernel change can be sized without a suite run.
// BenchmarkSleepInline times the Sleep that needs no switch;
// BenchmarkTimerStop, BenchmarkNearAmongFar and BenchmarkComputeOvercommit
// the shapes that overload_2x's queue and CPUs take.

func BenchmarkSwitch(b *testing.B) { // one op = one process switch, two per round trip
	env := NewEnv(1)
	ping, pong := NewSignal(env), NewSignal(env)
	env.Spawn("ping", func(p *Proc) {
		for i := 0; i < (b.N+1)/2; i++ {
			pong.Fire()
			ping.Wait(p)
		}
		env.Stop()
	})
	env.Spawn("pong", func(p *Proc) {
		for {
			pong.Wait(p)
			ping.Fire()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	env.Shutdown()
}

func BenchmarkTimer(b *testing.B) { // one op = one After callback
	env := NewEnv(1)
	left := b.N
	var tick func()
	tick = func() {
		if left--; left > 0 {
			env.After(10, tick)
		}
	}
	env.After(10, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func BenchmarkCompute(b *testing.B) { // one op = one Compute, 8 runnable on 4 cores
	env := NewEnv(1)
	cpu := NewCPU(env, 4)
	for i := 0; i < 8; i++ {
		env.Spawn("w", func(p *Proc) {
			for j := 0; j < (b.N+7)/8; j++ {
				cpu.Compute(p, 1000)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func BenchmarkSpawn(b *testing.B) { // one op = spawn, first dispatch and exit
	env := NewEnv(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Spawn("p", func(p *Proc) {})
	}
	env.Run()
}

func BenchmarkSleepInline(b *testing.B) { // one op = one Sleep with nothing due before its wake
	env := NewEnv(1)
	env.At(1<<40, func() {}) // a sparse queue: the one event is far off
	env.Spawn("s", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
		env.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	env.Shutdown()
}

func BenchmarkTimerStop(b *testing.B) { // one op = one AtTimer and its Stop, beside ≈ 170 queued events
	env := NewEnv(1)
	for i := 0; i < 170; i++ {
		env.At(1<<40+Time(i*7919%1000), func() {})
	}
	never := func() { panic("stopped timer fired") }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.AtTimer(env.Now()+1+Time(i%64), never).Stop()
		if i%16 == 15 { // the clock moves on, as a stopped timeout's would
			env.RunUntil(env.Now() + 1)
		}
	}
}

func BenchmarkNearAmongFar(b *testing.B) { // one op = one near After, with 128 far sleepers queued
	env := NewEnv(1)
	for i := 0; i < 128; i++ {
		env.Spawn("far", func(p *Proc) { p.Sleep(Duration(1<<40 + i*7919%1000)) })
	}
	env.RunUntil(0) // the sleepers park
	left := b.N
	var tick func()
	tick = func() {
		if left--; left > 0 {
			env.After(10, tick)
		}
	}
	env.After(10, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.RunUntil(1 << 39)
	b.StopTimer()
	env.Shutdown()
}

func BenchmarkComputeOvercommit(b *testing.B) { // one op = one Compute, 32 runnable on 28 cores
	env := NewEnv(1)
	cpu := NewCPU(env, 28)
	for i := 0; i < 32; i++ {
		env.Spawn("w", func(p *Proc) {
			for j := 0; j < (b.N+31)/32; j++ {
				cpu.Compute(p, Duration(900+10*i))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
