package sim

import "testing"

// TestCounts: the kernel's totals over a script with one of each case — a
// sleep and a compute that continue inline, a wake after a gap in which
// only a callback fired, a wake after another process ran, and a first
// dispatch, which ends no gap.
func TestCounts(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	cpu := NewCPU(env, 1)
	env.At(20, sig.Fire)
	env.Spawn("a", func(p *Proc) {
		p.Sleep(10)       // nothing due before 10: inline
		cpu.Compute(p, 5) // a free core, nothing due before 15: inline
		sig.Wait(p)       // the callback at 20 wakes it: a callback-only gap
		env.Spawn("b", func(p *Proc) { sig.Fire() })
		sig.Wait(p) // b runs in the gap
	})
	env.Run()
	want := Counts{Fired: 5, Dispatches: 4, Inline: 2, CallbackGaps: 1}
	if got := env.Counts(); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}
