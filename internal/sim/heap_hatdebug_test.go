//go:build hatdebug

package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The sanitizer's build checks every slot a sift moved, in either heap:
// each must know its index and keep (at, seq) order with its parent and
// children.
func TestHeapCheckCatchesCorruption(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(env *Env)
		then    func(env *Env, far []Timer)
	}{
		// A sift from slot 7 through 3 and 1 to the root passes slot 4's
		// parent.
		{"child out of order", func(env *Env) { env.events[4].at = 5 },
			func(env *Env, _ []Timer) { env.AtTimer(9, func() {}) }},
		{"stale index", func(env *Env) { env.events[2].idx = 5 },
			func(env *Env, _ []Timer) { env.events.checkPath(0, 2) }},
		{"later child out of order", func(env *Env) { env.later[4].at = 5 * horizon },
			func(env *Env, _ []Timer) { env.AtTimer(9*horizon, func() {}) }},
		{"later stale index", func(env *Env) { env.later[2].idx = 5 },
			func(env *Env, _ []Timer) { env.later.checkPath(0, 2) }},
		// Stopping the root sifts the last entry down through slot 1 and
		// into slot 3, which moves slot 3's early event above its parent.
		{"later slot under Stop", func(env *Env) { env.later[3].at = 5 * horizon },
			func(env *Env, far []Timer) { far[0].Stop() }},
	} {
		env := NewEnv(1)
		var far []Timer
		for i := 0; i < 7; i++ {
			env.At(Time(10+i), func() {})
			far = append(far, env.AtTimer(Time(10+i)*horizon, func() {}))
		}
		if len(env.events) != 7 || len(env.later) != 7 {
			t.Fatalf("%d near and %d far events queued, want 7 and 7", len(env.events), len(env.later))
		}
		c.corrupt(env)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of order") {
					t.Errorf("%s: panic %v, want the heap check's", c.name, r)
				}
			}()
			c.then(env, far)
		}()
	}
}
