//go:build hatdebug

package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The sanitizer's build checks every slot a sift moved: each must know
// its index and keep (at, seq) order with its parent and children.
func TestHeapCheckCatchesCorruption(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(h []*event)
		then    func(env *Env)
	}{
		// A sift from slot 7 through 3 and 1 to the root passes slot 4's
		// parent.
		{"child out of order", func(h []*event) { h[4].at = 5 }, func(env *Env) { env.AtTimer(9, func() {}) }},
		{"stale index", func(h []*event) { h[2].idx = 5 }, func(env *Env) { env.checkPath(0, 2) }},
	} {
		env := NewEnv(1)
		for i := 0; i < 7; i++ {
			env.At(Time(10+i), func() {})
		}
		c.corrupt(env.events)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of order") {
					t.Errorf("%s: panic %v, want the heap check's", c.name, r)
				}
			}()
			c.then(env)
		}()
	}
}
