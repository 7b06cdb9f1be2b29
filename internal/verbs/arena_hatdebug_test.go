//go:build hatdebug

package verbs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hatrpc/internal/hatdebug"
	"hatrpc/internal/sim"
)

// TestSnapshotDoublePutPanics: a NIC payload snapshot handed back to the
// arena is poisoned, and handing it back again while the arena holds it
// panics, as a payload the engine recycles twice does.
func TestSnapshotDoublePutPanics(t *testing.T) {
	env := sim.NewEnv(1)
	a, _ := testPair(env)
	b := a.dev.snapshot([]byte("a payload the NIC captured at post"))
	a.dev.Put(b)
	if bytes.Count(b, []byte{hatdebug.Poisoned}) != len(b) {
		t.Errorf("a snapshot handed back is not poisoned: %q", b)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled twice") {
			t.Errorf("panic %v, want one saying %q", r, "recycled twice")
		}
	}()
	a.dev.Put(b)
}
