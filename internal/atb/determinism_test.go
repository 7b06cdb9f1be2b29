package atb

import (
	"fmt"
	"strings"
	"testing"

	"hatrpc/internal/engine"
	"hatrpc/internal/obs"
	"hatrpc/internal/simnet"
)

// sweepOutput runs a small ATB sweep (latency points across two
// protocols plus one throughput point) with full observability attached
// and returns every byte the run produces: the raw points, the metrics
// exposition, and the chrome trace JSON. chaos additionally installs
// packet loss + jitter with the retry/deadline layer enabled — the
// configuration with the most scheduler-visible branching. The
// throughput point runs 16 clients so that under chaos it makes about
// 500 calls and draws about 30 drops and retries.
func sweepOutput(chaos bool) string {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	reg.SetTracer(tracer)

	runIdx := 0
	tb := Testbed{Hook: func(f *Fabric) {
		tracer.SetPIDOffset(runIdx * 16)
		runIdx++
		for _, e := range f.Engines() {
			e.SetObs(reg)
		}
		if fp := f.Cluster.Faults(); fp != nil {
			fp.SetObs(reg)
		}
	}}
	if chaos {
		tb.Faults = &simnet.FaultConfig{DropProb: 0.02, JitterNs: 300}
		tb.DeadlineNs = 2_000_000
	}

	lat := Sweep{
		Testbed:  tb,
		Subjects: []Subject{Raw(engine.EagerSendRecv, true), Raw(engine.DirectWriteIMM, true)},
		Sizes:    []int{512},
		Iters:    6,
		Seed:     42,
	}.Run()
	tput := Sweep{
		Testbed:  tb,
		Subjects: []Subject{Raw(engine.EagerSendRecv, false)},
		Sizes:    []int{512},
		Clients:  []int{16},
		Seed:     42,
	}.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "latency: %+v\n", lat)
	fmt.Fprintf(&b, "throughput: %+v\n", tput)
	b.WriteString(reg.Exposition())
	if err := tracer.WriteJSON(&b); err != nil {
		fmt.Fprintf(&b, "trace error: %v", err)
	}
	return b.String()
}

// TestByteIdenticalReplay is the repo-wide determinism regression test:
// the same seed must reproduce the complete observable output of a
// sweep — metrics exposition and trace JSON byte for byte — both fault-free
// and under chaos (loss + jitter + retries). Any map-order or
// wall-clock leak anywhere in the stack shows up here as a diff.
func TestByteIdenticalReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full simulation sweeps")
	}
	for _, tc := range []struct {
		name  string
		chaos bool
	}{
		{"clean", false},
		{"chaos", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := sweepOutput(tc.chaos)
			b := sweepOutput(tc.chaos)
			if len(a) < 1000 || !strings.Contains(a, "traceEvents") {
				t.Fatalf("sweep produced implausibly small output (%d bytes)", len(a))
			}
			if a != b {
				t.Fatalf("replay diverged:\n%s", firstDiff(a, b))
			}
		})
	}
}

// TestFaultRunBulkPointCompletes is the documented fault run at its worst
// sweep point: a 512 KB echo sent eagerly is 129 packets each way, so at 1 %
// loss about one attempt in thirteen arrives whole and the slowest call needs
// several times the 2 ms -deadline default. The harness stretches the deadline
// to what the size and loss rate call for (engine.LossDeadline), so the point
// completes — the sweep panics on a failed call — and replays.
func TestFaultRunBulkPointCompletes(t *testing.T) {
	sw := Sweep{
		Testbed:  Testbed{Faults: &simnet.FaultConfig{DropProb: 0.01}, DeadlineNs: 2_000_000},
		Subjects: []Subject{Raw(engine.EagerSendRecv, true)},
		Sizes:    []int{524288},
		Iters:    30,
		Seed:     42,
	}
	a, b := sw.Run(), sw.Run()
	if a[0] != b[0] {
		t.Fatalf("replay diverged:\n%+v\n%+v", a[0], b[0])
	}
	if a[0].P99Ns <= 2_000_000 {
		t.Errorf("slowest call took %.0f ns: the point no longer needs more than the 2 ms floor", a[0].P99Ns)
	}
}

// firstDiff renders the first line where two outputs diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
