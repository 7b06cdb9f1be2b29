package obs

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// expoFixture builds a registry exercising every instrument kind with
// names drawn from the real instrument set (dotted, obsnames-style).
func expoFixture() *Registry {
	r := NewRegistry()
	r.Counter("engine.session_redials").Add(3)
	r.Counter("engine.calls.Direct-WriteIMM").Add(34)
	r.Counter("cluster.promotions").Inc()
	r.Counter("node.drained").Add(17)
	r.Counter("engine.bytes_recvd").Add(4096)
	r.Counter("engine.rnr_failures").Inc()
	r.Counter("engine.shed.Eager-SendRecv").Add(2)
	r.Counter("verbs.doorbells").Add(21)
	h := r.Histogram("engine.call_lat.eager")
	for _, v := range []float64{1000, 2000, 3000, 4000, 5000} {
		h.Observe(v)
	}
	groups := r.Histogram("hatkv.commit_group_ops")
	for _, v := range []float64{1, 1, 3} {
		groups.Observe(v)
	}
	rto := r.Histogram("engine.rto_ns")
	for _, v := range []float64{50_000, 50_000, 100_000, 441_045} {
		rto.Observe(v)
	}
	r.Gauge("engine.pinned_bytes", func() float64 { return 1 << 20 })
	r.Gauge("node.health", func() float64 { return 1.5 })
	return r
}

// TestExpositionGolden pins the exposition byte-for-byte: stable
// ordering (counters, histograms, gauges — each sorted by name), the
// _total/_sum/_count/quantile series shapes, and the numeric rendering.
// Any drift fails here; regenerate deliberately with `go test -update`.
func TestExpositionGolden(t *testing.T) {
	got := expoFixture().Exposition()
	const golden = "testdata/exposition.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test -update` to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionNamesLegal: every exposed series name (and its TYPE
// declaration) must be a legal Prometheus metric name — the obsnames
// dotted convention mangles cleanly and no duplicate series appear.
func TestExpositionNamesLegal(t *testing.T) {
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	seen := make(map[string]bool)
	for _, line := range strings.Split(expoFixture().Exposition(), "\n") {
		if line == "" {
			continue
		}
		var name string
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = strings.Fields(rest)[0]
		} else {
			name = strings.SplitN(line, "{", 2)[0]
			name = strings.Fields(name)[0]
		}
		if !nameRe.MatchString(name) {
			t.Errorf("illegal metric name %q in line %q", name, line)
		}
		if !strings.HasPrefix(name, expoPrefix) {
			t.Errorf("metric %q missing %q namespace", name, expoPrefix)
		}
		if !strings.HasPrefix(line, "# TYPE ") && !strings.Contains(line, "{") {
			if seen[line[:strings.Index(line, " ")]] {
				t.Errorf("duplicate series %q", line)
			}
			seen[line[:strings.Index(line, " ")]] = true
		}
	}
}

// TestExpositionNilSafe: a nil registry exposes the empty scrape.
func TestExpositionNilSafe(t *testing.T) {
	var r *Registry
	if got := r.Exposition(); got != "" {
		t.Errorf("nil registry exposition = %q, want empty", got)
	}
}
