package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/sim"
	"hatrpc/internal/trdma"
	"hatrpc/internal/ycsb"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
	} {
		if got := percentile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.q, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestTailPercentileRule(t *testing.T) {
	// The reported tail is the highest rung with ≥ 10 samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) → (q3 − q1) / median.
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{5}, 0},
		{[]float64{100, 102, 98, 101, 99}, (101.5 - 98.5) / 100},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestSimDigest(t *testing.T) {
	a := map[string]float64{"sim_lat_p50_ns": 2646, "sim_goodput_ops_s": 2.79e6}
	b := map[string]float64{"sim_goodput_ops_s": 2.79e6, "sim_lat_p50_ns": 2646}
	if simDigest(a) != simDigest(b) {
		t.Error("digest depends on map order")
	}
	if d := firstDiff(a, b); d != "" {
		t.Errorf("firstDiff of equal sets = %q", d)
	}
	b["sim_lat_p50_ns"] = math.Nextafter(2646, 3000)
	if simDigest(a) == simDigest(b) {
		t.Error("digest missed a one-ulp difference")
	}
	if d := firstDiff(a, b); d != "sim_lat_p50_ns" {
		t.Errorf("firstDiff = %q, want sim_lat_p50_ns", d)
	}
}

func TestJudgeBounds(t *testing.T) {
	lower := metricDef{Name: "sim_lat_p50_ns", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "host_ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		m              metricDef
		a, b, sa, sb   float64
		want           verdict
		wantWorsenSign int
	}{
		{lower, 100, 104, 0, 0, within, +1},
		{lower, 100, 106, 0, 0, worse, +1},
		{lower, 100, 94, 0, 0, better, -1},
		{higher, 1000, 950, 0.02, 0.02, within, +1},
		{higher, 1000, 880, 0.02, 0.02, worse, +1},
		{higher, 1000, 1200, 0.02, 0.02, better, -1},
		{higher, 1000, 700, 0.12, 0.02, unresolved, +1}, // A's own spread exceeds the bound
		{higher, 1000, 700, 0.02, 0.12, unresolved, +1},
		{lower, 0, 5, 0, 0, within, 0}, // no base to take a share of
	} {
		if got := judge(tc.m, tc.a, tc.b, tc.sa, tc.sb); got != tc.want {
			t.Errorf("judge(%s, %g→%g, spreads %g/%g) = %s, want %s", tc.m.Name, tc.a, tc.b, tc.sa, tc.sb, got, tc.want)
		}
		w := worsening(tc.m, tc.a, tc.b)
		if (w > 0) != (tc.wantWorsenSign > 0) || (w < 0) != (tc.wantWorsenSign < 0) {
			t.Errorf("worsening(%s, %g→%g) = %g, want sign %d", tc.m.Name, tc.a, tc.b, w, tc.wantWorsenSign)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(ops float64) *suiteResult {
		return &suiteResult{Workloads: []*workloadResult{{
			Workload: "echo_small",
			EndToEnd: map[string]metricValue{"host_ops_per_s": {ops, "ops/s"}},
			Spread:   map[string]float64{"host_ops_per_s": 0.01},
		}}}
	}
	var out bytes.Buffer
	if code := compareSuites(mk(1000), mk(990), &out); code != 0 {
		t.Errorf("within-bound change exits %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSuites(mk(1000), mk(500), &out); code != 1 {
		t.Errorf("halved throughput exits %d, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row in:\n%s", out.String())
	}
}

// TestManifestMatchesCode pins BENCHMARK.json to the metric and workload
// tables: regenerate it with `bench -manifest` when they change.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Error("BENCHMARK.json differs from the code's tables; run `go run . -manifest > ../BENCHMARK.json` in bench/")
	}
	seen := map[string]bool{}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range perLayer {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestQuickSmoke is the -quick suite: every workload once at a tenth of
// its length, then the traced pass. Every named metric must appear exactly
// once per workload with a finite value, end-to-end metrics must not be
// zero, and no op may fail.
func TestQuickSmoke(t *testing.T) {
	o := options{seed: 7, repeats: 1, scale: quickScale, outDir: t.TempDir()}
	micro := layerMicroRuns(o)
	names := map[string]bool{}
	for _, w := range workloads {
		if names[w.name] {
			t.Errorf("workload %s listed twice", w.name)
		}
		names[w.name] = true
		res, err := runTimed(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d failed ops: %s", w.name, res.Failed, res.FirstError)
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.EndToEnd), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (present %v)", w.name, m.Name, v, ok)
			}
		}
		if w.loop == "closed" && res.EndToEnd["ok_share"].Value != 1 {
			t.Errorf("%s: ok_share %g on a closed-loop workload", w.name, res.EndToEnd["ok_share"].Value)
		}
		tres, err := runTraced(w, o, micro)
		if err != nil {
			t.Fatal(err)
		}
		if tres.Failed != 0 {
			t.Errorf("%s traced: %d failed ops: %s", w.name, tres.Failed, tres.FirstError)
		}
		if len(tres.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(tres.PerLayer), len(perLayer))
		}
		if w.name == "cluster_rf3" {
			for _, n := range []string{"cluster.promotions", "cluster.stale_retries", "cluster.refreshes"} {
				if v := tres.PerLayer[n].Value; v != 0 {
					t.Errorf("cluster_rf3: %s = %g on a fault-free run", n, v)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace."+w.name+".json")); err != nil {
			t.Error(err)
		}
	}
	if v := micro["obs.overhead_ratio"]; v <= 0 {
		t.Errorf("obs.overhead_ratio = %g", v)
	}
}

// TestDeterminismGate: two repeats of one seed agree bit-for-bit, and a
// different seed does not.
func TestDeterminismGate(t *testing.T) {
	w := workloadByName("kv_read")
	a := runRepeat(w, 3, quickScale, nil, nil)
	b := runRepeat(w, 3, quickScale, nil, nil)
	if simDigest(a.sim) != simDigest(b.sim) {
		t.Errorf("same seed diverged on %s", firstDiff(a.sim, b.sim))
	}
	c := runRepeat(w, 4, quickScale, nil, nil)
	if simDigest(a.sim) == simDigest(c.sim) {
		t.Error("seeds 3 and 4 produced identical sim metrics: the seed does not reach the workload")
	}
}

// chain is one request's latency split by layer, bottom-up, beside the
// traced median it should add up to.
type chain struct {
	wire, verbs, engine, trdma, handler float64
	traced                              float64
}

func (c chain) sum() float64 { return c.wire + c.verbs + c.engine + c.trdma + c.handler }

func (c chain) check(t *testing.T, name string) {
	t.Helper()
	t.Logf("%s: simnet %.0f + verbs %.0f + engine %.0f + trdma %.0f + handler %.0f = %.0f ns; traced p50 %.0f ns",
		name, c.wire, c.verbs, c.engine, c.trdma, c.handler, c.sum(), c.traced)
	for part, v := range map[string]float64{"simnet": c.wire, "verbs": c.verbs, "engine": c.engine, "trdma": c.trdma, "handler": c.handler} {
		if v < 0 {
			t.Errorf("%s: %s self time is negative (%.0f ns): a layer is cheaper than the one below it", name, part, v)
		}
	}
	if d := math.Abs(c.sum()-c.traced) / c.traced; d > 0.05 {
		t.Errorf("%s: layer self times add to %.0f ns, traced p50 is %.0f ns (%.1f %% apart, limit 5 %%)", name, c.sum(), c.traced, 100*d)
	}
}

// soloTraced runs a one-client copy of a workload traced and returns the
// median client and handler spans of its primary op.
func soloTraced(base *workload, build func(s *scn)) (client, handler float64) {
	solo := *base
	solo.clients = 1
	solo.build = build
	tr := newTracing()
	r := runRepeat(&solo, 5, quickScale, tr, nil)
	if r.failed > 0 {
		panic(r.firstErr)
	}
	return percentile(tr.durationsOf("client", base.primary), 50), percentile(tr.durationsOf("handler", base.primary), 50)
}

// zeroKV answers every HatKV call at no simulated cost.
type zeroKV struct{ value []byte }

func (z zeroKV) Get(*sim.Proc, string) ([]byte, error)             { return z.value, nil }
func (z zeroKV) Put(*sim.Proc, string, []byte) error               { return nil }
func (z zeroKV) MultiGet(*sim.Proc, []string) ([][]byte, error)    { return nil, nil }
func (z zeroKV) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) error { return nil }

// TestLayerReconciliation: with one client, the self times of simnet,
// verbs, engine and trdma (each layer's unloaded round trip minus the
// layer below, from the micro-runs) plus the traced handler span must add
// up to the traced median of the primary op, within 5 %.
func TestLayerReconciliation(t *testing.T) {
	t.Run("echo_small", func(t *testing.T) {
		const n = 200
		var c chain
		c.traced, c.handler = soloTraced(workloadByName("echo_small"), func(s *scn) { buildEcho(s, sizeSmall, 1) })
		size := echoSize(5, sizeSmall) // soloTraced runs seed 5
		stub := stubEcho(sizeSmall, size, 8, n)
		vSim, _ := verbsRTT(size, size, stub.mode, n)
		eng := engineCall(size, size, stub.mode, n)
		c.wire = wireRTT(size, size)
		c.verbs, c.engine, c.trdma = vSim-c.wire, eng.simP50-vSim, stub.simP50-eng.simP50
		c.check(t, "echo_small")
	})
	t.Run("kv_read", func(t *testing.T) {
		const n = 200
		var c chain
		c.traced, c.handler = soloTraced(workloadByName("kv_read"), func(s *scn) { buildKV(s, ycsb.WorkloadB(kvRecords), false) })

		// Get through the generated stub against a store that costs nothing.
		env, cl := pair()
		srvEng, cliEng := engine.New(cl.Node(1), engine.DefaultConfig()), engine.New(cl.Node(0), engine.DefaultConfig())
		sh := hatkv.FunctionHints()
		srv := trdma.NewServer(srvEng, sh, kvgen.NewHatKVProcessor(zeroKV{make([]byte, kvValueLen)}))
		mode := rpcMode{srvBusy: srv.EngineServer().Busy}
		var stubP50 float64
		var reqLen, respLen int
		env.Spawn("cli", func(p *sim.Proc) {
			tr := trdma.Dial(p, cliEng, cl.Node(1), sh, nil)
			tap := &sizeTap{Transport: tr}
			stub := kvgen.NewHatKVClient(tap)
			var lat []float64
			for i := 0; i < n+3; i++ {
				start := p.Now()
				if _, err := stub.Get(p, ycsb.Key(i)); err != nil {
					panic(err)
				}
				if i >= 3 {
					lat = append(lat, float64(p.Now()-start))
				}
			}
			stubP50, mode.opts = percentile(lat, 50), tr.Plan("Get")
			reqLen, respLen = tap.req, tap.resp
			env.Stop()
		})
		env.Run()
		env.Shutdown()
		if mode.opts.Proto != engine.DirectWriteIMM || (mode.opts.RespProto != engine.ProtoAuto && mode.opts.RespProto != engine.DirectWriteIMM) {
			t.Skipf("Get plan is %v/%v; the verbs micro-run models Direct-WriteIMM only", mode.opts.Proto, mode.opts.RespProto)
		}
		vSim, _ := verbsRTT(reqLen, respLen, mode, n)
		eng := engineCall(reqLen, respLen, mode, n)
		c.wire = wireRTT(reqLen, respLen)
		c.verbs, c.engine, c.trdma = vSim-c.wire, eng.simP50-vSim, stubP50-eng.simP50
		c.check(t, "kv_read Get")
	})
}
