package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"hatrpc/internal/engine"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// tracing is what the traced pass attaches to a scenario: an obs
// registry (counters at the layer boundaries) whose tracer also receives
// the harness-side spans, plus in-memory duration samples per span name.
// A nil *tracing is the timed pass: every method is a no-op.
type tracing struct {
	reg  *obs.Registry
	trc  *obs.Tracer
	recs []spanRec // measured-window spans only
}

// spanRec is one recorded span: its name, the request it belongs to and
// its sim-time duration.
type spanRec struct {
	name string
	op   string // client spans only: the kind of op the request was
	req  uint64
	dur  float64
}

func newTracing() *tracing {
	t := &tracing{reg: obs.NewRegistry(), trc: obs.NewTracer()}
	t.reg.SetTracer(t.trc)
	return t
}

// durations returns the durations of every measured span called name.
func (t *tracing) durations(name string) []float64 { return t.durationsOf(name, "") }

// durationsOf is durations restricted to requests whose client span was
// an op whose kind starts with op ("" = all), joined through the request
// id.
func (t *tracing) durationsOf(name, op string) []float64 {
	want := map[uint64]bool{}
	for _, r := range t.recs {
		if r.name == "client" && strings.HasPrefix(r.op, op) {
			want[r.req] = true
		}
	}
	var out []float64
	for _, r := range t.recs {
		if r.name == name && (op == "" || want[r.req]) {
			out = append(out, r.dur)
		}
	}
	return out
}

// selfTimes returns, per request of an op kind starting with op, the
// parent span's duration minus the part its child spans cover.
func (t *tracing) selfTimes(parent, child, op string) []float64 {
	covered := map[uint64]float64{}
	want := map[uint64]bool{}
	for _, r := range t.recs {
		switch {
		case r.name == child:
			covered[r.req] += r.dur
		case r.name == "client" && strings.HasPrefix(r.op, op):
			want[r.req] = true
		}
	}
	var out []float64
	for _, r := range t.recs {
		if r.name == parent && want[r.req] {
			out = append(out, r.dur-covered[r.req])
		}
	}
	return out
}

func (t *tracing) on() bool { return t != nil }

// registry returns the obs registry to hand to SetObs (nil when untraced,
// which SetObs treats as "detached").
func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *tracing) attach(engs ...*engine.Engine) {
	if t == nil {
		return
	}
	for _, e := range engs {
		e.SetObs(t.reg)
	}
}

// span records one harness-side span: into the chrome trace always, into
// the duration samples only when it lies in the measured window. req is
// the request id shared by every span of one request (0 = unlinked);
// parent names the span that caused it.
func (t *tracing) span(name, parent string, pid, tid int, req uint64, start, end sim.Time, measured bool) {
	t.record(spanRec{name: name, req: req}, parent, pid, tid, start, end, measured)
}

// clientSpan records the root span of a request: the client's call of op.
func (t *tracing) clientSpan(op string, pid, tid int, req uint64, start, end sim.Time, measured bool) {
	t.record(spanRec{name: "client", op: op, req: req}, "", pid, tid, start, end, measured)
}

func (t *tracing) record(r spanRec, parent string, pid, tid int, start, end sim.Time, measured bool) {
	if t == nil {
		return
	}
	t.trc.Complete("bench", r.name, pid, tid, int64(start), int64(end),
		obs.Arg{K: "req", V: fmt.Sprintf("%x", r.req)}, obs.Arg{K: "parent", V: parent}, obs.Arg{K: "op", V: r.op})
	if measured {
		r.dur = float64(end - start)
		t.recs = append(t.recs, r)
	}
}

func (t *tracing) counter(name string) float64 {
	if t == nil {
		return 0
	}
	return float64(t.reg.Counter(name).Value()) //hatlint:allow obsnames -- read-only lookup of names the program registered; bounded by countedNames
}

// scn is the runtime of one repeat of one workload: the DES, the
// measured window, the registration table that links server-side
// dispatcher processes to the client they serve, and the outcome tallies
// the drivers write into.
type scn struct {
	w    *workload
	seed int64
	env  *sim.Env
	tr   *tracing

	// Clients register one at a time during set-up, sleep until startAt,
	// then run. Ops that start in [warm, end) are measured.
	startAt, warm, end sim.Time

	regMu       *sim.Mutex
	registering int
	procClient  map[*sim.Proc]int
	cur         []uint64 // per client: id of its one outstanding request
	issued      []int    // per client: requests issued so far
	running     int

	attempted int       // ops started inside the window
	failed    int       // wrong outcome: unexpected error or output mismatch
	refused   int       // typed refusals the workload provokes on purpose
	okBytes   int64     // request+reply payload bytes of successful ops
	lat       []float64 // successful primary-op latencies, sim ns
	lag       []float64 // open loop: issue time − due time, sim ns
	perOp     map[string][]float64
	firstErr  string

	// atWarm runs at the window's opening edge and collect after the run:
	// between them a driver folds workload-specific state (store stats,
	// cluster counters) into the traced per-layer metrics, window only.
	atWarm  func()
	collect func(layer map[string]float64)
}

func newScn(w *workload, seed int64, scale float64, tr *tracing) *scn {
	s := &scn{
		w: w, seed: seed, env: sim.NewEnv(seed), tr: tr,
		procClient: map[*sim.Proc]int{}, perOp: map[string][]float64{},
		registering: -1,
	}
	s.regMu = sim.NewMutex(s.env)
	s.cur = make([]uint64, w.clients)
	s.issued = make([]int, w.clients)
	s.startAt = sim.Time(w.setupNs)
	s.warm = s.startAt + sim.Time(float64(w.warmNs)*scale)
	s.end = s.warm + sim.Time(float64(w.windowNs)*scale)
	return s
}

// clientRand is client i's private input stream: a pure function of the
// run seed, independent of scheduling.
func (s *scn) clientRand(i int) *rand.Rand {
	return sim.NewRand(s.seed*1_000_003 + int64(i)*7919 + 1)
}

// spawn starts client i. register runs under the registration lock (dial
// plus one request, so the server-side wrapper can learn which dispatcher
// process serves this client); body runs from startAt until it returns.
func (s *scn) spawn(i int, register, body func(p *sim.Proc)) {
	s.running++
	s.env.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
		s.regMu.Lock(p)
		s.registering = i
		register(p)
		s.registering = -1
		s.regMu.Unlock()
		if p.Now() > s.startAt {
			panic(fmt.Sprintf("bench: %s set-up overran its %d ns budget (now %d)", s.w.name, s.startAt, p.Now()))
		}
		p.Sleep(sim.Duration(s.startAt - p.Now()))
		body(p)
		if s.running--; s.running == 0 {
			s.env.Stop()
		}
	})
}

// serverClient returns the client a server-side process serves, learning
// the link on first sight from whoever holds the registration lock.
func (s *scn) serverClient(p *sim.Proc) int {
	if c, ok := s.procClient[p]; ok {
		return c
	}
	c := s.registering
	if c >= 0 {
		s.procClient[p] = c
	}
	return c
}

// nextRequest mints the id client c's next request carries. Every client
// has one request outstanding at a time, so the server side can recover
// the id from the client alone.
func (s *scn) nextRequest(c int) uint64 {
	s.cur[c] = reqID(c, s.issued[c])
	s.issued[c]++
	return s.cur[c]
}

// serverRequest returns the client a server-side process is serving and
// the id of that client's outstanding request (-1, 0 when unknown).
func (s *scn) serverRequest(p *sim.Proc) (int, uint64) {
	c := s.serverClient(p)
	if c < 0 {
		return c, 0
	}
	return c, s.cur[c]
}

func (s *scn) measured(start sim.Time) bool { return start >= s.warm && start < s.end }

// reqID is the identifier every span of client c's n-th request shares.
func reqID(c, n int) uint64 { return uint64(c+1)<<32 | uint64(uint32(n)) }

// outcome classifies one finished op.
type outcome int

const (
	opOK outcome = iota
	opRefused
	opFailed
)

// record tallies one op that started at start (latency is timed from
// there — for the open loop that is the due time) and ended now.
func (s *scn) record(kind string, primary bool, start, now sim.Time, bytes int, oc outcome, why string) {
	if !s.measured(start) {
		return
	}
	s.attempted++
	switch oc {
	case opRefused:
		s.refused++
		return
	case opFailed:
		s.failed++
		if s.firstErr == "" {
			s.firstErr = fmt.Sprintf("%s at %d ns: %s", kind, start, why)
		}
		return
	}
	s.okBytes += int64(bytes)
	d := float64(now - start)
	if primary {
		s.lat = append(s.lat, d)
	}
	if s.tr.on() {
		s.perOp[kind] = append(s.perOp[kind], d)
	}
}

// repeat is what one repeat of a workload yields.
type repeat struct {
	sim      map[string]float64 // sim-clock metrics, bit-identical per seed
	setupS   float64            // at reference speed when calibrated
	hostS    float64            // timed section only, calibration excluded, as measured
	rates    []float64          // per slice: ops per host second, at reference speed when calibrated
	mallocs  uint64
	bytes    uint64
	attempt  int
	failed   int
	refused  int
	samples  int
	tailQ    float64
	firstErr string
	layer    map[string]float64 // traced pass only
}

// runRepeat builds the workload's scenario, runs set-up and warm-up to
// the window edge on the set-up clock, then times the measured window.
// With a calibrator the window is timed in calSlices slices, each scaled
// to reference speed (see calibrator); without one it is a single slice
// at whatever speed the host runs.
func runRepeat(w *workload, seed int64, scale float64, tr *tracing, cal *calibrator) repeat {
	runtime.GC() // same heap state for every repeat; not part of either clock
	t0 := time.Now()
	s := newScn(w, seed, scale, tr)
	w.build(s)
	s.env.RunUntil(s.warm)
	var base map[string]float64
	if tr.on() {
		base = counterSnapshot(tr)
		if s.atWarm != nil {
			s.atWarm()
		}
	}
	setup := time.Since(t0)

	slices, speed := 1, []float64{}
	if cal != nil {
		slices = calSlices
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var host time.Duration
	var rates []float64
	for k := 1; k <= slices; k++ {
		factor := 1.0
		if cal != nil {
			factor = cal.sample() / calRefSeconds
			speed = append(speed, factor)
		}
		before := s.attempted
		t1 := time.Now()
		if k < slices {
			s.env.RunUntil(s.warm + (s.end-s.warm)*sim.Time(k)/sim.Time(slices))
		} else {
			s.env.Run() // the last slice runs until the last client is done
		}
		el := time.Since(t1)
		host += el
		if n := s.attempted - before; n > 0 {
			rates = append(rates, float64(n)/el.Seconds()*factor)
		}
	}
	runtime.ReadMemStats(&m1)
	setupS := setup.Seconds()
	if cal != nil {
		setupS /= median(speed)
	}

	r := repeat{
		setupS: setupS, hostS: host.Seconds(), rates: rates,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		attempt: s.attempted, failed: s.failed, refused: s.refused,
		samples: len(s.lat), firstErr: s.firstErr,
	}
	if s.running != 0 {
		r.failed += s.running
		r.firstErr = fmt.Sprintf("%d clients never finished (event queue drained at %d ns)", s.running, s.env.Now())
	}
	window := float64(s.end-s.warm) / 1e9
	ok := s.attempted - s.failed - s.refused
	r.tailQ = tailPercentile(len(s.lat))
	if r.tailQ > 99 {
		r.tailQ = 99
	}
	r.sim = map[string]float64{
		"sim_goodput_ops_s": float64(ok) / window,
		"sim_goodput_mb_s":  float64(s.okBytes) / 1e6 / window,
		"sim_lat_p50_ns":    percentile(s.lat, 50),
		"sim_lat_p99_ns":    percentile(s.lat, r.tailQ),
		"ok_share":          share(float64(ok), float64(s.attempted)),
	}
	if tr.on() {
		r.layer = workloadLayerMetrics(s, base)
	}
	s.env.Shutdown()
	return r
}

func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
