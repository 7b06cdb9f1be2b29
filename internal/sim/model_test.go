package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The queue model: a seeded random mix of every way the kernel queues,
// stops and fires events, checked event by event against a naive reference
// — a slice of every queued event kept sorted on (at, seq). Each firing
// (a callback running, a process resuming) must be the reference's first
// entry, and the kernel's sequence counter must match the one the
// reference keeps: one per scheduling, including a Sleep or Yield that
// goes on inline; two for an inline Compute; none for a Stop; one per CPU
// completion re-time. Delays, compute work and RunUntil limits straddle
// the horizon that splits the kernel's two heaps, so events are queued,
// stopped and re-timed on both sides of it and across it.

// refEntry is one queued event as the reference sees it.
type refEntry struct {
	at  Time
	seq uint64
	who string
	far bool // due more than the horizon after the clock when queued
}

type queueModel struct {
	t     *testing.T
	env   *Env
	cpu   *CPU
	rng   *rand.Rand
	ref   []refEntry // every queued event, sorted on (at, seq)
	seq   uint64     // the last sequence number the reference accounts for
	limit Time       // the running RunUntil's bound
	ops   int
	// budget is the number of operations to draw; stopAt, if positive,
	// the one at which a callback calls Env.Stop.
	budget, stopAt int
	stopped        bool
	afterStop      bool    // the second RunUntil after Stop is running
	timers         []Timer // AtTimer handles, live, fired and stopped alike
	tasks          []*Proc // the CPU's tasks in admission order
	adding         *Proc   // a parked Compute's task, not yet in tasks
	cpuSeq         uint64  // the completion event's seq in ref, 0 if none
	cpuEv          *event  // the completion's event at the last sync
	synced         Time    // the clock at the last sync
	names          map[*Proc]string
	spawned        int
	fired          int
	stats          modelStats
}

// modelStats counts the horizon's cases a schedule reached.
type modelStats struct {
	farStops   int    // live far timers stopped
	retimes    [2]int // CPU completions re-timed across the horizon: far but in the near heap, near but in the far one
	turnBacks  int    // RunUntil limits behind the clock
	farFirings int    // events fired from the far heap's top
}

// offset draws a delay that often ties: now, one of a few small steps, or
// one around the horizon.
func (m *queueModel) offset() Time {
	return []Time{0, 0, 0, 1, 1, 2, 3, 5, 8, 13, 40, 200, horizon - 1, horizon, horizon + 1, 3 * horizon}[m.rng.Intn(16)]
}

func (m *queueModel) add(at Time, seq uint64, who string) {
	i, _ := slices.BinarySearchFunc(m.ref, refEntry{at: at, seq: seq}, func(a, b refEntry) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(int64(a.seq) - int64(b.seq))
	})
	m.ref = slices.Insert(m.ref, i, refEntry{at, seq, who, at-m.env.now > horizon})
}

func (m *queueModel) drop(seq uint64) {
	if i := slices.IndexFunc(m.ref, func(r refEntry) bool { return r.seq == seq }); i >= 0 {
		m.ref = slices.Delete(m.ref, i, i+1)
	}
}

// queued is the number of events the kernel holds.
func (m *queueModel) queued() int { return len(m.env.events) + len(m.env.later) + m.env.ready.Len() }

// sync brings the reference up to date with the CPU's last call: the tasks
// its advance woke (at now, in admission order, one seq each) and its
// completion callback (re-timed, newly armed or stopped).
func (m *queueModel) sync() {
	m.t.Helper()
	c, s := m.cpu, m.seq
	var live []*Proc
	for _, p := range m.tasks {
		if slices.ContainsFunc(c.tasks, func(t cpuTask) bool { return t.proc == p }) {
			live = append(live, p)
		} else {
			s++
			m.add(m.env.now, s, m.names[p])
		}
	}
	if m.adding != nil {
		live = append(live, m.adding)
		m.adding = nil
	}
	m.tasks = live
	if !slices.EqualFunc(live, c.tasks, func(p *Proc, t cpuTask) bool { return p == t.proc }) {
		m.t.Fatalf("CPU holds %d tasks, the reference %d, or in another order", len(c.tasks), len(live))
	}
	if t := c.completion; t.seq != m.cpuSeq {
		queued := slices.ContainsFunc(m.ref, func(r refEntry) bool { return r.seq == m.cpuSeq && r.who == "cpu" })
		m.drop(m.cpuSeq)
		m.cpuSeq = 0
		if t.armed() {
			if s++; t.seq != s {
				m.t.Fatalf("t=%d: completion armed under seq %d, want %d", m.env.now, t.seq, s)
			}
			at := m.env.now // already taken off the queue: it fires now
			if t.live() {
				at = t.ev.at
				// At most one CPU call ran since the last sync, at some
				// time from then to now. A re-timed completion stays in
				// its heap, even when its new time is across the horizon.
				if queued && t.ev == m.cpuEv {
					switch far := m.env.holder(t.ev) == &m.env.later; {
					case !far && at-m.env.now > horizon:
						m.stats.retimes[0]++
					case far && at-m.synced <= horizon:
						m.stats.retimes[1]++
					}
				}
				m.cpuEv = t.ev
			}
			m.add(at, s, "cpu")
			m.cpuSeq = s
		}
	}
	m.seq, m.synced = s, m.env.now
	if m.env.seq != s {
		m.t.Fatalf("t=%d: kernel at seq %d, reference at %d", m.env.now, m.env.seq, s)
	}
}

// fire checks that who, firing now, is the reference's next event.
func (m *queueModel) fire(who string) {
	m.t.Helper()
	if m.afterStop {
		m.t.Fatalf("%s fired in a RunUntil after Stop", who)
	}
	m.sync()
	if !slices.ContainsFunc(m.ref, func(r refEntry) bool { return r.who == who }) {
		m.t.Fatalf("t=%d: %s fired, but it is not queued: stopped, or fired twice", m.env.now, who)
	}
	if r := m.ref[0]; r.who != who || r.at != m.env.now {
		m.t.Fatalf("t=%d: %s fired, want %s at %d (seq %d)", m.env.now, who, r.who, r.at, r.seq)
	}
	if m.ref[0].far {
		m.stats.farFirings++
	}
	m.ref = m.ref[1:]
	m.fired++
}

// callback queues a callback at at, by At or AtTimer.
func (m *queueModel) callback(at Time) {
	m.seq++
	who := fmt.Sprintf("cb%d", m.seq)
	fn := func() {
		m.fire(who)
		m.act()
	}
	if m.rng.Intn(2) == 0 {
		m.env.At(at, fn)
	} else {
		m.timers = append(m.timers, m.env.AtTimer(at, fn))
	}
	m.add(at, m.seq, who)
}

// act performs one random operation that does not block.
func (m *queueModel) act() {
	if m.ops >= m.budget {
		return
	}
	if m.ops++; m.ops == m.stopAt {
		m.env.Stop()
		m.stopped = true
		return
	}
	switch r := m.rng.Intn(10); {
	case r < 4:
		m.callback(m.env.now + m.offset())
	case r < 7 && len(m.timers) > 0: // a live, fired or already stopped handle
		t := m.timers[len(m.timers)-1] // often still in ready
		if m.rng.Intn(2) == 0 {
			t = m.timers[m.rng.Intn(len(m.timers))]
		}
		if t.live() && t.ev.idx >= 0 && m.env.holder(t.ev) == &m.env.later {
			m.stats.farStops++
		}
		t.Stop()
		m.drop(t.seq)
		if len(m.timers) > 64 {
			m.timers = slices.Delete(m.timers, 0, 32)
		}
	case r < 8 && m.cpu.load < m.cpu.cores:
		m.cpu.AddLoad(1)
		m.sync()
	case r < 9 && m.cpu.load > 0:
		m.cpu.RemoveLoad(1)
		m.sync()
	default:
		if m.spawned < 40 {
			m.spawn(2 + m.rng.Intn(20))
		}
	}
}

// spawn starts a process that runs steps operations, or until the budget
// is spent.
func (m *queueModel) spawn(steps int) {
	m.spawned++
	name := fmt.Sprintf("p%d", m.spawned)
	p := m.env.Spawn(name, func(p *Proc) {
		m.fire(name)
		for k := 0; k < steps && m.ops < m.budget && !m.stopped; k++ {
			m.step(p, name)
		}
	})
	m.names[p] = name
	m.seq++
	m.add(m.env.now, m.seq, name)
}

// step is one operation of a process: a Sleep, Yield or Compute, each of
// which may go on inline, or anything act does.
func (m *queueModel) step(p *Proc, name string) {
	m.ops++
	switch r := m.rng.Intn(10); {
	case r < 3:
		d := m.offset()
		m.seq++
		m.add(m.env.now+d, m.seq, name)
		if d == 0 && r == 0 {
			p.Yield()
		} else {
			p.Sleep(Duration(d))
		}
		m.fire(name)
	case r < 6:
		w := []Time{1, 2, 5, 10, 30, 100, horizon / 2, horizon - 20, horizon + 20}[m.rng.Intn(9)]
		at, c := m.env.now+w, m.cpu
		// The reference's reading of Env.continues: alone on a free core,
		// and strictly before everything queued.
		if len(c.tasks) == 0 && c.load < c.cores && !m.stopped && at <= m.limit &&
			(len(m.ref) == 0 || at < m.ref[0].at) {
			m.seq += 2
			m.add(at, m.seq, name)
		} else {
			m.adding = p
		}
		c.Compute(p, Duration(w))
		m.fire(name)
	default:
		m.ops--
		m.act()
	}
}

// runQueueModel runs budget operations drawn from rng against the
// reference, with a callback calling Env.Stop near the end if stop is set.
func runQueueModel(t *testing.T, rng *rand.Rand, budget int, stop bool) *queueModel {
	m := &queueModel{t: t, env: NewEnv(1), rng: rng, budget: budget, names: map[*Proc]string{}}
	m.cpu = NewCPU(m.env, 1+m.rng.Intn(4))
	m.cpu.complete = func() {
		m.fire("cpu")
		m.cpu.onCompletion()
		m.sync()
	}
	if stop {
		m.stopAt = budget - 1 - m.rng.Intn(budget/10)
	}
	for i := 0; i < 4; i++ {
		m.spawn(budget)
	}
	for i := 0; i < 8; i++ {
		m.callback(m.offset())
	}
	for !m.stopped && m.queued() > 0 {
		for n := m.rng.Intn(3); n > 0; n-- { // between runs: into ready, or a Stop
			m.act()
		}
		m.limit = m.env.now + Time(m.rng.Intn(300))
		switch r := m.rng.Intn(40); {
		case r == 0 && m.env.now > 10:
			m.limit = m.env.now - Time(1+m.rng.Intn(10)) // turns the clock back
			m.stats.turnBacks++
		case r < 6:
			m.limit = m.env.now + Time(m.rng.Intn(3*horizon))
		}
		end := m.env.RunUntil(m.limit)
		m.sync()
		if end != m.env.now {
			t.Fatalf("RunUntil returned %d with the clock at %d", end, m.env.now)
		}
		if n := m.queued(); n != len(m.ref) {
			t.Fatalf("t=%d: kernel holds %d events, reference %d", m.env.now, n, len(m.ref))
		}
		if len(m.ref) > 0 && !m.stopped && (end != m.limit || m.ref[0].at <= m.limit) {
			t.Fatalf("RunUntil(%d) ended at %d with %s at %d still queued", m.limit, end, m.ref[0].who, m.ref[0].at)
		}
	}
	if stop && m.stopped {
		now, n := m.env.now, m.queued()
		m.afterStop = true
		if end := m.env.RunUntil(now + 1000); end != now || m.queued() != n {
			t.Fatalf("RunUntil after Stop moved the clock %d → %d or the queue %d → %d", now, end, n, m.queued())
		}
	} else if len(m.ref) > 0 {
		t.Fatalf("kernel drained with %d events left in the reference", len(m.ref))
	}
	m.env.Shutdown()
	return m
}

func TestQueueModel(t *testing.T) {
	var sum modelStats
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			const budget = 12000
			m := runQueueModel(t, NewRand(seed), budget, seed%2 == 0)
			if m.ops < budget && !m.stopped {
				t.Fatalf("queue drained after %d of %d operations", m.ops, budget)
			}
			if m.fired < budget/2 {
				t.Fatalf("only %d events fired over %d operations", m.fired, budget)
			}
			t.Logf("%+v", m.stats)
			sum.farStops += m.stats.farStops
			sum.retimes[0] += m.stats.retimes[0]
			sum.retimes[1] += m.stats.retimes[1]
			sum.turnBacks += m.stats.turnBacks
			sum.farFirings += m.stats.farFirings
		})
	}
	if sum.farStops == 0 || sum.retimes[0] == 0 || sum.retimes[1] == 0 || sum.turnBacks == 0 || sum.farFirings == 0 {
		t.Errorf("the schedules missed a case of the horizon: %+v", sum)
	}
}

// FuzzEventQueue runs the queue model on operations the fuzzer draws: the
// first 64 bytes are the model's first random draws, one a draw, and a
// generator seeded by a hash of them draws the rest. A longer input would
// make each minimizing step quadratic in its length for no new schedules.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, stop bool, data []byte) {
		data = data[:min(len(data), 64)]
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(&byteSource{data, rand.NewSource(int64(h.Sum64()))})
		runQueueModel(t, rng, 500, stop)
	})
}

// byteSource is a rand.Source that plays data back, then rest's draws.
// A played-back byte b reads as Int31() == b, so Intn(n) draws b mod n.
type byteSource struct {
	data []byte
	rest rand.Source
}

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return s.rest.Int63()
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(b) << 32
}

func (s *byteSource) Seed(int64) {}

// ---------------------------------------------------------------------------
// CPU differential: the tracked least remaining work against a fresh scan,
// and the wake order against the scan-based CPU that re-armed its
// completion by a Stop and a new schedule.

// scanCPU is the reference CPU: each reschedule scans its tasks for the
// least remaining work and re-arms the completion by a Stop and a new
// schedule.
type scanCPU struct {
	env        *Env
	cores      int
	load       int
	tasks      []cpuTask
	lastUpdate Time
	rate       float64
	completion Timer
	complete   func()
}

func newScanCPU(env *Env, cores int) *scanCPU {
	c := &scanCPU{env: env, cores: cores, rate: 1}
	c.complete = c.onCompletion
	return c
}

func (c *scanCPU) AddLoad(n int) {
	c.advance()
	c.load += n
	c.reschedule()
}

func (c *scanCPU) RemoveLoad(n int) {
	c.advance()
	c.load -= n
	c.reschedule()
}

func (c *scanCPU) Compute(p *Proc, work Duration) {
	if e := c.env; len(c.tasks) == 0 && c.load < c.cores {
		if at := e.now + Time(work); e.continues(p, at) {
			e.seq += 2
			e.now = at
			c.lastUpdate, c.rate = at, 1
			return
		}
	}
	c.advance()
	c.tasks = append(c.tasks, cpuTask{remaining: float64(work), proc: p})
	c.reschedule()
	p.park()
}

func (c *scanCPU) advance() {
	now := c.env.now
	elapsed := float64(now - c.lastUpdate)
	c.lastUpdate = now
	if elapsed <= 0 || len(c.tasks) == 0 {
		return
	}
	progress := elapsed * c.rate
	live := c.tasks[:0]
	for _, t := range c.tasks {
		t.remaining -= progress
		if t.remaining <= 1e-6 {
			c.env.schedule(now, t.proc, nil)
		} else {
			live = append(live, t)
		}
	}
	clear(c.tasks[len(live):])
	c.tasks = live
}

func (c *scanCPU) reschedule() {
	r := len(c.tasks) + c.load
	if r <= c.cores {
		c.rate = 1
	} else {
		c.rate = float64(c.cores) / float64(r)
	}
	c.completion.Stop()
	c.completion = Timer{}
	if len(c.tasks) == 0 {
		return
	}
	eta := Time(math.Ceil(scanMin(c.tasks) / c.rate))
	if eta < 1 {
		eta = 1
	}
	c.completion = c.env.schedule(c.env.now+eta, nil, c.complete)
}

func (c *scanCPU) onCompletion() {
	c.completion = Timer{}
	c.advance()
	c.reschedule()
}

func scanMin(tasks []cpuTask) float64 {
	m := math.Inf(1)
	for _, t := range tasks {
		if t.remaining < m {
			m = t.remaining
		}
	}
	return m
}

type psCPU interface {
	Compute(p *Proc, work Duration)
	AddLoad(n int)
	RemoveLoad(n int)
}

// cpuScript runs the same seeded mix of Compute, AddLoad and RemoveLoad on
// cpu and returns the wakes as (time, seq, who) lines; check runs after
// every call that returns and at every wake.
func cpuScript(seed int64, cores int, newCPU func(*Env) psCPU, check func()) []string {
	env := NewEnv(seed)
	cpu := newCPU(env)
	rng := NewRand(seed)
	var trace []string
	rec := func(who string) {
		check()
		trace = append(trace, fmt.Sprintf("%d %d %s", env.now, env.seq, who))
	}
	procs := 4 + rng.Intn(2*cores)
	for i := 0; i < procs; i++ {
		name := fmt.Sprint("w", i)
		env.Spawn(name, func(p *Proc) {
			for k := 0; k < 300; k++ {
				cpu.Compute(p, Duration(1+rng.Intn(2000)))
				rec(name)
				if rng.Intn(4) == 0 {
					p.Sleep(Duration(rng.Intn(500)))
				}
			}
		})
	}
	load := 0
	var churn func()
	churn = func() {
		if rng.Intn(2) == 0 || load == 0 {
			n := 1 + rng.Intn(cores)
			cpu.AddLoad(n)
			load += n
		} else {
			n := 1 + rng.Intn(load)
			cpu.RemoveLoad(n)
			load -= n
		}
		rec("load")
		if env.now < 200_000 {
			env.After(Duration(1+rng.Intn(3000)), churn)
		}
	}
	env.After(1, churn)
	env.Run()
	env.Shutdown()
	return trace
}

func TestCPUTrackedMinimumMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cores := 1 + int(NewRand(seed).Intn(28))
		var c *CPU
		got := cpuScript(seed, cores, func(env *Env) psCPU { c = NewCPU(env, cores); return c }, func() {
			if want := scanMin(c.tasks); c.minRem != want {
				t.Fatalf("seed %d, %d cores, t=%d: tracked minimum %v, a scan of %d tasks finds %v",
					seed, cores, c.env.now, c.minRem, len(c.tasks), want)
			}
		})
		want := cpuScript(seed, cores, func(env *Env) psCPU { return newScanCPU(env, cores) }, func() {})
		if len(got) < 1000 {
			t.Fatalf("seed %d: only %d wakes", seed, len(got))
		}
		if i := slices.Compare(got, want); i != 0 {
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("seed %d, %d cores: wake %d is %q, the scan-based CPU's %q", seed, cores, k, got[k], want[k])
				}
			}
			t.Fatalf("seed %d, %d cores: %d wakes, the scan-based CPU %d", seed, cores, len(got), len(want))
		}
	}
}
