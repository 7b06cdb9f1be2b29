package engine

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Connection virtualization: the RDMA-as-a-service multiplexing tier.
//
// A physical QP pins NIC context (QP state, receive ring, CQ slots);
// fanning one physical connection out per client stops scaling around
// 10^4 clients — the NIC's QP cache thrashes and per-conn receive
// rings pin unbounded memory. The tier here keeps a small bounded pool
// of physical Conns per node and multiplexes an arbitrary number of
// virtual connections (VConn) over them. Each VConn owns a session id
// (sid) stamped into the wire header; the server demuxes dedup state
// and tenant admission partitions on it, while the physical transport
// below — seq numbering, credits, retransmit — is untouched.
//
// A VConn borrows a physical conn for exactly the duration of one call,
// preserving the engine's one-outstanding-call-per-Conn invariant: wire
// seq matching stays sufficient for response routing, and the sid rides
// along purely as dedup/partition metadata. sid 0 is reserved for
// "no virtualization" — legacy traffic never carries one.

// sidIndexBits splits the 32-bit session id into tenant (high 12 bits)
// and per-tenant connection index (low 20 bits, ~1M virtual conns per
// tenant — the paper's fan-in target).
const sidIndexBits = 20

// SIDTenant extracts the tenant from a session id.
func SIDTenant(sid uint32) uint32 { return sid >> sidIndexBits }

// makeSID packs tenant and per-tenant index. Index 0 never occurs
// (counters start at 1), so sid 0 — virtualization off — is unambiguous.
func makeSID(tenant, index uint32) uint32 {
	if tenant >= 1<<(32-sidIndexBits) || index >= 1<<sidIndexBits || index == 0 {
		panic(fmt.Sprintf("engine: session id out of range (tenant %d, index %d)", tenant, index))
	}
	return tenant<<sidIndexBits | index
}

// VPoolConfig shapes a virtual-connection pool.
type VPoolConfig struct {
	// Size is the number of physical connections the pool multiplexes
	// over — the knob the fan-in sweep turns.
	Size int
	// TenantCap bounds how many physical conns one tenant may hold
	// concurrently; 0 = uncapped. With a cap, a bursting tenant parks on
	// its own partition while other tenants keep borrowing — the client
	// side of the server's TenantLimit.
	TenantCap int
	// Priority enables two borrow classes: waiters from VConns opened
	// with a low-priority hint queue behind all high-priority waiters.
	// Off, every waiter shares one FIFO — the head-of-line blocking the
	// fanin bench measures.
	Priority bool
}

// HintedPoolSize derives the physical pool size from a resolved hint
// group: a concurrency hint asks for that many physical QPs (clamped to
// max — NIC QP-cache reach); without one the default holds. This is the
// "concurrency" hint's job in the virtualization tier: the application
// states expected concurrent callers once, the transport sizes hardware
// fan-in to match.
func HintedPoolSize(r hints.Resolved, def, max int) int {
	if r.Concurrency <= 0 {
		return def
	}
	if r.Concurrency > max {
		return max
	}
	return r.Concurrency
}

// vwaiter parks one borrower until dispatch hands it a conn.
type vwaiter struct {
	sig    *sim.Signal
	tenant uint32
	conn   *Conn
}

// VPool multiplexes virtual connections over a bounded set of physical
// engine connections. All state mutation happens on simulation procs
// (cooperative scheduling — no locks needed), and every queue drain is
// slice-ordered, so pool behaviour is deterministic for a given seed.
type VPool struct {
	env *sim.Env
	cfg VPoolConfig

	free     []*Conn
	waitHigh []*vwaiter
	waitLow  []*vwaiter
	// tenantUse counts conns currently borrowed per tenant. Indexed
	// only, never iterated — map order cannot leak into the simulation.
	tenantUse map[uint32]int
	nextIndex map[uint32]uint32 // per-tenant sid index counter

	// Borrows counts completed borrow operations; Waits counts the
	// subset that parked (pool empty or tenant at cap); TenantWaits
	// counts parks caused by the tenant cap while free conns existed.
	Borrows     int64
	Waits       int64
	TenantWaits int64
	// Sessions counts VConns opened.
	Sessions int64
}

// DialPool dials cfg.Size physical connections to target and wraps them
// in a virtual-connection pool.
func (e *Engine) DialPool(p *sim.Proc, target *simnet.Node, port string, cfg VPoolConfig) *VPool {
	if cfg.Size <= 0 {
		panic("engine: VPoolConfig.Size must be positive")
	}
	pl := &VPool{
		env:       e.env,
		cfg:       cfg,
		tenantUse: make(map[uint32]int),
		nextIndex: make(map[uint32]uint32),
	}
	for i := 0; i < cfg.Size; i++ {
		pl.free = append(pl.free, e.Dial(p, target, port))
	}
	return pl
}

// Size returns the physical pool size.
func (pl *VPool) Size() int { return pl.cfg.Size }

// Open creates a virtual connection for a tenant. The resolved hint set
// classifies it: a low-priority hint demotes its borrows behind every
// high-priority waiter (when the pool runs priority classes). Open is
// pure bookkeeping — no handshake, no pinned memory — which is exactly
// why the tier scales to 10^6 of them.
func (pl *VPool) Open(tenant uint32, r hints.Resolved) *VConn {
	pl.nextIndex[tenant]++
	pl.Sessions++
	return &VConn{
		pool:   pl,
		sid:    makeSID(tenant, pl.nextIndex[tenant]),
		tenant: tenant,
		low:    r.LowPriority,
	}
}

// borrow claims a physical conn, parking FIFO (within its class) until
// one is free and the tenant is under its cap.
func (pl *VPool) borrow(p *sim.Proc, tenant uint32, low bool) *Conn {
	pl.Borrows++
	capped := pl.cfg.TenantCap > 0 && pl.tenantUse[tenant] >= pl.cfg.TenantCap
	if !capped && len(pl.free) > 0 {
		c := pl.free[0]
		pl.free = pl.free[1:]
		pl.tenantUse[tenant]++
		return c
	}
	pl.Waits++
	if capped && len(pl.free) > 0 {
		pl.TenantWaits++
	}
	w := &vwaiter{sig: sim.NewSignal(pl.env), tenant: tenant}
	if pl.cfg.Priority && !low {
		pl.waitHigh = append(pl.waitHigh, w)
	} else {
		pl.waitLow = append(pl.waitLow, w)
	}
	for w.conn == nil {
		w.sig.Wait(p)
	}
	return w.conn
}

// release returns a borrowed conn and re-runs dispatch: the freed conn
// (and any tenant-cap headroom the decrement opened) goes to the
// longest-waiting eligible borrower, high class first.
func (pl *VPool) release(c *Conn, tenant uint32) {
	pl.tenantUse[tenant]--
	pl.free = append(pl.free, c)
	pl.dispatch()
}

// dispatch matches free conns to eligible waiters. High-priority
// waiters drain strictly before low; within a class, FIFO order with
// tenant-capped waiters skipped in place (they stay queued, keeping
// their position for when their tenant's partition opens).
func (pl *VPool) dispatch() {
	for len(pl.free) > 0 {
		w := pl.takeEligible(&pl.waitHigh)
		if w == nil {
			w = pl.takeEligible(&pl.waitLow)
		}
		if w == nil {
			return
		}
		w.conn = pl.free[0]
		pl.free = pl.free[1:]
		pl.tenantUse[w.tenant]++
		w.sig.Fire()
	}
}

// takeEligible removes and returns the first waiter in q whose tenant
// is under cap, or nil.
func (pl *VPool) takeEligible(q *[]*vwaiter) *vwaiter {
	for i, w := range *q {
		if pl.cfg.TenantCap > 0 && pl.tenantUse[w.tenant] >= pl.cfg.TenantCap {
			continue
		}
		*q = append((*q)[:i], (*q)[i+1:]...)
		return w
	}
	return nil
}

// Waiting returns the current parked-borrower count (both classes).
func (pl *VPool) Waiting() int { return len(pl.waitHigh) + len(pl.waitLow) }

// VConn is a virtual connection: a session id plus a reference to the
// pool it borrows physical transport from. It is a plain struct — no
// proc, no pinned memory, no NIC state — so a node can hold millions.
type VConn struct {
	pool   *VPool
	sid    uint32
	tenant uint32
	low    bool
}

// SID returns the wire session id this virtual connection stamps.
func (vc *VConn) SID() uint32 { return vc.sid }

// Call borrows a physical connection, issues the RPC with this virtual
// connection's session id stamped in the header, and returns the conn
// to the pool. Errors release too: the physical conn's own recovery
// machinery (session reconnect, QP reset) owns transport health — the
// pool just hands out whatever the engine dialed.
func (vc *VConn) Call(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	c := vc.pool.borrow(p, vc.tenant, vc.low)
	opts.SID = vc.sid
	resp, err := c.Call(p, fn, req, opts)
	vc.pool.release(c, vc.tenant)
	return resp, err
}
