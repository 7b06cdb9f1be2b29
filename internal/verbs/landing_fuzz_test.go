package verbs

import (
	"bytes"
	"fmt"
	"testing"

	"hatrpc/internal/sim"
)

// FuzzLandingByReference runs random sequences of verbs operations over
// three regions — R0 and R2 on node a, R1 on node b — and after every
// step compares each region, byte for byte, with a model that copies a
// payload at landing: posts of WRITE, WRITE_WITH_IMM, SEND and READ,
// RECVs, host claims of either end, loans and their end, View, Bytes,
// Deregister, and the simulation run on by a step or to the end. The
// model learns when each packet lands from a hook on the packets of both
// devices, so the two agree on every interleaving of host writes with
// landings. A byte the contract leaves undefined — a lent range after its
// loan ended, a buffer posted to receive — is not compared. Every lent
// window must keep the bytes it was lent with, and once every loan has
// ended and every region been read whole, no hold may be left. The
// regions start with no memory and grow as the script touches them: after
// every step no byte a region holds at or past its high-water mark may be
// other than zero, and every hold must read the region's current memory.
func FuzzLandingByReference(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 3, 5, 20, 5, 0, 2, 30, 7, 12, 6, 1, 0, 8, 8, 1, 4, 8, 7, 1},
		{4, 1, 0, 0, 40, 2, 0, 0, 40, 5, 0, 0, 10, 9, 12, 6, 1, 0, 30, 5, 1, 0, 20, 3, 12},
		{3, 0, 0, 10, 4, 16, 11, 40, 5, 1, 12, 8, 7, 12, 8, 1, 0, 30, 9, 1, 10, 1},
		{1, 1, 1, 4, 0, 32, 4, 0, 2, 0, 1, 12, 6, 2, 0, 32, 5, 0, 0, 64, 1, 10, 0, 12},
		{0, 0, 0, 0, 60, 11, 3, 6, 1, 2, 20, 5, 1, 0, 64, 2, 12, 7, 1, 10, 1, 9, 1},
		// R0 grows under a loan and a SEND in flight, both of its first bytes.
		{5, 0, 0, 7, 97, 6, 0, 2, 3, 0, 2, 0, 0, 5, 0, 5, 0, 40, 9, 98, 4, 1, 0, 10, 0, 12, 0, 0, 0, 0, 7, 0, 0, 0, 0, 8, 1, 0, 5, 0},
		// A WRITE lands past R0's memory, which a View across it grows.
		{5, 1, 0, 7, 99, 0, 1, 0, 7, 50, 12, 0, 0, 0, 0, 8, 0, 48, 9, 0, 5, 1, 0, 7, 100, 9, 0, 0, 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 400 {
			prog = prog[:400]
		}
		newLandingHarness(t).run(prog)
	})
}

const fuzzRegion = 64

// landingHarness drives the regions and keeps the model.
type landingHarness struct {
	t       *testing.T
	env     *sim.Env
	a, b    side
	regions [3]*MR
	model   [3]modelRegion
	nextID  uint64
	ops     map[uint64]*modelOp // posted, not yet landed
	recvq   [2][]RecvWR         // per receiving side (0 = a, 1 = b), oldest first
	pending [2][]*modelOp       // arrived two-sided ops waiting for a RECV
	loans   [3]*modelLoan
}

// modelRegion is a region as a model that copies at landing sees it.
type modelRegion struct {
	b       [fuzzRegion]byte
	defined [fuzzRegion]bool
	lent    [fuzzRegion]bool // lent and not written since
}

type modelOp struct {
	kind     Opcode
	dst      int // region
	dstOff   int
	n        int
	payload  []byte
	defined  []bool
	src      int // READ: the remote region, read when it is served
	srcOff   int
	receiver int // two-sided: the receiving side
}

type modelLoan struct {
	w    []byte
	want []byte
	ok   []bool
}

func newLandingHarness(t *testing.T) *landingHarness {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	h := &landingHarness{t: t, env: env, a: a, b: b, ops: map[uint64]*modelOp{}}
	h.regions = [3]*MR{a.pd.RegisterMRNoCost(fuzzRegion), b.pd.RegisterMRNoCost(fuzzRegion), a.pd.RegisterMRNoCost(fuzzRegion)}
	for r, mr := range h.regions {
		if mr.Allocated() != 0 {
			t.Fatalf("R%d holds %d bytes before anything touched it", r, mr.Allocated())
		}
	}
	for i := range h.model {
		for j := range h.model[i].defined {
			h.model[i].defined[j] = true
		}
	}
	for _, d := range []*Device{a.dev, b.dev} {
		for i := 0; i < 512; i++ {
			pkt := &packet{home: d}
			pkt.arriveFn, pkt.cqeFn = pkt.arrive, pkt.cqe
			pkt.landFn = func() {
				id, kind, resp := pkt.wrid, pkt.kind, pkt.isReadResp
				pkt.land()
				h.landed(id, kind, resp)
			}
			d.freePkts = append(d.freePkts, pkt)
		}
	}
	return h
}

// side of a region: 0 for node a's, 1 for node b's.
func (h *landingHarness) side(r int) int { return r % 2 }

func (h *landingHarness) qp(s int) *QP {
	if s == 0 {
		return h.a.qp
	}
	return h.b.qp
}

// peer picks the region on the other node: R1 for a's, R0 or R2 for b's.
func (h *landingHarness) peer(r int, pick byte) int {
	if h.side(r) == 0 {
		return 1
	}
	return int(pick%2) * 2
}

// landed is the hook every packet of both devices calls once the NIC has
// handled its arrival.
func (h *landingHarness) landed(id uint64, kind Opcode, resp bool) {
	op := h.ops[id]
	if op == nil {
		h.t.Fatalf("landing of unknown WR %d", id)
	}
	switch {
	case kind == OpRead && !resp: // served: the response reads the region now
		m := &h.model[op.src]
		op.payload = append([]byte(nil), m.b[op.srcOff:op.srcOff+op.n]...)
		op.defined = append([]bool(nil), m.defined[op.srcOff:op.srcOff+op.n]...)
	case kind == OpSend:
		delete(h.ops, id)
		if q := h.recvq[op.receiver]; len(q) > 0 {
			h.recvq[op.receiver] = q[1:]
			h.deliver(op, q[0])
			return
		}
		h.pending[op.receiver] = append(h.pending[op.receiver], op)
	case kind == OpWriteImm:
		delete(h.ops, id)
		h.place(op.dst, op.dstOff, op.payload, op.defined)
		if q := h.recvq[op.receiver]; len(q) > 0 {
			h.recvq[op.receiver] = q[1:]
			return
		}
		h.pending[op.receiver] = append(h.pending[op.receiver], &modelOp{kind: OpWriteImm})
	default: // a WRITE or a READ response
		delete(h.ops, id)
		h.place(op.dst, op.dstOff, op.payload, op.defined)
	}
}

// deliver lands a SEND in the RECV it consumed.
func (h *landingHarness) deliver(op *modelOp, wr RecvWR) {
	n := min(op.n, wr.SGE.Len)
	h.place(h.index(wr.SGE.MR), wr.SGE.Off, op.payload[:n], op.defined[:n])
}

func (h *landingHarness) index(mr *MR) int {
	for i, r := range h.regions {
		if r == mr {
			return i
		}
	}
	h.t.Fatal("unknown region")
	return -1
}

// place is the model's landing: a copy.
func (h *landingHarness) place(r, off int, b []byte, ok []bool) {
	m := &h.model[r]
	copy(m.b[off:], b)
	copy(m.defined[off:], ok)
	for i := range b {
		m.lent[off+i] = false
	}
}

// post posts one WR from a poster process and runs the simulation until
// PostSend has returned, taking the model's post-time copy of the payload
// there.
func (h *landingHarness) post(s int, wr *SendWR, op *modelOp) {
	h.nextID++
	wr.WRID, wr.Unsignaled = h.nextID, true
	h.ops[wr.WRID] = op
	done := false
	h.env.Spawn("poster", func(p *sim.Proc) {
		h.qp(s).PostSend(p, wr)
		if wr.Op != OpRead {
			m := &h.model[h.index(wr.SGE.MR)]
			op.payload = append([]byte(nil), m.b[wr.SGE.Off:wr.SGE.Off+wr.SGE.Len]...)
			op.defined = append([]bool(nil), m.defined[wr.SGE.Off:wr.SGE.Off+wr.SGE.Len]...)
		}
		done = true
	})
	for !done {
		h.env.RunUntil(h.env.Now() + 10)
	}
}

// span reads an offset and a length of at least one byte from two
// program bytes.
func span(x, y byte) (off, n int) {
	off = int(x) % fuzzRegion
	return off, 1 + int(y)%(fuzzRegion-off)
}

func (h *landingHarness) run(prog []byte) {
	arg := func(i int) byte {
		if i < len(prog) {
			return prog[i]
		}
		return 0
	}
	for pc := 0; pc < len(prog); {
		code, x, y, z, w := prog[pc], arg(pc+1), arg(pc+2), arg(pc+3), arg(pc+4)
		pc += 5
		r := int(x) % 3
		switch code % 13 {
		case 0, 1: // WRITE, WRITE_WITH_IMM from r into its peer region
			op := OpWrite
			if code%13 == 1 {
				op = OpWriteImm
			}
			d := h.peer(r, w)
			srcOff, n := span(y, z)
			dstOff := int(w) % (fuzzRegion - n + 1)
			h.post(h.side(r), &SendWR{Op: op, SGE: SGE{MR: h.regions[r], Off: srcOff, Len: n}, Remote: h.regions[d].RKey(), RemoteOff: dstOff},
				&modelOp{kind: op, dst: d, dstOff: dstOff, n: n, receiver: 1 - h.side(r)})
		case 2: // SEND from r
			off, n := span(y, z)
			h.post(h.side(r), &SendWR{Op: OpSend, SGE: SGE{MR: h.regions[r], Off: off, Len: n}},
				&modelOp{kind: OpSend, n: n, receiver: 1 - h.side(r)})
		case 3: // READ into r from its peer region
			src := h.peer(r, w)
			off, n := span(y, z)
			srcOff := int(w) % (fuzzRegion - n + 1)
			h.post(h.side(r), &SendWR{Op: OpRead, SGE: SGE{MR: h.regions[r], Off: off, Len: n}, Remote: h.regions[src].RKey(), RemoteOff: srcOff},
				&modelOp{kind: OpRead, dst: r, dstOff: off, n: n, src: src, srcOff: srcOff})
		case 4: // a RECV into r
			off, n := span(y, z)
			if z%4 == 0 {
				n = 0
			}
			s := h.side(r)
			wr := RecvWR{WRID: 1, SGE: SGE{MR: h.regions[r], Off: off, Len: n}}
			if q := h.pending[s]; len(q) > 0 {
				h.pending[s] = q[1:]
				if q[0].kind == OpSend {
					h.deliver(q[0], wr)
				}
			} else {
				h.recvq[s] = append(h.recvq[s], wr)
				for i := off; i < off+n; i++ {
					h.model[r].defined[i] = false
				}
			}
			h.qp(s).PostRecv(wr)
		case 5: // the host writes r
			off, n := span(y, z)
			fill := bytes.Repeat([]byte{w}, n)
			copy(h.regions[r].Claim(off, n), fill)
			h.place(r, off, fill, trues(n))
		case 6: // Lend
			off, n := span(y, z)
			h.unlend(r, false)
			w := h.regions[r].Lend(off, n)
			m := &h.model[r]
			for i := off; i < off+n; i++ {
				m.lent[i] = true
			}
			h.loans[r] = &modelLoan{w: w, want: append([]byte(nil), m.b[off:off+n]...), ok: append([]bool(nil), m.defined[off:off+n]...)}
		case 7: // EndLend
			h.regions[r].EndLend()
			h.unlend(r, true)
		case 8: // View
			off, n := span(y, z)
			h.compare(fmt.Sprintf("View(%d, %d) of R%d", off, n, r), h.regions[r].View(off, n), h.model[r].b[off:off+n], h.model[r].defined[off:off+n])
		case 9: // Bytes
			h.compare(fmt.Sprintf("Bytes of R%d", r), h.regions[r].Bytes(), h.model[r].b[:], h.model[r].defined[:])
		case 10:
			h.regions[r].Deregister()
		case 11: // run the simulation on a little
			h.env.RunUntil(h.env.Now() + sim.Time(y)*37)
		case 12:
			h.env.Run()
		}
		h.check()
	}
	h.env.Run()
	h.check()
	for s := range h.pending { // RECVs of no bytes let the waiting SENDs go
		for len(h.pending[s]) > 0 {
			h.pending[s] = h.pending[s][1:]
			h.qp(s).PostRecv(RecvWR{SGE: SGE{MR: h.regions[s]}})
		}
	}
	h.env.Run()
	for r, mr := range h.regions {
		mr.EndLend()
		h.unlend(r, true)
	}
	for r, mr := range h.regions {
		h.compare(fmt.Sprintf("Bytes of R%d at the end", r), mr.Bytes(), h.model[r].b[:], h.model[r].defined[:])
	}
	for r, mr := range h.regions {
		if mr.held != nil || mr.landed != nil {
			h.t.Fatalf("R%d keeps holds after every loan ended and every region was read whole", r)
		}
	}
}

// unlend forgets r's loan; an ended one leaves the bytes it lent that
// nothing wrote since undefined.
func (h *landingHarness) unlend(r int, ended bool) {
	m := &h.model[r]
	for i := range m.lent {
		if m.lent[i] && ended {
			m.defined[i] = false
		}
		m.lent[i] = false
	}
	h.loans[r] = nil
}

// check compares every region, read without copying anything in, and
// every lent window with the model, and checks what a growth relies on:
// the region's memory is zero at and past its high-water mark, and every
// hold on it reads that memory, not an array it grew or moved away from.
func (h *landingHarness) check() {
	h.t.Helper()
	for r, mr := range h.regions {
		if len(mr.buf) > mr.size {
			h.t.Fatalf("R%d holds %d bytes, more than its %d", r, len(mr.buf), mr.size)
		}
		for i := mr.hi; i < len(mr.buf); i++ {
			if mr.buf[i] != 0 {
				h.t.Fatalf("R%d: byte %d, at or past the high-water mark %d, is %d", r, i, mr.hi, mr.buf[i])
			}
		}
		for x := mr.held; x != nil; x = x.next {
			if len(x.b) > 0 && &x.b[0] != &mr.buf[x.srcOff] {
				h.t.Fatalf("R%d: a hold of [%d, %d) reads an array the region left", r, x.srcOff, x.srcOff+len(x.b))
			}
		}
		h.compare(fmt.Sprintf("R%d", r), peek(mr), h.model[r].b[:], h.model[r].defined[:])
		if l := h.loans[r]; l != nil {
			h.compare(fmt.Sprintf("the window lent by R%d", r), l.w, l.want, l.ok)
		}
	}
}

func (h *landingHarness) compare(what string, got, want []byte, ok []bool) {
	h.t.Helper()
	if len(got) != len(want) {
		h.t.Fatalf("%s: %d bytes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if ok[i] && got[i] != want[i] {
			h.t.Fatalf("%s: byte %d is %d, want %d\n got %v\nwant %v", what, i, got[i], want[i], got, want)
		}
	}
}

// peek reads a region as its host would, landed ranges included, without
// copying them in.
func peek(mr *MR) []byte {
	out := make([]byte, mr.size)
	copy(out, mr.buf)
	for h := mr.landed; h != nil; h = h.dnext {
		copy(out[h.dstOff:], h.b)
	}
	return out
}

func trues(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}
