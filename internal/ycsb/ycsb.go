// Package ycsb implements the extended YCSB benchmark of §5.4: the
// standard zipfian request distribution over a preloaded record space,
// workloads A and B with half the GET/PUT proportion moved to the added
// MultiGET/MultiPUT operations, and a runner that drives HatKV and the
// four emulated comparator systems (AR-gRPC, HERD, Pilaf, RFP) over the
// simulated cluster.
//
// Determinism: nothing in this package owns randomness. Every sampling
// entry point (ChooseOp, Zipfian.Next, NextScrambled) takes an explicit
// *rand.Rand threaded from the simulation environment (sim.Env.Rand) or
// a kernel-minted source (sim.NewRand) — the simdet analyzer forbids
// the global math/rand state here.
package ycsb

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Op is a YCSB operation type.
type Op int

// Operation types (the paper's extended set).
const (
	OpGet Op = iota
	OpPut
	OpMultiGet
	OpMultiPut
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "Get"
	case OpPut:
		return "Put"
	case OpMultiGet:
		return "Multi-Get"
	case OpMultiPut:
		return "Multi-Put"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// AllOps lists the operation types in reporting order.
var AllOps = []Op{OpGet, OpPut, OpMultiGet, OpMultiPut}

// Workload is a YCSB operation mix (§5.4: key 24 B, field 100 B ×10,
// batch 10).
type Workload struct {
	Name    string
	Mix     map[Op]float64 // proportions, sum to 1
	Records int
	Batch   int // MultiGET/MultiPUT batch size
	// ValueLen = field count × field length = 10 × 100.
	ValueLen int
	Theta    float64 // zipfian skew
}

// WorkloadA is update-heavy A with the GET/PUT halves split into Multi
// ops: 25/25/25/25.
func WorkloadA(records int) Workload {
	return Workload{
		Name:    "A",
		Mix:     map[Op]float64{OpGet: 0.25, OpPut: 0.25, OpMultiGet: 0.25, OpMultiPut: 0.25},
		Records: records, Batch: 10, ValueLen: 1000, Theta: 0.99,
	}
}

// WorkloadB is read-heavy B split likewise: 47.5/2.5/47.5/2.5.
func WorkloadB(records int) Workload {
	return Workload{
		Name:    "B",
		Mix:     map[Op]float64{OpGet: 0.475, OpPut: 0.025, OpMultiGet: 0.475, OpMultiPut: 0.025},
		Records: records, Batch: 10, ValueLen: 1000, Theta: 0.99,
	}
}

// Key renders record i (≥ 0) as the fixed-24-byte YCSB key: "user" and
// the index zero-padded to twenty digits.
func Key(i int) string {
	b := [24]byte{'u', 's', 'e', 'r'}
	for j, v := len(b)-1, uint64(i); j >= 4; j, v = j-1, v/10 {
		b[j] = byte('0' + v%10)
	}
	return string(b[:])
}

// ChooseOp samples an operation from the mix.
func (w Workload) ChooseOp(rng *rand.Rand) Op {
	u := rng.Float64()
	acc := 0.0
	for _, op := range AllOps {
		acc += w.Mix[op]
		if u < acc {
			return op
		}
	}
	return OpGet
}

// ---------------------------------------------------------------------------
// Zipfian generator (the YCSB algorithm, with FNV scrambling so hot keys
// spread over the key space).

// Zipfian draws zipf-distributed items in [0, n).
type Zipfian struct {
	n     int64
	alpha float64
	zetan float64
	zeta2 float64
	eta   float64
	rank1 float64 // 1 + 0.5^θ: a scaled draw below it is rank 1
}

// NewZipfian precomputes the zeta constants for n items.
func NewZipfian(n int64, theta float64) *Zipfian {
	z := &Zipfian{n: n, rank1: 1 + math.Pow(0.5, theta)}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next rank (0 = hottest before scrambling).
func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// NextScrambled draws a key index spread via FNV-64.
func (z *Zipfian) NextScrambled(rng *rand.Rand) int64 {
	h := fnv.New64a()
	var b [8]byte
	v := uint64(z.Next(rng))
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64() % uint64(z.n))
}
