package ycsb

import (
	"fmt"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
	"hatrpc/internal/trdma"
)

// SystemKind names one line of Figures 15/16.
type SystemKind int

// The six compared systems (§5.4).
const (
	SysHatService SystemKind = iota
	SysHatFunction
	SysARgRPC
	SysHERD
	SysPilaf
	SysRFP
)

func (s SystemKind) String() string {
	switch s {
	case SysHatService:
		return "HatRPC-Service"
	case SysHatFunction:
		return "HatRPC-Function"
	case SysARgRPC:
		return "AR-gRPC"
	case SysHERD:
		return "HERD"
	case SysPilaf:
		return "Pilaf"
	case SysRFP:
		return "RFP"
	}
	return fmt.Sprintf("SystemKind(%d)", int(s))
}

// AllSystems lists the comparison set in reporting order.
var AllSystems = []SystemKind{SysHatService, SysHatFunction, SysARgRPC, SysHERD, SysPilaf, SysRFP}

// comparatorPolicy returns the per-call protocol choice each emulated
// system makes — the paper's comparator emulation ("we only study their
// communication protocols and emulate them", all six sharing the same
// backend); nil for the HatRPC variants, which plan from hints.
func comparatorPolicy(kind SystemKind) func(fn string, reqSize int) engine.CallOpts {
	switch kind {
	case SysHatService, SysHatFunction:
		return nil
	case SysARgRPC:
		// AR-gRPC: eager below the switch point, Read-RNDV above, on both
		// legs; event-driven (gRPC completion queues).
		return func(fn string, reqSize int) engine.CallOpts {
			return engine.CallOpts{Proto: engine.HybridEagerRead, RespProto: engine.HybridEagerRead}
		}
	case SysHERD:
		// HERD: request WRITE into a polled slot, response via SEND;
		// clients spin on receives.
		return func(fn string, reqSize int) engine.CallOpts {
			return engine.CallOpts{Proto: engine.HERD, RespProto: engine.HERD, Busy: true}
		}
	case SysPilaf:
		// Pilaf: GETs fetched with ~3 READs; PUTs via SEND/RECV.
		return func(fn string, reqSize int) engine.CallOpts {
			switch fn {
			case "Get", "MultiGet":
				return engine.CallOpts{Proto: engine.Pilaf, RespProto: engine.Pilaf, Busy: true}
			default:
				return engine.CallOpts{Proto: engine.EagerSendRecv, RespProto: engine.EagerSendRecv, Busy: true}
			}
		}
	case SysRFP:
		// RFP: WRITE in, READ the response back, spin while fetching.
		return func(fn string, reqSize int) engine.CallOpts {
			return engine.CallOpts{Proto: engine.RFP, RespProto: engine.RFP, Busy: true}
		}
	}
	panic("ycsb: no policy for " + kind.String())
}

// OpStats is the per-operation outcome for one system.
type OpStats struct {
	OpsPerS  float64
	AvgLatNs float64
	P99Ns    float64
}

// Result is one system's Figure 15/16 line.
type Result struct {
	System   SystemKind
	Workload string
	PerOp    map[Op]OpStats
	TotalOps float64 // aggregate ops/s
}

// RunConfig parameterizes a YCSB comparison run.
type RunConfig struct {
	Workload Workload
	Systems  []SystemKind
	Clients  int // total clients (paper: 128 over 4 nodes)
	Nodes    int // cluster size incl. server (paper: 5)
	Seed     int64
}

// DefaultRunConfig mirrors §5.4: 128 clients on 4 nodes + 1 server.
func DefaultRunConfig(w Workload) RunConfig {
	return RunConfig{
		Workload: w, Systems: AllSystems,
		Clients: 128, Nodes: 5, Seed: 99,
	}
}

// Run executes the comparison, one fresh cluster per system.
func Run(cfg RunConfig) []Result {
	out := make([]Result, 0, len(cfg.Systems))
	for _, sys := range cfg.Systems {
		out = append(out, runSystem(cfg, sys))
	}
	return out
}

func runSystem(cfg RunConfig, kind SystemKind) Result {
	env := sim.NewEnv(cfg.Seed)
	ncfg := simnet.DefaultConfig()
	ncfg.Nodes = cfg.Nodes
	cl := simnet.NewCluster(env, ncfg)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	clientEngs := make([]*engine.Engine, cl.Nodes()-1)
	for i := range clientEngs {
		clientEngs[i] = engine.New(cl.Node(i+1), engine.DefaultConfig())
	}

	// Backend: hint-tuned for the HatRPC variants, stock for comparators.
	var sh *trdma.ServiceHints
	switch kind {
	case SysHatService:
		sh = hatkv.ServiceOnlyHints()
	case SysHatFunction:
		sh = hatkv.FunctionHints()
	default:
		sh = hatkv.ServiceOnlyHints() // server config; clients follow comparatorPolicy
	}
	var store *hatkv.Store
	var err error
	if kind == SysHatService || kind == SysHatFunction {
		store, err = hatkv.NewStore(cl.Node(0), sh, nil)
	} else {
		store, err = hatkv.NewStore(cl.Node(0), nil, nil)
	}
	if err != nil {
		panic(err)
	}
	value := make([]byte, cfg.Workload.ValueLen)
	for i := range value {
		value[i] = byte(i)
	}
	if err := store.Preload(cfg.Workload.Records, Key, value); err != nil {
		panic(err)
	}
	hatkv.Serve(srvEng, sh, store)

	zipf := NewZipfian(int64(cfg.Workload.Records), cfg.Workload.Theta)
	w := stats.NewWindow(cfg.Clients)
	samples := make([]stats.Sample, len(AllOps)) // by Op

	for i := 0; i < cfg.Clients; i++ {
		env.Spawn(fmt.Sprintf("ycsb%d", i), func(p *sim.Proc) {
			eng := clientEngs[i%len(clientEngs)]
			c := kvgen.NewHatKVClient(trdma.Dial(p, eng, cl.Node(0), sh,
				&trdma.DialOptions{Policy: comparatorPolicy(kind)}))
			rng := env.Rand()
			for first := true; w.Running(p.Now()); first = false {
				op := cfg.Workload.ChooseOp(rng)
				start := p.Now()
				switch op {
				case OpGet:
					if _, err := c.Get(p, Key(int(zipf.NextScrambled(rng)))); err != nil {
						panic(err)
					}
				case OpPut:
					if err := c.Put(p, Key(int(zipf.NextScrambled(rng))), value); err != nil {
						panic(err)
					}
				case OpMultiGet:
					keys := make([]string, cfg.Workload.Batch)
					for j := range keys {
						keys[j] = Key(int(zipf.NextScrambled(rng)))
					}
					if _, err := c.MultiGet(p, keys); err != nil {
						panic(err)
					}
				case OpMultiPut:
					pairs := make([]*kvgen.KVPair, cfg.Workload.Batch)
					for j := range pairs {
						pairs[j] = &kvgen.KVPair{Key: Key(int(zipf.NextScrambled(rng))), Value: value}
					}
					if err := c.MultiPut(p, pairs); err != nil {
						panic(err)
					}
				}
				if w.Done(first, start, p.Now()) {
					samples[op].Add(float64(p.Now() - start))
				}
			}
		})
	}
	env.Run()
	defer env.Shutdown()

	res := Result{System: kind, Workload: cfg.Workload.Name, PerOp: map[Op]OpStats{}}
	for _, op := range AllOps {
		s := &samples[op]
		res.PerOp[op] = OpStats{
			OpsPerS:  w.Rate(s.N()),
			AvgLatNs: s.Mean(),
			P99Ns:    s.Percentile(99),
		}
		res.TotalOps += res.PerOp[op].OpsPerS
	}
	return res
}
