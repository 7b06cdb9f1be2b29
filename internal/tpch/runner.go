package tpch

import (
	"fmt"

	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	tpchgen "hatrpc/internal/tpch/gen"
	"hatrpc/internal/trdma"
)

// Stack names one line of Figure 17.
type Stack int

// The three compared RPC stacks (§5.5).
const (
	StackIPoIB Stack = iota
	StackHatService
	StackHatFunction
)

func (s Stack) String() string {
	switch s {
	case StackIPoIB:
		return "Thrift/IPoIB"
	case StackHatService:
		return "HatRPC-Service"
	case StackHatFunction:
		return "HatRPC-Function"
	}
	return fmt.Sprintf("Stack(%d)", int(s))
}

// AllStacks lists the comparison set in reporting order.
var AllStacks = []Stack{StackIPoIB, StackHatService, StackHatFunction}

// RowScanNs is the per-row CPU charge for worker table scans.
const RowScanNs = 14.0

// workerHandler serves fragments over one partition.
type workerHandler struct {
	node *simnet.Node
	db   *DB
}

var _ tpchgen.TPCHWorkerHandler = (*workerHandler)(nil)

func (w *workerHandler) run(p *sim.Proc, query int32) ([]byte, error) {
	if query < 1 || int(query) > len(Queries) {
		return nil, fmt.Errorf("tpch: bad query number %d", query)
	}
	partial, rows := Queries[query-1].Fragment(w.db)
	w.node.CPU.Compute(p, sim.Duration(float64(rows)*RowScanNs))
	return EncodePartial(partial), nil
}

// RunSmall implements the latency-hinted fragment RPC.
func (w *workerHandler) RunSmall(p *sim.Proc, query int32) ([]byte, error) {
	return w.run(p, query)
}

// RunLarge implements the throughput-hinted fragment RPC.
func (w *workerHandler) RunLarge(p *sim.Proc, query int32) ([]byte, error) {
	return w.run(p, query)
}

// Ping implements the TCP control probe.
func (w *workerHandler) Ping(p *sim.Proc) (string, error) { return "ok", nil }

// serviceOnlyWorkerHints strips function hints for the HatRPC-Service
// variant: one balanced service-level profile (no concurrency, payload,
// NUMA or transport hints).
func serviceOnlyWorkerHints() *trdma.ServiceHints {
	return tpchgen.TPCHWorkerHints.ServiceOnly(
		hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "throughput"}, nil, nil))
}

// QueryResult is one (query, stack) execution.
type QueryResult struct {
	Query  int
	Stack  Stack
	TimeNs int64
	Rows   int // result rows
}

// BenchConfig parameterizes the Figure 17 run.
type BenchConfig struct {
	SF      float64 // scale factor (paper: 1000; simulated default: 0.02)
	Workers int     // worker nodes (paper: 9 + coordinator)
	Stacks  []Stack
	Queries []int // 1-22; nil = all
	Seed    int64
}

// DefaultBenchConfig returns the simulated Fig. 17 setup.
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{SF: 0.02, Workers: 9, Stacks: AllStacks, Seed: 2021}
}

// RunBench executes the configured queries on each stack, returning
// per-query times; the result rows (identical on all stacks) are dropped.
func RunBench(cfg BenchConfig) []QueryResult {
	if cfg.Workers < 1 {
		cfg.Workers = 9
	}
	qs := cfg.Queries
	if len(qs) == 0 {
		for i := 1; i <= 22; i++ {
			qs = append(qs, i)
		}
	}
	dbs := Generate(cfg.SF, cfg.Workers, sim.NewRand(cfg.Seed))
	var out []QueryResult
	for _, stack := range cfg.Stacks {
		res, _ := ExecuteQueries(cfg, stack, qs, dbs)
		out = append(out, res...)
	}
	return out
}

// ExecuteQueries runs the given queries on one stack and returns both
// timings and result rows (for correctness checks).
func ExecuteQueries(cfg BenchConfig, stack Stack, qs []int, dbs []*DB) ([]QueryResult, map[int][][]string) {
	env := sim.NewEnv(cfg.Seed)
	ncfg := simnet.DefaultConfig()
	ncfg.Nodes = cfg.Workers + 1
	cl := simnet.NewCluster(env, ncfg)
	coordNode := cl.Node(0)
	// The coordinator holds a dimensions-only replica for merge lookups.
	coordDB := dbs[0]

	var sh *trdma.ServiceHints
	switch stack {
	case StackHatService:
		sh = serviceOnlyWorkerHints()
	case StackHatFunction:
		sh = tpchgen.TPCHWorkerHints
	}

	// Workers.
	for w := 0; w < cfg.Workers; w++ {
		node := cl.Node(w + 1)
		h := &workerHandler{node: node, db: dbs[w]}
		proc := tpchgen.NewTPCHWorkerProcessor(h)
		if stack == StackIPoIB {
			trdma.ServeTCP(node, "TPCHWorker", proc)
		} else {
			eng := engine.New(node, engine.DefaultConfig())
			trdma.NewServer(eng, sh, proc)
		}
	}

	results := make([]QueryResult, 0, len(qs))
	rowsByQuery := make(map[int][][]string, len(qs))
	env.Spawn("coordinator", func(p *sim.Proc) {
		var coordEng *engine.Engine
		if stack != StackIPoIB {
			coordEng = engine.New(coordNode, engine.DefaultConfig())
		}
		clients := make([]*tpchgen.TPCHWorkerClient, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			var tr trdma.Transport
			if stack == StackIPoIB {
				tr = trdma.DialTCP(p, coordNode, cl.Node(w+1), "TPCHWorker")
			} else {
				tr = trdma.Dial(p, coordEng, cl.Node(w+1), sh, nil)
			}
			clients[w] = tpchgen.NewTPCHWorkerClient(tr)
		}
		for _, qn := range qs {
			q := Queries[qn-1]
			start := p.Now()
			partials := make([]any, cfg.Workers)
			done := sim.NewSignal(env)
			for w := 0; w < cfg.Workers; w++ {
				w := w
				env.Spawn(fmt.Sprintf("q%d-w%d", qn, w), func(wp *sim.Proc) {
					var raw []byte
					var err error
					if q.Large() {
						raw, err = clients[w].RunLarge(wp, int32(qn))
					} else {
						raw, err = clients[w].RunSmall(wp, int32(qn))
					}
					if err != nil {
						panic(fmt.Sprintf("tpch: q%d worker %d: %v", qn, w, err))
					}
					partials[w] = DecodePartial(raw)
					done.Fire()
				})
			}
			for w := 0; w < cfg.Workers; w++ {
				done.Wait(p)
			}
			rows := q.Merge(coordDB, partials)
			// Coordinator merge cost: proportional to shipped volume.
			var vol int
			for _, pa := range partials {
				if pa != nil {
					vol += 64 // bookkeeping floor per partial
				}
			}
			coordNode.CPU.Compute(p, sim.Duration(float64(vol)*4))
			results = append(results, QueryResult{
				Query: qn, Stack: stack,
				TimeNs: int64(p.Now() - start),
				Rows:   len(rows),
			})
			rowsByQuery[qn] = rows
		}
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	return results, rowsByQuery
}
