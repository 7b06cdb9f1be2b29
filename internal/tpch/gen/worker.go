// Code generated by hatc from internal/tpch/worker.hrpc. DO NOT EDIT.

package tpchgen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

type tPCHWorkerRunSmallArgs struct {
	Query int32
}

// Write serializes the struct.
func (x *tPCHWorkerRunSmallArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("tPCHWorkerRunSmallArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("query", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Query); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *tPCHWorkerRunSmallArgs) Read(p thrift.TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch {
		case id == 1 && ft == thrift.I32:
			v1, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Query = v1
		default:
			if err := thrift.Skip(p, ft); err != nil {
				return err
			}
		}
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}

type tPCHWorkerRunSmallResult struct {
	Success    []byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *tPCHWorkerRunSmallResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("tPCHWorkerRunSmallResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRING, 0); err != nil {
			return err
		}
		if err := p.WriteBinary(x.Success); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *tPCHWorkerRunSmallResult) Read(p thrift.TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch {
		case id == 0 && ft == thrift.STRING:
			v2, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v2
			x.SuccessSet = true
		default:
			if err := thrift.Skip(p, ft); err != nil {
				return err
			}
		}
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}

// Outcome reports what the decoded reply carried (trdma.Result).
func (x *tPCHWorkerRunSmallResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type tPCHWorkerRunLargeArgs struct {
	Query int32
}

// Write serializes the struct.
func (x *tPCHWorkerRunLargeArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("tPCHWorkerRunLargeArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("query", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Query); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *tPCHWorkerRunLargeArgs) Read(p thrift.TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch {
		case id == 1 && ft == thrift.I32:
			v3, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Query = v3
		default:
			if err := thrift.Skip(p, ft); err != nil {
				return err
			}
		}
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}

type tPCHWorkerRunLargeResult struct {
	Success    []byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *tPCHWorkerRunLargeResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("tPCHWorkerRunLargeResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRING, 0); err != nil {
			return err
		}
		if err := p.WriteBinary(x.Success); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *tPCHWorkerRunLargeResult) Read(p thrift.TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch {
		case id == 0 && ft == thrift.STRING:
			v4, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v4
			x.SuccessSet = true
		default:
			if err := thrift.Skip(p, ft); err != nil {
				return err
			}
		}
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}

// Outcome reports what the decoded reply carried (trdma.Result).
func (x *tPCHWorkerRunLargeResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type tPCHWorkerPingArgs struct {
}

// Write serializes the struct.
func (x *tPCHWorkerPingArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("tPCHWorkerPingArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *tPCHWorkerPingArgs) Read(p thrift.TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		_ = id
		switch {
		default:
			if err := thrift.Skip(p, ft); err != nil {
				return err
			}
		}
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}

type tPCHWorkerPingResult struct {
	Success    string
	SuccessSet bool
}

// Write serializes the struct.
func (x *tPCHWorkerPingResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("tPCHWorkerPingResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRING, 0); err != nil {
			return err
		}
		if err := p.WriteString(x.Success); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *tPCHWorkerPingResult) Read(p thrift.TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch {
		case id == 0 && ft == thrift.STRING:
			v5, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Success = v5
			x.SuccessSet = true
		default:
			if err := thrift.Skip(p, ft); err != nil {
				return err
			}
		}
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}

// Outcome reports what the decoded reply carried (trdma.Result).
func (x *tPCHWorkerPingResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

// TPCHWorkerHandler is the application-side interface for service TPCHWorker.
type TPCHWorkerHandler interface {
	RunSmall(p *sim.Proc, query_ int32) ([]byte, error)
	RunLarge(p *sim.Proc, query_ int32) ([]byte, error)
	Ping(p *sim.Proc) (string, error)
}

// TPCHWorkerClient is the generated typed client for service TPCHWorker. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type TPCHWorkerClient struct {
	trdma.Client
	runSmallArgs   tPCHWorkerRunSmallArgs
	runSmallResult tPCHWorkerRunSmallResult
	runLargeArgs   tPCHWorkerRunLargeArgs
	runLargeResult tPCHWorkerRunLargeResult
	pingArgs       tPCHWorkerPingArgs
	pingResult     tPCHWorkerPingResult
}

// NewTPCHWorkerClient wraps a transport in the typed client.
func NewTPCHWorkerClient(t trdma.Transport) *TPCHWorkerClient {
	return &TPCHWorkerClient{Client: trdma.NewClient(t)}
}

// RunSmall invokes TPCHWorker.RunSmall.
func (c *TPCHWorkerClient) RunSmall(p *sim.Proc, query_ int32) ([]byte, error) {
	c.runSmallArgs, c.runSmallResult = tPCHWorkerRunSmallArgs{Query: query_}, tPCHWorkerRunSmallResult{}
	if err := c.Client.Call(p, "RunSmall", &c.runSmallArgs, &c.runSmallResult); err != nil {
		return nil, err
	}
	return c.runSmallResult.Success, nil
}

// RunLarge invokes TPCHWorker.RunLarge.
func (c *TPCHWorkerClient) RunLarge(p *sim.Proc, query_ int32) ([]byte, error) {
	c.runLargeArgs, c.runLargeResult = tPCHWorkerRunLargeArgs{Query: query_}, tPCHWorkerRunLargeResult{}
	if err := c.Client.Call(p, "RunLarge", &c.runLargeArgs, &c.runLargeResult); err != nil {
		return nil, err
	}
	return c.runLargeResult.Success, nil
}

// Ping invokes TPCHWorker.Ping.
func (c *TPCHWorkerClient) Ping(p *sim.Proc) (string, error) {
	c.pingArgs, c.pingResult = tPCHWorkerPingArgs{}, tPCHWorkerPingResult{}
	if err := c.Client.Call(p, "Ping", &c.pingArgs, &c.pingResult); err != nil {
		return "", err
	}
	return c.pingResult.Success, nil
}

// tPCHWorkerState is what a request of TPCHWorkerProcessor in flight keeps: its result.
type tPCHWorkerState struct {
	runSmallResult tPCHWorkerRunSmallResult
	runLargeResult tPCHWorkerRunLargeResult
	pingResult     tPCHWorkerPingResult
}

// TPCHWorkerProcessor serves its handler through a trdma.Table, one row per
// function.
type TPCHWorkerProcessor struct {
	t trdma.Table[tPCHWorkerState]
}

// NewTPCHWorkerProcessor wraps a handler.
func NewTPCHWorkerProcessor(h TPCHWorkerHandler) *TPCHWorkerProcessor {
	return &TPCHWorkerProcessor{trdma.NewTable([]trdma.Fn[tPCHWorkerState]{
		{Name: "RunSmall", Invoke: func(p *sim.Proc, s *tPCHWorkerState, r thrift.TProtocol) (trdma.Msg, error) {
			var a tPCHWorkerRunSmallArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.RunSmall(p, a.Query)
			s.runSmallResult = tPCHWorkerRunSmallResult{Success: ret, SuccessSet: err == nil}
			return &s.runSmallResult, err
		}},
		{Name: "RunLarge", Invoke: func(p *sim.Proc, s *tPCHWorkerState, r thrift.TProtocol) (trdma.Msg, error) {
			var a tPCHWorkerRunLargeArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.RunLarge(p, a.Query)
			s.runLargeResult = tPCHWorkerRunLargeResult{Success: ret, SuccessSet: err == nil}
			return &s.runLargeResult, err
		}},
		{Name: "Ping", Invoke: func(p *sim.Proc, s *tPCHWorkerState, r thrift.TProtocol) (trdma.Msg, error) {
			var a tPCHWorkerPingArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Ping(p)
			s.pingResult = tPCHWorkerPingResult{Success: ret, SuccessSet: err == nil}
			return &s.pingResult, err
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *TPCHWorkerProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// TPCHWorkerHints is the hierarchical hint table for service TPCHWorker (Fig. 1).
var TPCHWorkerHints = &trdma.ServiceHints{
	ServiceName: "TPCHWorker",
	Service:     hints.MakeSet(map[hints.Key]string{"concurrency": "9", "perf_goal": "throughput"}, map[hints.Key]string{"numa": "bind"}, nil),
	Functions: map[string]*hints.Set{
		"RunSmall": hints.MakeSet(map[hints.Key]string{"payload_size": "512", "perf_goal": "latency"}, map[hints.Key]string{"payload_size": "16384"}, nil),
		"RunLarge": hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, map[hints.Key]string{"payload_size": "262144"}, map[hints.Key]string{"payload_size": "128"}),
		"Ping":     hints.MakeSet(map[hints.Key]string{"priority": "low", "transport": "tcp"}, nil, nil),
	},
	FnIDs: map[string]uint32{
		"RunSmall": 1,
		"RunLarge": 2,
		"Ping":     3,
	},
	Oneway: map[string]bool{},
}
