// Code generated by hatc from internal/atb/atb.hrpc. DO NOT EDIT.

package atbgen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

type aTBenchEchoArgs struct {
	Payload []byte
}

// Write serializes the struct.
func (x *aTBenchEchoArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("aTBenchEchoArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("payload", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Payload); err != nil {
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
func (x *aTBenchEchoArgs) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.STRING:
			v1, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Payload = v1
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

type aTBenchEchoResult struct {
	Success    []byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *aTBenchEchoResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("aTBenchEchoResult"); err != nil {
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
func (x *aTBenchEchoResult) Read(p thrift.TProtocol) error {
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
func (x *aTBenchEchoResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type aTBenchLatCallArgs struct {
	Payload []byte
}

// Write serializes the struct.
func (x *aTBenchLatCallArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("aTBenchLatCallArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("payload", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Payload); err != nil {
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
func (x *aTBenchLatCallArgs) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.STRING:
			v3, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Payload = v3
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

type aTBenchLatCallResult struct {
	Success    []byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *aTBenchLatCallResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("aTBenchLatCallResult"); err != nil {
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
func (x *aTBenchLatCallResult) Read(p thrift.TProtocol) error {
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
func (x *aTBenchLatCallResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type aTBenchTputCallArgs struct {
	Payload []byte
}

// Write serializes the struct.
func (x *aTBenchTputCallArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("aTBenchTputCallArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("payload", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Payload); err != nil {
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
func (x *aTBenchTputCallArgs) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.STRING:
			v5, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Payload = v5
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

type aTBenchTputCallResult struct {
	Success    []byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *aTBenchTputCallResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("aTBenchTputCallResult"); err != nil {
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
func (x *aTBenchTputCallResult) Read(p thrift.TProtocol) error {
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
			v6, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v6
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
func (x *aTBenchTputCallResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

// ATBenchHandler is the application-side interface for service ATBench.
type ATBenchHandler interface {
	Echo(p *sim.Proc, payload_ []byte) ([]byte, error)
	LatCall(p *sim.Proc, payload_ []byte) ([]byte, error)
	TputCall(p *sim.Proc, payload_ []byte) ([]byte, error)
}

// ATBenchClient is the generated typed client for service ATBench. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type ATBenchClient struct {
	trdma.Client
	echoArgs       aTBenchEchoArgs
	echoResult     aTBenchEchoResult
	latCallArgs    aTBenchLatCallArgs
	latCallResult  aTBenchLatCallResult
	tputCallArgs   aTBenchTputCallArgs
	tputCallResult aTBenchTputCallResult
}

// NewATBenchClient wraps a transport in the typed client.
func NewATBenchClient(t trdma.Transport) *ATBenchClient {
	return &ATBenchClient{Client: trdma.NewClient(t)}
}

// Echo invokes ATBench.Echo.
func (c *ATBenchClient) Echo(p *sim.Proc, payload_ []byte) ([]byte, error) {
	c.echoArgs, c.echoResult = aTBenchEchoArgs{Payload: payload_}, aTBenchEchoResult{}
	if err := c.Client.Call(p, "Echo", &c.echoArgs, &c.echoResult); err != nil {
		return nil, err
	}
	return c.echoResult.Success, nil
}

// LatCall invokes ATBench.LatCall.
func (c *ATBenchClient) LatCall(p *sim.Proc, payload_ []byte) ([]byte, error) {
	c.latCallArgs, c.latCallResult = aTBenchLatCallArgs{Payload: payload_}, aTBenchLatCallResult{}
	if err := c.Client.Call(p, "LatCall", &c.latCallArgs, &c.latCallResult); err != nil {
		return nil, err
	}
	return c.latCallResult.Success, nil
}

// TputCall invokes ATBench.TputCall.
func (c *ATBenchClient) TputCall(p *sim.Proc, payload_ []byte) ([]byte, error) {
	c.tputCallArgs, c.tputCallResult = aTBenchTputCallArgs{Payload: payload_}, aTBenchTputCallResult{}
	if err := c.Client.Call(p, "TputCall", &c.tputCallArgs, &c.tputCallResult); err != nil {
		return nil, err
	}
	return c.tputCallResult.Success, nil
}

// aTBenchState is what a request of ATBenchProcessor in flight keeps: its result.
type aTBenchState struct {
	echoResult     aTBenchEchoResult
	latCallResult  aTBenchLatCallResult
	tputCallResult aTBenchTputCallResult
}

// ATBenchProcessor serves its handler through a trdma.Table, one row per
// function.
type ATBenchProcessor struct {
	t trdma.Table[aTBenchState]
}

// NewATBenchProcessor wraps a handler.
func NewATBenchProcessor(h ATBenchHandler) *ATBenchProcessor {
	return &ATBenchProcessor{trdma.NewTable([]trdma.Fn[aTBenchState]{
		{Name: "Echo", Invoke: func(p *sim.Proc, s *aTBenchState, r thrift.TProtocol) (trdma.Msg, error) {
			var a aTBenchEchoArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Echo(p, a.Payload)
			s.echoResult = aTBenchEchoResult{Success: ret, SuccessSet: err == nil}
			return &s.echoResult, err
		}},
		{Name: "LatCall", Invoke: func(p *sim.Proc, s *aTBenchState, r thrift.TProtocol) (trdma.Msg, error) {
			var a aTBenchLatCallArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.LatCall(p, a.Payload)
			s.latCallResult = aTBenchLatCallResult{Success: ret, SuccessSet: err == nil}
			return &s.latCallResult, err
		}},
		{Name: "TputCall", Invoke: func(p *sim.Proc, s *aTBenchState, r thrift.TProtocol) (trdma.Msg, error) {
			var a aTBenchTputCallArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.TputCall(p, a.Payload)
			s.tputCallResult = aTBenchTputCallResult{Success: ret, SuccessSet: err == nil}
			return &s.tputCallResult, err
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *ATBenchProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// ATBenchHints is the hierarchical hint table for service ATBench (Fig. 1).
var ATBenchHints = &trdma.ServiceHints{
	ServiceName: "ATBench",
	Service:     hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, nil, nil),
	Functions: map[string]*hints.Set{
		"Echo":     hints.MakeSet(nil, nil, nil),
		"LatCall":  hints.MakeSet(map[hints.Key]string{"perf_goal": "latency"}, nil, nil),
		"TputCall": hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, nil, nil),
	},
	FnIDs: map[string]uint32{
		"Echo":     1,
		"LatCall":  2,
		"TputCall": 3,
	},
	Oneway: map[string]bool{},
}
