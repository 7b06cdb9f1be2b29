// Code generated by hatc from examples/quickstart/echo.hrpc. DO NOT EDIT.

package echogen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

type echoPingArgs struct {
	Msg string
}

// Write serializes the struct.
func (x *echoPingArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("echoPingArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("msg", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Msg); err != nil {
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
func (x *echoPingArgs) Read(p thrift.TProtocol) error {
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
			v1, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Msg = v1
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

type echoPingResult struct {
	Success    string
	SuccessSet bool
}

// Write serializes the struct.
func (x *echoPingResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("echoPingResult"); err != nil {
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
func (x *echoPingResult) Read(p thrift.TProtocol) error {
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
			v2, err := p.ReadString()
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
func (x *echoPingResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type echoReverseArgs struct {
	Msg string
}

// Write serializes the struct.
func (x *echoReverseArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("echoReverseArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("msg", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Msg); err != nil {
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
func (x *echoReverseArgs) Read(p thrift.TProtocol) error {
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
			v3, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Msg = v3
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

type echoReverseResult struct {
	Success    string
	SuccessSet bool
}

// Write serializes the struct.
func (x *echoReverseResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("echoReverseResult"); err != nil {
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
func (x *echoReverseResult) Read(p thrift.TProtocol) error {
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
			v4, err := p.ReadString()
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
func (x *echoReverseResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type echoNotifyArgs struct {
	Event string
}

// Write serializes the struct.
func (x *echoNotifyArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("echoNotifyArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("event", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Event); err != nil {
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
func (x *echoNotifyArgs) Read(p thrift.TProtocol) error {
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
			v5, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Event = v5
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

// EchoHandler is the application-side interface for service Echo.
type EchoHandler interface {
	Ping(p *sim.Proc, msg_ string) (string, error)
	Reverse(p *sim.Proc, msg_ string) (string, error)
	Notify(p *sim.Proc, event_ string) error
}

// EchoClient is the generated typed client for service Echo. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type EchoClient struct {
	trdma.Client
	pingArgs      echoPingArgs
	pingResult    echoPingResult
	reverseArgs   echoReverseArgs
	reverseResult echoReverseResult
	notifyArgs    echoNotifyArgs
}

// NewEchoClient wraps a transport in the typed client.
func NewEchoClient(t trdma.Transport) *EchoClient {
	return &EchoClient{Client: trdma.NewClient(t)}
}

// Ping invokes Echo.Ping.
func (c *EchoClient) Ping(p *sim.Proc, msg_ string) (string, error) {
	c.pingArgs, c.pingResult = echoPingArgs{Msg: msg_}, echoPingResult{}
	if err := c.Client.Call(p, "Ping", &c.pingArgs, &c.pingResult); err != nil {
		return "", err
	}
	return c.pingResult.Success, nil
}

// Reverse invokes Echo.Reverse.
func (c *EchoClient) Reverse(p *sim.Proc, msg_ string) (string, error) {
	c.reverseArgs, c.reverseResult = echoReverseArgs{Msg: msg_}, echoReverseResult{}
	if err := c.Client.Call(p, "Reverse", &c.reverseArgs, &c.reverseResult); err != nil {
		return "", err
	}
	return c.reverseResult.Success, nil
}

// Notify invokes Echo.Notify.
func (c *EchoClient) Notify(p *sim.Proc, event_ string) error {
	c.notifyArgs = echoNotifyArgs{Event: event_}
	return c.Client.Call(p, "Notify", &c.notifyArgs, nil)
}

// echoState is what a request of EchoProcessor in flight keeps: its result.
type echoState struct {
	pingResult    echoPingResult
	reverseResult echoReverseResult
}

// EchoProcessor serves its handler through a trdma.Table, one row per
// function.
type EchoProcessor struct {
	t trdma.Table[echoState]
}

// NewEchoProcessor wraps a handler.
func NewEchoProcessor(h EchoHandler) *EchoProcessor {
	return &EchoProcessor{trdma.NewTable([]trdma.Fn[echoState]{
		{Name: "Ping", Invoke: func(p *sim.Proc, s *echoState, r thrift.TProtocol) (trdma.Msg, error) {
			var a echoPingArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Ping(p, a.Msg)
			s.pingResult = echoPingResult{Success: ret, SuccessSet: err == nil}
			return &s.pingResult, err
		}},
		{Name: "Reverse", Invoke: func(p *sim.Proc, s *echoState, r thrift.TProtocol) (trdma.Msg, error) {
			var a echoReverseArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Reverse(p, a.Msg)
			s.reverseResult = echoReverseResult{Success: ret, SuccessSet: err == nil}
			return &s.reverseResult, err
		}},
		{Name: "Notify", Invoke: func(p *sim.Proc, s *echoState, r thrift.TProtocol) (trdma.Msg, error) {
			var a echoNotifyArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			_ = h.Notify(p, a.Event) // no reply carries a oneway call's error
			return nil, nil
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *EchoProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// EchoHints is the hierarchical hint table for service Echo (Fig. 1).
var EchoHints = &trdma.ServiceHints{
	ServiceName: "Echo",
	Service:     hints.MakeSet(map[hints.Key]string{"concurrency": "1", "perf_goal": "latency"}, nil, nil),
	Functions: map[string]*hints.Set{
		"Ping":    hints.MakeSet(nil, nil, nil),
		"Reverse": hints.MakeSet(nil, nil, nil),
		"Notify":  hints.MakeSet(nil, nil, nil),
	},
	FnIDs: map[string]uint32{
		"Ping":    1,
		"Reverse": 2,
		"Notify":  3,
	},
	Oneway: map[string]bool{
		"Notify": true,
	},
}
