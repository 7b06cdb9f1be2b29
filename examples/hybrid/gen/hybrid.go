// Code generated by hatc from examples/hybrid/hybrid.hrpc. DO NOT EDIT.

package hybridgen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

type telemetryGetConfigArgs struct {
	Key string
}

// Write serializes the struct.
func (x *telemetryGetConfigArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryGetConfigArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("key", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Key); err != nil {
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
func (x *telemetryGetConfigArgs) Read(p thrift.TProtocol) error {
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
			x.Key = v1
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

type telemetryGetConfigResult struct {
	Success    string
	SuccessSet bool
}

// Write serializes the struct.
func (x *telemetryGetConfigResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryGetConfigResult"); err != nil {
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
func (x *telemetryGetConfigResult) Read(p thrift.TProtocol) error {
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
func (x *telemetryGetConfigResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type telemetryReportStatusArgs struct {
	Status string
}

// Write serializes the struct.
func (x *telemetryReportStatusArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryReportStatusArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("status", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Status); err != nil {
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
func (x *telemetryReportStatusArgs) Read(p thrift.TProtocol) error {
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
			x.Status = v3
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

type telemetryPushSamplesArgs struct {
	Samples []byte
}

// Write serializes the struct.
func (x *telemetryPushSamplesArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryPushSamplesArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("samples", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Samples); err != nil {
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
func (x *telemetryPushSamplesArgs) Read(p thrift.TProtocol) error {
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
			v4, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Samples = v4
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

type telemetryPushSamplesResult struct {
}

// Write serializes the struct.
func (x *telemetryPushSamplesResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryPushSamplesResult"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *telemetryPushSamplesResult) Read(p thrift.TProtocol) error {
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

// Outcome reports what the decoded reply carried (trdma.Result).
func (x *telemetryPushSamplesResult) Outcome() (set bool, exc error) {
	return true, nil
}

type telemetryPullWindowArgs struct {
	FromTs int64
	ToTs   int64
}

// Write serializes the struct.
func (x *telemetryPullWindowArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryPullWindowArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("fromTs", thrift.I64, 1); err != nil {
		return err
	}
	if err := p.WriteI64(x.FromTs); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("toTs", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.ToTs); err != nil {
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
func (x *telemetryPullWindowArgs) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.I64:
			v5, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.FromTs = v5
		case id == 2 && ft == thrift.I64:
			v6, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.ToTs = v6
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

type telemetryPullWindowResult struct {
	Success    []byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *telemetryPullWindowResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("telemetryPullWindowResult"); err != nil {
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
func (x *telemetryPullWindowResult) Read(p thrift.TProtocol) error {
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
			v7, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v7
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
func (x *telemetryPullWindowResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

// TelemetryHandler is the application-side interface for service Telemetry.
type TelemetryHandler interface {
	GetConfig(p *sim.Proc, key_ string) (string, error)
	ReportStatus(p *sim.Proc, status_ string) error
	PushSamples(p *sim.Proc, samples_ []byte) error
	PullWindow(p *sim.Proc, fromTs_ int64, toTs_ int64) ([]byte, error)
}

// TelemetryClient is the generated typed client for service Telemetry. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type TelemetryClient struct {
	trdma.Client
	getConfigArgs     telemetryGetConfigArgs
	getConfigResult   telemetryGetConfigResult
	reportStatusArgs  telemetryReportStatusArgs
	pushSamplesArgs   telemetryPushSamplesArgs
	pushSamplesResult telemetryPushSamplesResult
	pullWindowArgs    telemetryPullWindowArgs
	pullWindowResult  telemetryPullWindowResult
}

// NewTelemetryClient wraps a transport in the typed client.
func NewTelemetryClient(t trdma.Transport) *TelemetryClient {
	return &TelemetryClient{Client: trdma.NewClient(t)}
}

// GetConfig invokes Telemetry.GetConfig.
func (c *TelemetryClient) GetConfig(p *sim.Proc, key_ string) (string, error) {
	c.getConfigArgs, c.getConfigResult = telemetryGetConfigArgs{Key: key_}, telemetryGetConfigResult{}
	if err := c.Client.Call(p, "GetConfig", &c.getConfigArgs, &c.getConfigResult); err != nil {
		return "", err
	}
	return c.getConfigResult.Success, nil
}

// ReportStatus invokes Telemetry.ReportStatus.
func (c *TelemetryClient) ReportStatus(p *sim.Proc, status_ string) error {
	c.reportStatusArgs = telemetryReportStatusArgs{Status: status_}
	return c.Client.Call(p, "ReportStatus", &c.reportStatusArgs, nil)
}

// PushSamples invokes Telemetry.PushSamples.
func (c *TelemetryClient) PushSamples(p *sim.Proc, samples_ []byte) error {
	c.pushSamplesArgs, c.pushSamplesResult = telemetryPushSamplesArgs{Samples: samples_}, telemetryPushSamplesResult{}
	return c.Client.Call(p, "PushSamples", &c.pushSamplesArgs, &c.pushSamplesResult)
}

// PullWindow invokes Telemetry.PullWindow.
func (c *TelemetryClient) PullWindow(p *sim.Proc, fromTs_ int64, toTs_ int64) ([]byte, error) {
	c.pullWindowArgs, c.pullWindowResult = telemetryPullWindowArgs{FromTs: fromTs_, ToTs: toTs_}, telemetryPullWindowResult{}
	if err := c.Client.Call(p, "PullWindow", &c.pullWindowArgs, &c.pullWindowResult); err != nil {
		return nil, err
	}
	return c.pullWindowResult.Success, nil
}

// telemetryState is what a request of TelemetryProcessor in flight keeps: its result.
type telemetryState struct {
	getConfigResult   telemetryGetConfigResult
	pushSamplesResult telemetryPushSamplesResult
	pullWindowResult  telemetryPullWindowResult
}

// TelemetryProcessor serves its handler through a trdma.Table, one row per
// function.
type TelemetryProcessor struct {
	t trdma.Table[telemetryState]
}

// NewTelemetryProcessor wraps a handler.
func NewTelemetryProcessor(h TelemetryHandler) *TelemetryProcessor {
	return &TelemetryProcessor{trdma.NewTable([]trdma.Fn[telemetryState]{
		{Name: "GetConfig", Invoke: func(p *sim.Proc, s *telemetryState, r thrift.TProtocol) (trdma.Msg, error) {
			var a telemetryGetConfigArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.GetConfig(p, a.Key)
			s.getConfigResult = telemetryGetConfigResult{Success: ret, SuccessSet: err == nil}
			return &s.getConfigResult, err
		}},
		{Name: "ReportStatus", Invoke: func(p *sim.Proc, s *telemetryState, r thrift.TProtocol) (trdma.Msg, error) {
			var a telemetryReportStatusArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			_ = h.ReportStatus(p, a.Status) // no reply carries a oneway call's error
			return nil, nil
		}},
		{Name: "PushSamples", Invoke: func(p *sim.Proc, s *telemetryState, r thrift.TProtocol) (trdma.Msg, error) {
			var a telemetryPushSamplesArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			err := h.PushSamples(p, a.Samples)
			s.pushSamplesResult = telemetryPushSamplesResult{}
			return &s.pushSamplesResult, err
		}},
		{Name: "PullWindow", Invoke: func(p *sim.Proc, s *telemetryState, r thrift.TProtocol) (trdma.Msg, error) {
			var a telemetryPullWindowArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.PullWindow(p, a.FromTs, a.ToTs)
			s.pullWindowResult = telemetryPullWindowResult{Success: ret, SuccessSet: err == nil}
			return &s.pullWindowResult, err
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *TelemetryProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// TelemetryHints is the hierarchical hint table for service Telemetry (Fig. 1).
var TelemetryHints = &trdma.ServiceHints{
	ServiceName: "Telemetry",
	Service:     hints.MakeSet(map[hints.Key]string{"concurrency": "16"}, map[hints.Key]string{"numa": "bind"}, nil),
	Functions: map[string]*hints.Set{
		"GetConfig":    hints.MakeSet(map[hints.Key]string{"transport": "tcp"}, nil, nil),
		"ReportStatus": hints.MakeSet(map[hints.Key]string{"priority": "low", "transport": "tcp"}, nil, nil),
		"PushSamples":  hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, nil, map[hints.Key]string{"payload_size": "65536"}),
		"PullWindow":   hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, map[hints.Key]string{"payload_size": "65536"}, nil),
	},
	FnIDs: map[string]uint32{
		"GetConfig":    1,
		"ReportStatus": 2,
		"PushSamples":  3,
		"PullWindow":   4,
	},
	Oneway: map[string]bool{
		"ReportStatus": true,
	},
}
