// Code generated by hatc from internal/hatkv/kv.hrpc. DO NOT EDIT.

package kvgen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

// KVPair is generated from the IDL struct of the same name.
type KVPair struct {
	Key   string
	Value []byte
}

// Write serializes the struct.
func (x *KVPair) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("KVPair"); err != nil {
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
	if err := p.WriteFieldBegin("value", thrift.STRING, 2); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Value); err != nil {
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
func (x *KVPair) Read(p thrift.TProtocol) error {
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
		case id == 2 && ft == thrift.STRING:
			v2, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Value = v2
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

// KVError is generated from the IDL struct of the same name.
type KVError struct {
	Message string
}

// Error implements the error interface.
func (x *KVError) Error() string { return x.Message }

// Write serializes the struct.
func (x *KVError) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("KVError"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("message", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Message); err != nil {
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
func (x *KVError) Read(p thrift.TProtocol) error {
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
			x.Message = v3
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

type hatKVGetArgs struct {
	Key string
}

// Write serializes the struct.
func (x *hatKVGetArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVGetArgs"); err != nil {
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
func (x *hatKVGetArgs) Read(p thrift.TProtocol) error {
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
			v4, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Key = v4
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

type hatKVGetResult struct {
	Success    []byte
	SuccessSet bool
	Err        *KVError
}

// Write serializes the struct.
func (x *hatKVGetResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVGetResult"); err != nil {
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
	if x.Err != nil {
		if err := p.WriteFieldBegin("err", thrift.STRUCT, 1); err != nil {
			return err
		}
		if err := x.Err.Write(p); err != nil {
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
func (x *hatKVGetResult) Read(p thrift.TProtocol) error {
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
			v5, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v5
			x.SuccessSet = true
		case id == 1 && ft == thrift.STRUCT:
			x.Err = &KVError{}
			if err := x.Err.Read(p); err != nil {
				return err
			}
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
func (x *hatKVGetResult) Outcome() (set bool, exc error) {
	if x.Err != nil {
		return false, x.Err
	}
	return x.SuccessSet, nil
}

type hatKVPutArgs struct {
	Key   string
	Value []byte
}

// Write serializes the struct.
func (x *hatKVPutArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVPutArgs"); err != nil {
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
	if err := p.WriteFieldBegin("value", thrift.STRING, 2); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Value); err != nil {
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
func (x *hatKVPutArgs) Read(p thrift.TProtocol) error {
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
			v6, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Key = v6
		case id == 2 && ft == thrift.STRING:
			v7, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Value = v7
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

type hatKVPutResult struct {
}

// Write serializes the struct.
func (x *hatKVPutResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVPutResult"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *hatKVPutResult) Read(p thrift.TProtocol) error {
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
func (x *hatKVPutResult) Outcome() (set bool, exc error) {
	return true, nil
}

type hatKVMultiGetArgs struct {
	Keys []string
}

// Write serializes the struct.
func (x *hatKVMultiGetArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVMultiGetArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("keys", thrift.LIST, 1); err != nil {
		return err
	}
	if err := p.WriteListBegin(thrift.STRING, len(x.Keys)); err != nil {
		return err
	}
	for _, el8 := range x.Keys {
		if err := p.WriteString(el8); err != nil {
			return err
		}
	}
	if err := p.WriteListEnd(); err != nil {
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
func (x *hatKVMultiGetArgs) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.LIST:
			t10, n9, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n9 > 0 && t10 != thrift.STRING {
				return fmt.Errorf("thrift: list of %v where %v is declared", t10, thrift.STRING)
			}
			x.Keys = make([]string, n9)
			if err := p.ReadStrings(x.Keys); err != nil {
				return err
			}
			if err := p.ReadListEnd(); err != nil {
				return err
			}
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

type hatKVMultiGetResult struct {
	Success    [][]byte
	SuccessSet bool
}

// Write serializes the struct.
func (x *hatKVMultiGetResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVMultiGetResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.LIST, 0); err != nil {
			return err
		}
		if err := p.WriteListBegin(thrift.STRING, len(x.Success)); err != nil {
			return err
		}
		for _, el12 := range x.Success {
			if err := p.WriteBinary(el12); err != nil {
				return err
			}
		}
		if err := p.WriteListEnd(); err != nil {
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
func (x *hatKVMultiGetResult) Read(p thrift.TProtocol) error {
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
		case id == 0 && ft == thrift.LIST:
			t14, n13, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n13 > 0 && t14 != thrift.STRING {
				return fmt.Errorf("thrift: list of %v where %v is declared", t14, thrift.STRING)
			}
			x.Success = make([][]byte, n13)
			for i15 := 0; i15 < n13; i15++ {
				v16, err := p.ReadBinary()
				if err != nil {
					return err
				}
				x.Success[i15] = v16
			}
			if err := p.ReadListEnd(); err != nil {
				return err
			}
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
func (x *hatKVMultiGetResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type hatKVMultiPutArgs struct {
	Pairs []*KVPair
}

// Write serializes the struct.
func (x *hatKVMultiPutArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVMultiPutArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("pairs", thrift.LIST, 1); err != nil {
		return err
	}
	if err := p.WriteListBegin(thrift.STRUCT, len(x.Pairs)); err != nil {
		return err
	}
	for _, el17 := range x.Pairs {
		if el17 == nil {
			return fmt.Errorf("thrift: nil KVPair")
		}
		if err := el17.Write(p); err != nil {
			return err
		}
	}
	if err := p.WriteListEnd(); err != nil {
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
func (x *hatKVMultiPutArgs) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.LIST:
			t19, n18, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n18 > 0 && t19 != thrift.STRUCT {
				return fmt.Errorf("thrift: list of %v where %v is declared", t19, thrift.STRUCT)
			}
			x.Pairs = make([]*KVPair, n18)
			b21 := make([]KVPair, n18)
			for i20 := range b21 {
				x.Pairs[i20] = &b21[i20]
				if err := b21[i20].Read(p); err != nil {
					return err
				}
			}
			if err := p.ReadListEnd(); err != nil {
				return err
			}
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

type hatKVMultiPutResult struct {
}

// Write serializes the struct.
func (x *hatKVMultiPutResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatKVMultiPutResult"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *hatKVMultiPutResult) Read(p thrift.TProtocol) error {
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
func (x *hatKVMultiPutResult) Outcome() (set bool, exc error) {
	return true, nil
}

// HatKVHandler is the application-side interface for service HatKV.
type HatKVHandler interface {
	Get(p *sim.Proc, key_ string) ([]byte, error)
	Put(p *sim.Proc, key_ string, value_ []byte) error
	MultiGet(p *sim.Proc, keys_ []string) ([][]byte, error)
	MultiPut(p *sim.Proc, pairs_ []*KVPair) error
}

// HatKVClient is the generated typed client for service HatKV. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type HatKVClient struct {
	trdma.Client
	getArgs        hatKVGetArgs
	getResult      hatKVGetResult
	putArgs        hatKVPutArgs
	putResult      hatKVPutResult
	multiGetArgs   hatKVMultiGetArgs
	multiGetResult hatKVMultiGetResult
	multiPutArgs   hatKVMultiPutArgs
	multiPutResult hatKVMultiPutResult
}

// NewHatKVClient wraps a transport in the typed client.
func NewHatKVClient(t trdma.Transport) *HatKVClient {
	return &HatKVClient{Client: trdma.NewClient(t)}
}

// Get invokes HatKV.Get.
func (c *HatKVClient) Get(p *sim.Proc, key_ string) ([]byte, error) {
	c.getArgs, c.getResult = hatKVGetArgs{Key: key_}, hatKVGetResult{}
	if err := c.Client.Call(p, "Get", &c.getArgs, &c.getResult); err != nil {
		return nil, err
	}
	return c.getResult.Success, nil
}

// Put invokes HatKV.Put.
func (c *HatKVClient) Put(p *sim.Proc, key_ string, value_ []byte) error {
	c.putArgs, c.putResult = hatKVPutArgs{Key: key_, Value: value_}, hatKVPutResult{}
	return c.Client.Call(p, "Put", &c.putArgs, &c.putResult)
}

// MultiGet invokes HatKV.MultiGet.
func (c *HatKVClient) MultiGet(p *sim.Proc, keys_ []string) ([][]byte, error) {
	c.multiGetArgs, c.multiGetResult = hatKVMultiGetArgs{Keys: keys_}, hatKVMultiGetResult{}
	if err := c.Client.Call(p, "MultiGet", &c.multiGetArgs, &c.multiGetResult); err != nil {
		return nil, err
	}
	return c.multiGetResult.Success, nil
}

// MultiPut invokes HatKV.MultiPut.
func (c *HatKVClient) MultiPut(p *sim.Proc, pairs_ []*KVPair) error {
	c.multiPutArgs, c.multiPutResult = hatKVMultiPutArgs{Pairs: pairs_}, hatKVMultiPutResult{}
	return c.Client.Call(p, "MultiPut", &c.multiPutArgs, &c.multiPutResult)
}

// hatKVState is what a request of HatKVProcessor in flight keeps: its result.
type hatKVState struct {
	getResult      hatKVGetResult
	putResult      hatKVPutResult
	multiGetResult hatKVMultiGetResult
	multiPutResult hatKVMultiPutResult
}

// HatKVProcessor serves its handler through a trdma.Table, one row per
// function.
type HatKVProcessor struct {
	t trdma.Table[hatKVState]
}

// NewHatKVProcessor wraps a handler.
func NewHatKVProcessor(h HatKVHandler) *HatKVProcessor {
	return &HatKVProcessor{trdma.NewTable([]trdma.Fn[hatKVState]{
		{Name: "Get", Invoke: func(p *sim.Proc, s *hatKVState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatKVGetArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Get(p, a.Key)
			s.getResult = hatKVGetResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *KVError:
				s.getResult.Err, err = e, nil
			}
			return &s.getResult, err
		}},
		{Name: "Put", Invoke: func(p *sim.Proc, s *hatKVState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatKVPutArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			err := h.Put(p, a.Key, a.Value)
			s.putResult = hatKVPutResult{}
			return &s.putResult, err
		}},
		{Name: "MultiGet", Invoke: func(p *sim.Proc, s *hatKVState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatKVMultiGetArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.MultiGet(p, a.Keys)
			s.multiGetResult = hatKVMultiGetResult{Success: ret, SuccessSet: err == nil}
			return &s.multiGetResult, err
		}},
		{Name: "MultiPut", Invoke: func(p *sim.Proc, s *hatKVState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatKVMultiPutArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			err := h.MultiPut(p, a.Pairs)
			s.multiPutResult = hatKVMultiPutResult{}
			return &s.multiPutResult, err
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *HatKVProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// HatKVHints is the hierarchical hint table for service HatKV (Fig. 1).
var HatKVHints = &trdma.ServiceHints{
	ServiceName: "HatKV",
	Service:     hints.MakeSet(map[hints.Key]string{"concurrency": "128", "perf_goal": "throughput"}, map[hints.Key]string{"numa": "bind"}, nil),
	Functions: map[string]*hints.Set{
		"Get":      hints.MakeSet(nil, map[hints.Key]string{"payload_size": "1024"}, map[hints.Key]string{"payload_size": "64"}),
		"Put":      hints.MakeSet(nil, map[hints.Key]string{"payload_size": "64"}, map[hints.Key]string{"payload_size": "1024"}),
		"MultiGet": hints.MakeSet(nil, map[hints.Key]string{"payload_size": "10240"}, map[hints.Key]string{"payload_size": "256"}),
		"MultiPut": hints.MakeSet(nil, map[hints.Key]string{"payload_size": "64"}, map[hints.Key]string{"payload_size": "10240"}),
	},
	FnIDs: map[string]uint32{
		"Get":      1,
		"Put":      2,
		"MultiGet": 3,
		"MultiPut": 4,
	},
	Oneway: map[string]bool{},
}
