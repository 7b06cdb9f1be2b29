// Code generated by hatc from internal/cluster/cluster.hrpc. DO NOT EDIT.

package clustergen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

// Route is generated from the IDL struct of the same name.
type Route struct {
	Epoch    int64
	Primary  int32
	Replicas []int32
}

// Write serializes the struct.
func (x *Route) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("Route"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 1); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("primary", thrift.I32, 2); err != nil {
		return err
	}
	if err := p.WriteI32(x.Primary); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("replicas", thrift.LIST, 3); err != nil {
		return err
	}
	if err := p.WriteListBegin(thrift.I32, len(x.Replicas)); err != nil {
		return err
	}
	for _, el1 := range x.Replicas {
		if err := p.WriteI32(el1); err != nil {
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
func (x *Route) Read(p thrift.TProtocol) error {
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
			v2, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v2
		case id == 2 && ft == thrift.I32:
			v3, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Primary = v3
		case id == 3 && ft == thrift.LIST:
			t5, n4, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n4 > 0 && t5 != thrift.I32 {
				return fmt.Errorf("thrift: list of %v where %v is declared", t5, thrift.I32)
			}
			x.Replicas = make([]int32, n4)
			for i6 := 0; i6 < n4; i6++ {
				v7, err := p.ReadI32()
				if err != nil {
					return err
				}
				x.Replicas[i6] = v7
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

// Routes is generated from the IDL struct of the same name.
type Routes struct {
	Shards []*Route
}

// Write serializes the struct.
func (x *Routes) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("Routes"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shards", thrift.LIST, 1); err != nil {
		return err
	}
	if err := p.WriteListBegin(thrift.STRUCT, len(x.Shards)); err != nil {
		return err
	}
	for _, el8 := range x.Shards {
		if el8 == nil {
			return fmt.Errorf("thrift: nil Route")
		}
		if err := el8.Write(p); err != nil {
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
func (x *Routes) Read(p thrift.TProtocol) error {
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
			if n9 > 0 && t10 != thrift.STRUCT {
				return fmt.Errorf("thrift: list of %v where %v is declared", t10, thrift.STRUCT)
			}
			x.Shards = make([]*Route, n9)
			b12 := make([]Route, n9)
			for i11 := range b12 {
				x.Shards[i11] = &b12[i11]
				if err := b12[i11].Read(p); err != nil {
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

// ShardStatus is generated from the IDL struct of the same name.
type ShardStatus struct {
	Epoch          int64
	Seq            int64
	LearnedEpoch   int64
	LearnedPrimary int32
	Promised       int64
	Leads          bool
	Heard          bool
}

// Write serializes the struct.
func (x *ShardStatus) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("ShardStatus"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 1); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("seq", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Seq); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("learnedEpoch", thrift.I64, 3); err != nil {
		return err
	}
	if err := p.WriteI64(x.LearnedEpoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("learnedPrimary", thrift.I32, 4); err != nil {
		return err
	}
	if err := p.WriteI32(x.LearnedPrimary); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("promised", thrift.I64, 5); err != nil {
		return err
	}
	if err := p.WriteI64(x.Promised); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("leads", thrift.BOOL, 6); err != nil {
		return err
	}
	if err := p.WriteBool(x.Leads); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("heard", thrift.BOOL, 7); err != nil {
		return err
	}
	if err := p.WriteBool(x.Heard); err != nil {
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
func (x *ShardStatus) Read(p thrift.TProtocol) error {
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
			v13, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v13
		case id == 2 && ft == thrift.I64:
			v14, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Seq = v14
		case id == 3 && ft == thrift.I64:
			v15, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.LearnedEpoch = v15
		case id == 4 && ft == thrift.I32:
			v16, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.LearnedPrimary = v16
		case id == 5 && ft == thrift.I64:
			v17, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Promised = v17
		case id == 6 && ft == thrift.BOOL:
			v18, err := p.ReadBool()
			if err != nil {
				return err
			}
			x.Leads = v18
		case id == 7 && ft == thrift.BOOL:
			v19, err := p.ReadBool()
			if err != nil {
				return err
			}
			x.Heard = v19
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

// Pair is generated from the IDL struct of the same name.
type Pair struct {
	Key   []byte
	Value []byte
}

// Write serializes the struct.
func (x *Pair) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("Pair"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("key", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Key); err != nil {
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
func (x *Pair) Read(p thrift.TProtocol) error {
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
			v20, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Key = v20
		case id == 2 && ft == thrift.STRING:
			v21, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Value = v21
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

// Snapshot is generated from the IDL struct of the same name.
type Snapshot struct {
	Epoch int64
	Seq   int64
	Pairs []*Pair
}

// Write serializes the struct.
func (x *Snapshot) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("Snapshot"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 1); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("seq", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Seq); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("pairs", thrift.LIST, 3); err != nil {
		return err
	}
	if err := p.WriteListBegin(thrift.STRUCT, len(x.Pairs)); err != nil {
		return err
	}
	for _, el22 := range x.Pairs {
		if el22 == nil {
			return fmt.Errorf("thrift: nil Pair")
		}
		if err := el22.Write(p); err != nil {
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
func (x *Snapshot) Read(p thrift.TProtocol) error {
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
			v23, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v23
		case id == 2 && ft == thrift.I64:
			v24, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Seq = v24
		case id == 3 && ft == thrift.LIST:
			t26, n25, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n25 > 0 && t26 != thrift.STRUCT {
				return fmt.Errorf("thrift: list of %v where %v is declared", t26, thrift.STRUCT)
			}
			x.Pairs = make([]*Pair, n25)
			b28 := make([]Pair, n25)
			for i27 := range b28 {
				x.Pairs[i27] = &b28[i27]
				if err := b28[i27].Read(p); err != nil {
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

// Stale is generated from the IDL struct of the same name.
type Stale struct {
	Epoch   int64
	Primary int32
}

// Error implements the error interface.
func (x *Stale) Error() string { return fmt.Sprintf("Stale%+v", *x) }

// Write serializes the struct.
func (x *Stale) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("Stale"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 1); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("primary", thrift.I32, 2); err != nil {
		return err
	}
	if err := p.WriteI32(x.Primary); err != nil {
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
func (x *Stale) Read(p thrift.TProtocol) error {
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
			v29, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v29
		case id == 2 && ft == thrift.I32:
			v30, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Primary = v30
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

// Fenced is generated from the IDL struct of the same name.
type Fenced struct {
}

// Error implements the error interface.
func (x *Fenced) Error() string { return fmt.Sprintf("Fenced%+v", *x) }

// Write serializes the struct.
func (x *Fenced) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("Fenced"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *Fenced) Read(p thrift.TProtocol) error {
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

// NotQuorum is generated from the IDL struct of the same name.
type NotQuorum struct {
}

// Error implements the error interface.
func (x *NotQuorum) Error() string { return fmt.Sprintf("NotQuorum%+v", *x) }

// Write serializes the struct.
func (x *NotQuorum) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("NotQuorum"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *NotQuorum) Read(p thrift.TProtocol) error {
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

// NeedSync is generated from the IDL struct of the same name.
type NeedSync struct {
}

// Error implements the error interface.
func (x *NeedSync) Error() string { return fmt.Sprintf("NeedSync%+v", *x) }

// Write serializes the struct.
func (x *NeedSync) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("NeedSync"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *NeedSync) Read(p thrift.TProtocol) error {
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

// NotFound is generated from the IDL struct of the same name.
type NotFound struct {
}

// Error implements the error interface.
func (x *NotFound) Error() string { return fmt.Sprintf("NotFound%+v", *x) }

// Write serializes the struct.
func (x *NotFound) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("NotFound"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *NotFound) Read(p thrift.TProtocol) error {
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

type clusterShardMapArgs struct {
}

// Write serializes the struct.
func (x *clusterShardMapArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterShardMapArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the struct.
func (x *clusterShardMapArgs) Read(p thrift.TProtocol) error {
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

type clusterShardMapResult struct {
	Success    Routes
	SuccessSet bool
}

// Write serializes the struct.
func (x *clusterShardMapResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterShardMapResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRUCT, 0); err != nil {
			return err
		}
		if err := x.Success.Write(p); err != nil {
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
func (x *clusterShardMapResult) Read(p thrift.TProtocol) error {
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
		case id == 0 && ft == thrift.STRUCT:
			if err := x.Success.Read(p); err != nil {
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
func (x *clusterShardMapResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type clusterPutArgs struct {
	Shard int32
	Epoch int64
	Key   []byte
	Value []byte
}

// Write serializes the struct.
func (x *clusterPutArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterPutArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("key", thrift.STRING, 3); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Key); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("value", thrift.STRING, 4); err != nil {
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
func (x *clusterPutArgs) Read(p thrift.TProtocol) error {
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
			v31, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v31
		case id == 2 && ft == thrift.I64:
			v32, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v32
		case id == 3 && ft == thrift.STRING:
			v33, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Key = v33
		case id == 4 && ft == thrift.STRING:
			v34, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Value = v34
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

type clusterPutResult struct {
	Stale     *Stale
	Fenced    *Fenced
	NotQuorum *NotQuorum
}

// Write serializes the struct.
func (x *clusterPutResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterPutResult"); err != nil {
		return err
	}
	if x.Stale != nil {
		if err := p.WriteFieldBegin("stale", thrift.STRUCT, 1); err != nil {
			return err
		}
		if err := x.Stale.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.Fenced != nil {
		if err := p.WriteFieldBegin("fenced", thrift.STRUCT, 2); err != nil {
			return err
		}
		if err := x.Fenced.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.NotQuorum != nil {
		if err := p.WriteFieldBegin("notQuorum", thrift.STRUCT, 3); err != nil {
			return err
		}
		if err := x.NotQuorum.Write(p); err != nil {
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
func (x *clusterPutResult) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.STRUCT:
			x.Stale = &Stale{}
			if err := x.Stale.Read(p); err != nil {
				return err
			}
		case id == 2 && ft == thrift.STRUCT:
			x.Fenced = &Fenced{}
			if err := x.Fenced.Read(p); err != nil {
				return err
			}
		case id == 3 && ft == thrift.STRUCT:
			x.NotQuorum = &NotQuorum{}
			if err := x.NotQuorum.Read(p); err != nil {
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
func (x *clusterPutResult) Outcome() (set bool, exc error) {
	if x.Stale != nil {
		return false, x.Stale
	}
	if x.Fenced != nil {
		return false, x.Fenced
	}
	if x.NotQuorum != nil {
		return false, x.NotQuorum
	}
	return true, nil
}

type clusterGetArgs struct {
	Shard int32
	Epoch int64
	Key   []byte
}

// Write serializes the struct.
func (x *clusterGetArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterGetArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("key", thrift.STRING, 3); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Key); err != nil {
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
func (x *clusterGetArgs) Read(p thrift.TProtocol) error {
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
			v35, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v35
		case id == 2 && ft == thrift.I64:
			v36, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v36
		case id == 3 && ft == thrift.STRING:
			v37, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Key = v37
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

type clusterGetResult struct {
	Success    []byte
	SuccessSet bool
	Stale      *Stale
	Fenced     *Fenced
	NotFound   *NotFound
}

// Write serializes the struct.
func (x *clusterGetResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterGetResult"); err != nil {
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
	if x.Stale != nil {
		if err := p.WriteFieldBegin("stale", thrift.STRUCT, 1); err != nil {
			return err
		}
		if err := x.Stale.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.Fenced != nil {
		if err := p.WriteFieldBegin("fenced", thrift.STRUCT, 2); err != nil {
			return err
		}
		if err := x.Fenced.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.NotFound != nil {
		if err := p.WriteFieldBegin("notFound", thrift.STRUCT, 3); err != nil {
			return err
		}
		if err := x.NotFound.Write(p); err != nil {
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
func (x *clusterGetResult) Read(p thrift.TProtocol) error {
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
			v38, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v38
			x.SuccessSet = true
		case id == 1 && ft == thrift.STRUCT:
			x.Stale = &Stale{}
			if err := x.Stale.Read(p); err != nil {
				return err
			}
		case id == 2 && ft == thrift.STRUCT:
			x.Fenced = &Fenced{}
			if err := x.Fenced.Read(p); err != nil {
				return err
			}
		case id == 3 && ft == thrift.STRUCT:
			x.NotFound = &NotFound{}
			if err := x.NotFound.Read(p); err != nil {
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
func (x *clusterGetResult) Outcome() (set bool, exc error) {
	if x.Stale != nil {
		return false, x.Stale
	}
	if x.Fenced != nil {
		return false, x.Fenced
	}
	if x.NotFound != nil {
		return false, x.NotFound
	}
	return x.SuccessSet, nil
}

type clusterReplicateArgs struct {
	Shard   int32
	Epoch   int64
	Primary int32
	Seq     int64
	Key     []byte
	Value   []byte
}

// Write serializes the struct.
func (x *clusterReplicateArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterReplicateArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("primary", thrift.I32, 3); err != nil {
		return err
	}
	if err := p.WriteI32(x.Primary); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("seq", thrift.I64, 4); err != nil {
		return err
	}
	if err := p.WriteI64(x.Seq); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("key", thrift.STRING, 5); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Key); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("value", thrift.STRING, 6); err != nil {
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
func (x *clusterReplicateArgs) Read(p thrift.TProtocol) error {
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
			v39, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v39
		case id == 2 && ft == thrift.I64:
			v40, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v40
		case id == 3 && ft == thrift.I32:
			v41, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Primary = v41
		case id == 4 && ft == thrift.I64:
			v42, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Seq = v42
		case id == 5 && ft == thrift.STRING:
			v43, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Key = v43
		case id == 6 && ft == thrift.STRING:
			v44, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Value = v44
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

type clusterReplicateResult struct {
	Stale    *Stale
	Fenced   *Fenced
	NeedSync *NeedSync
}

// Write serializes the struct.
func (x *clusterReplicateResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterReplicateResult"); err != nil {
		return err
	}
	if x.Stale != nil {
		if err := p.WriteFieldBegin("stale", thrift.STRUCT, 1); err != nil {
			return err
		}
		if err := x.Stale.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.Fenced != nil {
		if err := p.WriteFieldBegin("fenced", thrift.STRUCT, 2); err != nil {
			return err
		}
		if err := x.Fenced.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.NeedSync != nil {
		if err := p.WriteFieldBegin("needSync", thrift.STRUCT, 3); err != nil {
			return err
		}
		if err := x.NeedSync.Write(p); err != nil {
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
func (x *clusterReplicateResult) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.STRUCT:
			x.Stale = &Stale{}
			if err := x.Stale.Read(p); err != nil {
				return err
			}
		case id == 2 && ft == thrift.STRUCT:
			x.Fenced = &Fenced{}
			if err := x.Fenced.Read(p); err != nil {
				return err
			}
		case id == 3 && ft == thrift.STRUCT:
			x.NeedSync = &NeedSync{}
			if err := x.NeedSync.Read(p); err != nil {
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
func (x *clusterReplicateResult) Outcome() (set bool, exc error) {
	if x.Stale != nil {
		return false, x.Stale
	}
	if x.Fenced != nil {
		return false, x.Fenced
	}
	if x.NeedSync != nil {
		return false, x.NeedSync
	}
	return true, nil
}

type clusterCensusArgs struct {
	Shard int32
}

// Write serializes the struct.
func (x *clusterCensusArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterCensusArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
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
func (x *clusterCensusArgs) Read(p thrift.TProtocol) error {
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
			v45, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v45
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

type clusterCensusResult struct {
	Success    ShardStatus
	SuccessSet bool
}

// Write serializes the struct.
func (x *clusterCensusResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterCensusResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRUCT, 0); err != nil {
			return err
		}
		if err := x.Success.Write(p); err != nil {
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
func (x *clusterCensusResult) Read(p thrift.TProtocol) error {
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
		case id == 0 && ft == thrift.STRUCT:
			if err := x.Success.Read(p); err != nil {
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
func (x *clusterCensusResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type clusterPrepareArgs struct {
	Shard   int32
	Epoch   int64
	Reelect bool
}

// Write serializes the struct.
func (x *clusterPrepareArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterPrepareArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("reelect", thrift.BOOL, 3); err != nil {
		return err
	}
	if err := p.WriteBool(x.Reelect); err != nil {
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
func (x *clusterPrepareArgs) Read(p thrift.TProtocol) error {
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
			v46, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v46
		case id == 2 && ft == thrift.I64:
			v47, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v47
		case id == 3 && ft == thrift.BOOL:
			v48, err := p.ReadBool()
			if err != nil {
				return err
			}
			x.Reelect = v48
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

type clusterPrepareResult struct {
	Success    ShardStatus
	SuccessSet bool
	Stale      *Stale
}

// Write serializes the struct.
func (x *clusterPrepareResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterPrepareResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRUCT, 0); err != nil {
			return err
		}
		if err := x.Success.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.Stale != nil {
		if err := p.WriteFieldBegin("stale", thrift.STRUCT, 1); err != nil {
			return err
		}
		if err := x.Stale.Write(p); err != nil {
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
func (x *clusterPrepareResult) Read(p thrift.TProtocol) error {
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
		case id == 0 && ft == thrift.STRUCT:
			if err := x.Success.Read(p); err != nil {
				return err
			}
			x.SuccessSet = true
		case id == 1 && ft == thrift.STRUCT:
			x.Stale = &Stale{}
			if err := x.Stale.Read(p); err != nil {
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
func (x *clusterPrepareResult) Outcome() (set bool, exc error) {
	if x.Stale != nil {
		return false, x.Stale
	}
	return x.SuccessSet, nil
}

type clusterPullArgs struct {
	Shard int32
}

// Write serializes the struct.
func (x *clusterPullArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterPullArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
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
func (x *clusterPullArgs) Read(p thrift.TProtocol) error {
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
			v49, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v49
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

type clusterPullResult struct {
	Success    Snapshot
	SuccessSet bool
}

// Write serializes the struct.
func (x *clusterPullResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterPullResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.STRUCT, 0); err != nil {
			return err
		}
		if err := x.Success.Write(p); err != nil {
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
func (x *clusterPullResult) Read(p thrift.TProtocol) error {
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
		case id == 0 && ft == thrift.STRUCT:
			if err := x.Success.Read(p); err != nil {
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
func (x *clusterPullResult) Outcome() (set bool, exc error) {
	return x.SuccessSet, nil
}

type clusterInstallArgs struct {
	Shard   int32
	Epoch   int64
	Primary int32
	Seq     int64
	Pairs   []*Pair
}

// Write serializes the struct.
func (x *clusterInstallArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterInstallArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("shard", thrift.I32, 1); err != nil {
		return err
	}
	if err := p.WriteI32(x.Shard); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("epoch", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Epoch); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("primary", thrift.I32, 3); err != nil {
		return err
	}
	if err := p.WriteI32(x.Primary); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("seq", thrift.I64, 4); err != nil {
		return err
	}
	if err := p.WriteI64(x.Seq); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("pairs", thrift.LIST, 5); err != nil {
		return err
	}
	if err := p.WriteListBegin(thrift.STRUCT, len(x.Pairs)); err != nil {
		return err
	}
	for _, el50 := range x.Pairs {
		if el50 == nil {
			return fmt.Errorf("thrift: nil Pair")
		}
		if err := el50.Write(p); err != nil {
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
func (x *clusterInstallArgs) Read(p thrift.TProtocol) error {
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
			v51, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Shard = v51
		case id == 2 && ft == thrift.I64:
			v52, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Epoch = v52
		case id == 3 && ft == thrift.I32:
			v53, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Primary = v53
		case id == 4 && ft == thrift.I64:
			v54, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Seq = v54
		case id == 5 && ft == thrift.LIST:
			t56, n55, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n55 > 0 && t56 != thrift.STRUCT {
				return fmt.Errorf("thrift: list of %v where %v is declared", t56, thrift.STRUCT)
			}
			x.Pairs = make([]*Pair, n55)
			b58 := make([]Pair, n55)
			for i57 := range b58 {
				x.Pairs[i57] = &b58[i57]
				if err := b58[i57].Read(p); err != nil {
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

type clusterInstallResult struct {
	Stale  *Stale
	Fenced *Fenced
}

// Write serializes the struct.
func (x *clusterInstallResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("clusterInstallResult"); err != nil {
		return err
	}
	if x.Stale != nil {
		if err := p.WriteFieldBegin("stale", thrift.STRUCT, 1); err != nil {
			return err
		}
		if err := x.Stale.Write(p); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if x.Fenced != nil {
		if err := p.WriteFieldBegin("fenced", thrift.STRUCT, 2); err != nil {
			return err
		}
		if err := x.Fenced.Write(p); err != nil {
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
func (x *clusterInstallResult) Read(p thrift.TProtocol) error {
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
		case id == 1 && ft == thrift.STRUCT:
			x.Stale = &Stale{}
			if err := x.Stale.Read(p); err != nil {
				return err
			}
		case id == 2 && ft == thrift.STRUCT:
			x.Fenced = &Fenced{}
			if err := x.Fenced.Read(p); err != nil {
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
func (x *clusterInstallResult) Outcome() (set bool, exc error) {
	if x.Stale != nil {
		return false, x.Stale
	}
	if x.Fenced != nil {
		return false, x.Fenced
	}
	return true, nil
}

// ClusterHandler is the application-side interface for service Cluster.
type ClusterHandler interface {
	ShardMap(p *sim.Proc) (Routes, error)
	Put(p *sim.Proc, shard_ int32, epoch_ int64, key_ []byte, value_ []byte) error
	Get(p *sim.Proc, shard_ int32, epoch_ int64, key_ []byte) ([]byte, error)
	Replicate(p *sim.Proc, shard_ int32, epoch_ int64, primary_ int32, seq_ int64, key_ []byte, value_ []byte) error
	Census(p *sim.Proc, shard_ int32) (ShardStatus, error)
	Prepare(p *sim.Proc, shard_ int32, epoch_ int64, reelect_ bool) (ShardStatus, error)
	Pull(p *sim.Proc, shard_ int32) (Snapshot, error)
	Install(p *sim.Proc, shard_ int32, epoch_ int64, primary_ int32, seq_ int64, pairs_ []*Pair) error
}

// ClusterClient is the generated typed client for service Cluster. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type ClusterClient struct {
	trdma.Client
	shardMapArgs    clusterShardMapArgs
	shardMapResult  clusterShardMapResult
	putArgs         clusterPutArgs
	putResult       clusterPutResult
	getArgs         clusterGetArgs
	getResult       clusterGetResult
	replicateArgs   clusterReplicateArgs
	replicateResult clusterReplicateResult
	censusArgs      clusterCensusArgs
	censusResult    clusterCensusResult
	prepareArgs     clusterPrepareArgs
	prepareResult   clusterPrepareResult
	pullArgs        clusterPullArgs
	pullResult      clusterPullResult
	installArgs     clusterInstallArgs
	installResult   clusterInstallResult
}

// NewClusterClient wraps a transport in the typed client.
func NewClusterClient(t trdma.Transport) *ClusterClient {
	return &ClusterClient{Client: trdma.NewClient(t)}
}

// ShardMap invokes Cluster.ShardMap.
func (c *ClusterClient) ShardMap(p *sim.Proc) (Routes, error) {
	c.shardMapArgs, c.shardMapResult = clusterShardMapArgs{}, clusterShardMapResult{}
	if err := c.Client.Call(p, "ShardMap", &c.shardMapArgs, &c.shardMapResult); err != nil {
		return Routes{}, err
	}
	return c.shardMapResult.Success, nil
}

// Put invokes Cluster.Put.
func (c *ClusterClient) Put(p *sim.Proc, shard_ int32, epoch_ int64, key_ []byte, value_ []byte) error {
	c.putArgs, c.putResult = clusterPutArgs{Shard: shard_, Epoch: epoch_, Key: key_, Value: value_}, clusterPutResult{}
	return c.Client.Call(p, "Put", &c.putArgs, &c.putResult)
}

// Get invokes Cluster.Get.
func (c *ClusterClient) Get(p *sim.Proc, shard_ int32, epoch_ int64, key_ []byte) ([]byte, error) {
	c.getArgs, c.getResult = clusterGetArgs{Shard: shard_, Epoch: epoch_, Key: key_}, clusterGetResult{}
	if err := c.Client.Call(p, "Get", &c.getArgs, &c.getResult); err != nil {
		return nil, err
	}
	return c.getResult.Success, nil
}

// Replicate invokes Cluster.Replicate.
func (c *ClusterClient) Replicate(p *sim.Proc, shard_ int32, epoch_ int64, primary_ int32, seq_ int64, key_ []byte, value_ []byte) error {
	c.replicateArgs, c.replicateResult = clusterReplicateArgs{Shard: shard_, Epoch: epoch_, Primary: primary_, Seq: seq_, Key: key_, Value: value_}, clusterReplicateResult{}
	return c.Client.Call(p, "Replicate", &c.replicateArgs, &c.replicateResult)
}

// Census invokes Cluster.Census.
func (c *ClusterClient) Census(p *sim.Proc, shard_ int32) (ShardStatus, error) {
	c.censusArgs, c.censusResult = clusterCensusArgs{Shard: shard_}, clusterCensusResult{}
	if err := c.Client.Call(p, "Census", &c.censusArgs, &c.censusResult); err != nil {
		return ShardStatus{}, err
	}
	return c.censusResult.Success, nil
}

// Prepare invokes Cluster.Prepare.
func (c *ClusterClient) Prepare(p *sim.Proc, shard_ int32, epoch_ int64, reelect_ bool) (ShardStatus, error) {
	c.prepareArgs, c.prepareResult = clusterPrepareArgs{Shard: shard_, Epoch: epoch_, Reelect: reelect_}, clusterPrepareResult{}
	if err := c.Client.Call(p, "Prepare", &c.prepareArgs, &c.prepareResult); err != nil {
		return ShardStatus{}, err
	}
	return c.prepareResult.Success, nil
}

// Pull invokes Cluster.Pull.
func (c *ClusterClient) Pull(p *sim.Proc, shard_ int32) (Snapshot, error) {
	c.pullArgs, c.pullResult = clusterPullArgs{Shard: shard_}, clusterPullResult{}
	if err := c.Client.Call(p, "Pull", &c.pullArgs, &c.pullResult); err != nil {
		return Snapshot{}, err
	}
	return c.pullResult.Success, nil
}

// Install invokes Cluster.Install.
func (c *ClusterClient) Install(p *sim.Proc, shard_ int32, epoch_ int64, primary_ int32, seq_ int64, pairs_ []*Pair) error {
	c.installArgs, c.installResult = clusterInstallArgs{Shard: shard_, Epoch: epoch_, Primary: primary_, Seq: seq_, Pairs: pairs_}, clusterInstallResult{}
	return c.Client.Call(p, "Install", &c.installArgs, &c.installResult)
}

// clusterState is what a request of ClusterProcessor in flight keeps: its result.
type clusterState struct {
	shardMapResult  clusterShardMapResult
	putResult       clusterPutResult
	getResult       clusterGetResult
	replicateResult clusterReplicateResult
	censusResult    clusterCensusResult
	prepareResult   clusterPrepareResult
	pullResult      clusterPullResult
	installResult   clusterInstallResult
}

// ClusterProcessor serves its handler through a trdma.Table, one row per
// function.
type ClusterProcessor struct {
	t trdma.Table[clusterState]
}

// NewClusterProcessor wraps a handler.
func NewClusterProcessor(h ClusterHandler) *ClusterProcessor {
	return &ClusterProcessor{trdma.NewTable([]trdma.Fn[clusterState]{
		{Name: "ShardMap", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterShardMapArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.ShardMap(p)
			s.shardMapResult = clusterShardMapResult{Success: ret, SuccessSet: err == nil}
			return &s.shardMapResult, err
		}},
		{Name: "Put", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterPutArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			err := h.Put(p, a.Shard, a.Epoch, a.Key, a.Value)
			s.putResult = clusterPutResult{}
			switch e := err.(type) {
			case *Stale:
				s.putResult.Stale, err = e, nil
			case *Fenced:
				s.putResult.Fenced, err = e, nil
			case *NotQuorum:
				s.putResult.NotQuorum, err = e, nil
			}
			return &s.putResult, err
		}},
		{Name: "Get", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterGetArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Get(p, a.Shard, a.Epoch, a.Key)
			s.getResult = clusterGetResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *Stale:
				s.getResult.Stale, err = e, nil
			case *Fenced:
				s.getResult.Fenced, err = e, nil
			case *NotFound:
				s.getResult.NotFound, err = e, nil
			}
			return &s.getResult, err
		}},
		{Name: "Replicate", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterReplicateArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			err := h.Replicate(p, a.Shard, a.Epoch, a.Primary, a.Seq, a.Key, a.Value)
			s.replicateResult = clusterReplicateResult{}
			switch e := err.(type) {
			case *Stale:
				s.replicateResult.Stale, err = e, nil
			case *Fenced:
				s.replicateResult.Fenced, err = e, nil
			case *NeedSync:
				s.replicateResult.NeedSync, err = e, nil
			}
			return &s.replicateResult, err
		}},
		{Name: "Census", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterCensusArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Census(p, a.Shard)
			s.censusResult = clusterCensusResult{Success: ret, SuccessSet: err == nil}
			return &s.censusResult, err
		}},
		{Name: "Prepare", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterPrepareArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Prepare(p, a.Shard, a.Epoch, a.Reelect)
			s.prepareResult = clusterPrepareResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *Stale:
				s.prepareResult.Stale, err = e, nil
			}
			return &s.prepareResult, err
		}},
		{Name: "Pull", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterPullArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Pull(p, a.Shard)
			s.pullResult = clusterPullResult{Success: ret, SuccessSet: err == nil}
			return &s.pullResult, err
		}},
		{Name: "Install", Invoke: func(p *sim.Proc, s *clusterState, r thrift.TProtocol) (trdma.Msg, error) {
			var a clusterInstallArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			err := h.Install(p, a.Shard, a.Epoch, a.Primary, a.Seq, a.Pairs)
			s.installResult = clusterInstallResult{}
			switch e := err.(type) {
			case *Stale:
				s.installResult.Stale, err = e, nil
			case *Fenced:
				s.installResult.Fenced, err = e, nil
			}
			return &s.installResult, err
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *ClusterProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// ClusterHints is the hierarchical hint table for service Cluster (Fig. 1).
var ClusterHints = &trdma.ServiceHints{
	ServiceName: "Cluster",
	Service:     hints.MakeSet(map[hints.Key]string{"perf_goal": "res_util"}, nil, nil),
	Functions: map[string]*hints.Set{
		"ShardMap":  hints.MakeSet(map[hints.Key]string{"payload_size": "256"}, nil, nil),
		"Put":       hints.MakeSet(map[hints.Key]string{"perf_goal": "latency"}, nil, nil),
		"Get":       hints.MakeSet(map[hints.Key]string{"perf_goal": "latency"}, nil, nil),
		"Replicate": hints.MakeSet(map[hints.Key]string{"perf_goal": "latency"}, nil, nil),
		"Census":    hints.MakeSet(map[hints.Key]string{"payload_size": "256"}, nil, nil),
		"Prepare":   hints.MakeSet(map[hints.Key]string{"payload_size": "256"}, nil, nil),
		"Pull":      hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, nil, nil),
		"Install":   hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, nil, nil),
	},
	FnIDs: map[string]uint32{
		"ShardMap":  1,
		"Put":       2,
		"Get":       3,
		"Replicate": 4,
		"Census":    5,
		"Prepare":   6,
		"Pull":      7,
		"Install":   8,
	},
	Oneway: map[string]bool{},
}
