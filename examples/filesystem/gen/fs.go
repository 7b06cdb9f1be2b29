// Code generated by hatc from examples/filesystem/fs.hrpc. DO NOT EDIT.

package fsgen

import (
	"fmt"

	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
)

var _ = fmt.Sprintf // referenced by error paths

// FileInfo is generated from the IDL struct of the same name.
type FileInfo struct {
	Path  string
	Size  int64
	Mtime int64
	IsDir bool
}

// Write serializes the struct.
func (x *FileInfo) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("FileInfo"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("path", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Path); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("size", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Size); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("mtime", thrift.I64, 3); err != nil {
		return err
	}
	if err := p.WriteI64(x.Mtime); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("isDir", thrift.BOOL, 4); err != nil {
		return err
	}
	if err := p.WriteBool(x.IsDir); err != nil {
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
func (x *FileInfo) Read(p thrift.TProtocol) error {
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
			x.Path = v1
		case id == 2 && ft == thrift.I64:
			v2, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Size = v2
		case id == 3 && ft == thrift.I64:
			v3, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Mtime = v3
		case id == 4 && ft == thrift.BOOL:
			v4, err := p.ReadBool()
			if err != nil {
				return err
			}
			x.IsDir = v4
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

// FSError is generated from the IDL struct of the same name.
type FSError struct {
	Message string
}

// Error implements the error interface.
func (x *FSError) Error() string { return x.Message }

// Write serializes the struct.
func (x *FSError) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("FSError"); err != nil {
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
func (x *FSError) Read(p thrift.TProtocol) error {
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
			x.Message = v5
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

type hatFSStatArgs struct {
	Path string
}

// Write serializes the struct.
func (x *hatFSStatArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSStatArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("path", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Path); err != nil {
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
func (x *hatFSStatArgs) Read(p thrift.TProtocol) error {
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
			x.Path = v6
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

type hatFSStatResult struct {
	Success    FileInfo
	SuccessSet bool
	Err        *FSError
}

// Write serializes the struct.
func (x *hatFSStatResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSStatResult"); err != nil {
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
func (x *hatFSStatResult) Read(p thrift.TProtocol) error {
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
			x.Err = &FSError{}
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
func (x *hatFSStatResult) Outcome() (set bool, exc error) {
	if x.Err != nil {
		return false, x.Err
	}
	return x.SuccessSet, nil
}

type hatFSListDirArgs struct {
	Path string
}

// Write serializes the struct.
func (x *hatFSListDirArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSListDirArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("path", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Path); err != nil {
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
func (x *hatFSListDirArgs) Read(p thrift.TProtocol) error {
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
			v7, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Path = v7
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

type hatFSListDirResult struct {
	Success    []string
	SuccessSet bool
	Err        *FSError
}

// Write serializes the struct.
func (x *hatFSListDirResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSListDirResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.LIST, 0); err != nil {
			return err
		}
		if err := p.WriteListBegin(thrift.STRING, len(x.Success)); err != nil {
			return err
		}
		for _, el8 := range x.Success {
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
func (x *hatFSListDirResult) Read(p thrift.TProtocol) error {
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
			t10, n9, err := p.ReadListBegin()
			if err != nil {
				return err
			}
			if n9 > 0 && t10 != thrift.STRING {
				return fmt.Errorf("thrift: list of %v where %v is declared", t10, thrift.STRING)
			}
			x.Success = make([]string, n9)
			if err := p.ReadStrings(x.Success); err != nil {
				return err
			}
			if err := p.ReadListEnd(); err != nil {
				return err
			}
			x.SuccessSet = true
		case id == 1 && ft == thrift.STRUCT:
			x.Err = &FSError{}
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
func (x *hatFSListDirResult) Outcome() (set bool, exc error) {
	if x.Err != nil {
		return false, x.Err
	}
	return x.SuccessSet, nil
}

type hatFSReadChunkArgs struct {
	Path   string
	Offset int64
	Length int32
}

// Write serializes the struct.
func (x *hatFSReadChunkArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSReadChunkArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("path", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Path); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("offset", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Offset); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("length", thrift.I32, 3); err != nil {
		return err
	}
	if err := p.WriteI32(x.Length); err != nil {
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
func (x *hatFSReadChunkArgs) Read(p thrift.TProtocol) error {
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
			v12, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Path = v12
		case id == 2 && ft == thrift.I64:
			v13, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Offset = v13
		case id == 3 && ft == thrift.I32:
			v14, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Length = v14
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

type hatFSReadChunkResult struct {
	Success    []byte
	SuccessSet bool
	Err        *FSError
}

// Write serializes the struct.
func (x *hatFSReadChunkResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSReadChunkResult"); err != nil {
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
func (x *hatFSReadChunkResult) Read(p thrift.TProtocol) error {
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
			v15, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Success = v15
			x.SuccessSet = true
		case id == 1 && ft == thrift.STRUCT:
			x.Err = &FSError{}
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
func (x *hatFSReadChunkResult) Outcome() (set bool, exc error) {
	if x.Err != nil {
		return false, x.Err
	}
	return x.SuccessSet, nil
}

type hatFSWriteChunkArgs struct {
	Path   string
	Offset int64
	Data   []byte
}

// Write serializes the struct.
func (x *hatFSWriteChunkArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSWriteChunkArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("path", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.Path); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("offset", thrift.I64, 2); err != nil {
		return err
	}
	if err := p.WriteI64(x.Offset); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("data", thrift.STRING, 3); err != nil {
		return err
	}
	if err := p.WriteBinary(x.Data); err != nil {
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
func (x *hatFSWriteChunkArgs) Read(p thrift.TProtocol) error {
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
			v16, err := p.ReadString()
			if err != nil {
				return err
			}
			x.Path = v16
		case id == 2 && ft == thrift.I64:
			v17, err := p.ReadI64()
			if err != nil {
				return err
			}
			x.Offset = v17
		case id == 3 && ft == thrift.STRING:
			v18, err := p.ReadBinary()
			if err != nil {
				return err
			}
			x.Data = v18
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

type hatFSWriteChunkResult struct {
	Success    int32
	SuccessSet bool
	Err        *FSError
}

// Write serializes the struct.
func (x *hatFSWriteChunkResult) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSWriteChunkResult"); err != nil {
		return err
	}
	if x.SuccessSet {
		if err := p.WriteFieldBegin("success", thrift.I32, 0); err != nil {
			return err
		}
		if err := p.WriteI32(x.Success); err != nil {
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
func (x *hatFSWriteChunkResult) Read(p thrift.TProtocol) error {
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
		case id == 0 && ft == thrift.I32:
			v19, err := p.ReadI32()
			if err != nil {
				return err
			}
			x.Success = v19
			x.SuccessSet = true
		case id == 1 && ft == thrift.STRUCT:
			x.Err = &FSError{}
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
func (x *hatFSWriteChunkResult) Outcome() (set bool, exc error) {
	if x.Err != nil {
		return false, x.Err
	}
	return x.SuccessSet, nil
}

type hatFSHeartbeatArgs struct {
	NodeId string
}

// Write serializes the struct.
func (x *hatFSHeartbeatArgs) Write(p thrift.TProtocol) error {
	if err := p.WriteStructBegin("hatFSHeartbeatArgs"); err != nil {
		return err
	}
	if err := p.WriteFieldBegin("nodeId", thrift.STRING, 1); err != nil {
		return err
	}
	if err := p.WriteString(x.NodeId); err != nil {
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
func (x *hatFSHeartbeatArgs) Read(p thrift.TProtocol) error {
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
			v20, err := p.ReadString()
			if err != nil {
				return err
			}
			x.NodeId = v20
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

// HatFSHandler is the application-side interface for service HatFS.
type HatFSHandler interface {
	Stat(p *sim.Proc, path_ string) (FileInfo, error)
	ListDir(p *sim.Proc, path_ string) ([]string, error)
	ReadChunk(p *sim.Proc, path_ string, offset_ int64, length_ int32) ([]byte, error)
	WriteChunk(p *sim.Proc, path_ string, offset_ int64, data_ []byte) (int32, error)
	Heartbeat(p *sim.Proc, nodeId_ string) error
}

// HatFSClient is the generated typed client for service HatFS. Like the
// trdma.Client it calls through, it carries one call at a time: give each
// calling process its own client. Arguments are lent for the call;
// binary results are the caller's, the values of one reply sharing one
// allocation.
type HatFSClient struct {
	trdma.Client
	statArgs         hatFSStatArgs
	statResult       hatFSStatResult
	listDirArgs      hatFSListDirArgs
	listDirResult    hatFSListDirResult
	readChunkArgs    hatFSReadChunkArgs
	readChunkResult  hatFSReadChunkResult
	writeChunkArgs   hatFSWriteChunkArgs
	writeChunkResult hatFSWriteChunkResult
	heartbeatArgs    hatFSHeartbeatArgs
}

// NewHatFSClient wraps a transport in the typed client.
func NewHatFSClient(t trdma.Transport) *HatFSClient {
	return &HatFSClient{Client: trdma.NewClient(t)}
}

// Stat invokes HatFS.Stat.
func (c *HatFSClient) Stat(p *sim.Proc, path_ string) (FileInfo, error) {
	c.statArgs, c.statResult = hatFSStatArgs{Path: path_}, hatFSStatResult{}
	if err := c.Client.Call(p, "Stat", &c.statArgs, &c.statResult); err != nil {
		return FileInfo{}, err
	}
	return c.statResult.Success, nil
}

// ListDir invokes HatFS.ListDir.
func (c *HatFSClient) ListDir(p *sim.Proc, path_ string) ([]string, error) {
	c.listDirArgs, c.listDirResult = hatFSListDirArgs{Path: path_}, hatFSListDirResult{}
	if err := c.Client.Call(p, "ListDir", &c.listDirArgs, &c.listDirResult); err != nil {
		return nil, err
	}
	return c.listDirResult.Success, nil
}

// ReadChunk invokes HatFS.ReadChunk.
func (c *HatFSClient) ReadChunk(p *sim.Proc, path_ string, offset_ int64, length_ int32) ([]byte, error) {
	c.readChunkArgs, c.readChunkResult = hatFSReadChunkArgs{Path: path_, Offset: offset_, Length: length_}, hatFSReadChunkResult{}
	if err := c.Client.Call(p, "ReadChunk", &c.readChunkArgs, &c.readChunkResult); err != nil {
		return nil, err
	}
	return c.readChunkResult.Success, nil
}

// WriteChunk invokes HatFS.WriteChunk.
func (c *HatFSClient) WriteChunk(p *sim.Proc, path_ string, offset_ int64, data_ []byte) (int32, error) {
	c.writeChunkArgs, c.writeChunkResult = hatFSWriteChunkArgs{Path: path_, Offset: offset_, Data: data_}, hatFSWriteChunkResult{}
	if err := c.Client.Call(p, "WriteChunk", &c.writeChunkArgs, &c.writeChunkResult); err != nil {
		return 0, err
	}
	return c.writeChunkResult.Success, nil
}

// Heartbeat invokes HatFS.Heartbeat.
func (c *HatFSClient) Heartbeat(p *sim.Proc, nodeId_ string) error {
	c.heartbeatArgs = hatFSHeartbeatArgs{NodeId: nodeId_}
	return c.Client.Call(p, "Heartbeat", &c.heartbeatArgs, nil)
}

// hatFSState is what a request of HatFSProcessor in flight keeps: its result.
type hatFSState struct {
	statResult       hatFSStatResult
	listDirResult    hatFSListDirResult
	readChunkResult  hatFSReadChunkResult
	writeChunkResult hatFSWriteChunkResult
}

// HatFSProcessor serves its handler through a trdma.Table, one row per
// function.
type HatFSProcessor struct {
	t trdma.Table[hatFSState]
}

// NewHatFSProcessor wraps a handler.
func NewHatFSProcessor(h HatFSHandler) *HatFSProcessor {
	return &HatFSProcessor{trdma.NewTable([]trdma.Fn[hatFSState]{
		{Name: "Stat", Invoke: func(p *sim.Proc, s *hatFSState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatFSStatArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.Stat(p, a.Path)
			s.statResult = hatFSStatResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *FSError:
				s.statResult.Err, err = e, nil
			}
			return &s.statResult, err
		}},
		{Name: "ListDir", Invoke: func(p *sim.Proc, s *hatFSState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatFSListDirArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.ListDir(p, a.Path)
			s.listDirResult = hatFSListDirResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *FSError:
				s.listDirResult.Err, err = e, nil
			}
			return &s.listDirResult, err
		}},
		{Name: "ReadChunk", Invoke: func(p *sim.Proc, s *hatFSState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatFSReadChunkArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.ReadChunk(p, a.Path, a.Offset, a.Length)
			s.readChunkResult = hatFSReadChunkResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *FSError:
				s.readChunkResult.Err, err = e, nil
			}
			return &s.readChunkResult, err
		}},
		{Name: "WriteChunk", Invoke: func(p *sim.Proc, s *hatFSState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatFSWriteChunkArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			ret, err := h.WriteChunk(p, a.Path, a.Offset, a.Data)
			s.writeChunkResult = hatFSWriteChunkResult{Success: ret, SuccessSet: err == nil}
			switch e := err.(type) {
			case *FSError:
				s.writeChunkResult.Err, err = e, nil
			}
			return &s.writeChunkResult, err
		}},
		{Name: "Heartbeat", Invoke: func(p *sim.Proc, s *hatFSState, r thrift.TProtocol) (trdma.Msg, error) {
			var a hatFSHeartbeatArgs
			if err := a.Read(r); err != nil {
				return nil, err
			}
			_ = h.Heartbeat(p, a.NodeId) // no reply carries a oneway call's error
			return nil, nil
		}},
	})}
}

// ProcessBytes serves one request (trdma.Table.Serve).
func (pr *HatFSProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	return pr.t.Serve(p, fnID, req)
}

// HatFSHints is the hierarchical hint table for service HatFS (Fig. 1).
var HatFSHints = &trdma.ServiceHints{
	ServiceName: "HatFS",
	Service:     hints.MakeSet(map[hints.Key]string{"concurrency": "64"}, nil, nil),
	Functions: map[string]*hints.Set{
		"Stat":       hints.MakeSet(map[hints.Key]string{"payload_size": "128", "perf_goal": "latency"}, nil, nil),
		"ListDir":    hints.MakeSet(map[hints.Key]string{"payload_size": "1024", "perf_goal": "latency"}, nil, nil),
		"ReadChunk":  hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, map[hints.Key]string{"payload_size": "131072"}, map[hints.Key]string{"payload_size": "64"}),
		"WriteChunk": hints.MakeSet(map[hints.Key]string{"perf_goal": "throughput"}, map[hints.Key]string{"payload_size": "64"}, map[hints.Key]string{"payload_size": "131072"}),
		"Heartbeat":  hints.MakeSet(map[hints.Key]string{"perf_goal": "res_util", "priority": "low"}, nil, nil),
	},
	FnIDs: map[string]uint32{
		"Stat":       1,
		"ListDir":    2,
		"ReadChunk":  3,
		"WriteChunk": 4,
		"Heartbeat":  5,
	},
	Oneway: map[string]bool{
		"Heartbeat": true,
	},
}
