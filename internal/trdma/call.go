package trdma

import (
	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
)

// The one call path of every generated stub: a client's Call and a
// processor's Serve own the message framing, the seq and the application
// exceptions, so generated code holds only per-function data — the args
// and result structs, and a table of invokers.

// Msg is a generated args or result struct, as a request or a reply
// writes it. A write into memory cannot fail: Write's error is a nil
// struct field, which has no encoding.
type Msg interface {
	Write(thrift.TProtocol) error
}

// Result is a generated result struct, as a client reads it.
type Result interface {
	Read(thrift.TProtocol) error
	// Outcome reports what a decoded reply carried: set is whether the
	// function's value came (always, for a void function); exc is the
	// declared exception, if one came.
	Outcome() (set bool, exc error)
}

// Client is the call state of a generated client: its transport, the seq
// of its last call and the codec every call re-arms. A request is
// serialized into the transport's one staging buffer, so a client carries
// one call at a time: give each calling process its own.
type Client struct {
	T   Transport
	seq int32
	cd  *thrift.Codec
}

// NewClient returns the call state of a client over t.
func NewClient(t Transport) Client { return Client{T: t, cd: thrift.NewCodec()} }

// Call performs one call of fn: it frames args under the next seq, invokes
// fn and, unless result is nil (a oneway function), reads the reply into
// result. The error is the transport's, an application exception the
// reply carried, one for a reply out of sequence or without the
// function's value, or the declared exception result carries.
func (c *Client) Call(p *sim.Proc, fn string, args Msg, result Result) error {
	c.seq++
	mt := thrift.CALL
	if result == nil {
		mt = thrift.ONEWAY
	}
	w := c.cd.Encode(c.T.Stage())
	w.WriteMessageBegin(fn, mt, c.seq)
	if err := args.Write(w); err != nil {
		return err
	}
	resp, err := c.T.Invoke(p, fn, c.cd.Encoded(), result == nil)
	if err != nil || result == nil {
		return err
	}
	r := c.cd.DecodeReply(resp)
	_, mt, seq, err := r.ReadMessageHeader()
	if err != nil {
		return err
	}
	if mt == thrift.EXCEPTION {
		var ex thrift.TApplicationException
		if err := ex.Read(r); err != nil {
			return err
		}
		return &ex
	}
	if seq != c.seq {
		return thrift.NewApplicationException(thrift.ExcBadSequenceID, fn+" reply out of sequence")
	}
	if err := result.Read(r); err != nil {
		return err
	}
	if set, exc := result.Outcome(); set || exc != nil {
		return exc
	}
	return thrift.NewApplicationException(thrift.ExcMissingResult, fn+" returned no result")
}

// Fn is one row of a generated processor's table. Invoke reads the
// function's args from r, calls the handler, and maps the handler's error
// onto the result it returns, which it sets whole in s, the request's
// state. It returns a nil result for a oneway function; an error with a
// nil result is the args' decode error, one with a result the handler's
// error that no throws clause declares.
type Fn[S any] struct {
	Name   string
	Invoke func(p *sim.Proc, s *S, r thrift.TProtocol) (Msg, error)
}

// Table is a generated processor: its rows, the one at index i serving
// function id i+1, and the requests it serves. Handlers yield, so several
// requests may be in flight: each takes a codec and a state S from a free
// list for as long as it runs. Like the processor, the list serves one
// simulation's processes, which run one at a time.
type Table[S any] struct {
	fns  []Fn[S]
	free []*request[S]
}

type request[S any] struct {
	cd *thrift.Codec
	s  S
}

// NewTable returns the processor whose rows are fns.
func NewTable[S any](fns []Fn[S]) Table[S] { return Table[S]{fns: fns} }

// Serve decodes one request, invokes its function, and returns the framed
// reply (nil for oneway), serialized into the response stage of the
// connection p dispatches (engine.ResponseStage). It dispatches on fnID; a
// request that came without one (id 0: IPoIB) is matched by the name it
// carries, compared where it lies in the request. A request that cannot be
// dispatched or decoded, or whose handler fails with an undeclared error,
// is answered with an application exception.
func (t *Table[S]) Serve(p *sim.Proc, fnID uint32, req []byte) []byte {
	rq := t.get()
	defer t.put(rq)
	r := rq.cd.DecodeRequest(req)
	name, _, seq, err := r.ReadMessageHeader()
	if err != nil {
		return exception(string(name), seq, thrift.ExcProtocolError, err.Error())
	}
	if fnID == 0 {
		for i := range t.fns {
			if string(name) == t.fns[i].Name {
				fnID = uint32(i + 1)
				break
			}
		}
	}
	if fnID == 0 || int(fnID) > len(t.fns) {
		return exception(string(name), seq, thrift.ExcUnknownMethod, "unknown method "+string(name))
	}
	fn := &t.fns[fnID-1]
	res, err := fn.Invoke(p, &rq.s, r)
	switch {
	case res == nil && err != nil:
		return exception(fn.Name, seq, thrift.ExcProtocolError, err.Error())
	case res == nil:
		return nil
	case err != nil:
		return exception(fn.Name, seq, thrift.ExcInternalError, err.Error())
	}
	w := rq.cd.Encode(engine.ResponseStage(p))
	w.WriteMessageBegin(fn.Name, thrift.REPLY, seq)
	if err := res.Write(w); err != nil {
		return exception(fn.Name, seq, thrift.ExcInternalError, err.Error())
	}
	return rq.cd.Encoded()
}

func (t *Table[S]) get() *request[S] {
	if n := len(t.free); n > 0 {
		rq := t.free[n-1]
		t.free = t.free[:n-1]
		return rq
	}
	return &request[S]{cd: thrift.NewCodec()}
}

// put takes back a request that has been answered. Its state keeps the
// results it last held until a request sets them again, as its codec keeps
// the last message: clearing the whole state on every request would cost
// more than the rest of Serve.
func (t *Table[S]) put(rq *request[S]) { t.free = append(t.free, rq) }

// exception frames an application exception as the reply to the call of
// name with seq.
func exception(name string, seq int32, code thrift.ApplicationExceptionType, msg string) []byte {
	buf := thrift.NewTMemoryBuffer()
	w := thrift.NewTBinaryProtocol(buf)
	w.WriteMessageBegin(name, thrift.EXCEPTION, seq)
	thrift.NewApplicationException(code, msg).Write(w)
	return buf.Bytes()
}
