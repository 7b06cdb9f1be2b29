package thrift

// Codec is the state a generated stub needs to decode one message and
// encode another: a reader and a writer, each a binary protocol over its
// own memory buffer, made once and re-armed per message. A client, which
// carries one call at a time, owns one; a processor, whose handlers
// yield, takes one per request in flight from a CodecPool. Which Decode a
// stub calls is the ownership rule for what it decodes (DESIGN.md §18).
type Codec struct {
	r, w       TBinaryProtocol
	rbuf, wbuf TMemoryBuffer
}

// NewCodec returns an idle codec.
func NewCodec() *Codec {
	c := &Codec{}
	c.r.m, c.w.m = &c.rbuf, &c.wbuf
	return c
}

// Encode starts a message and returns the protocol to write it with. The
// message is serialized into the spare capacity of into (an empty slice
// of a staging region, or nil) while that lasts, as NewTMemoryBufferWith
// does.
func (c *Codec) Encode(into []byte) *TBinaryProtocol {
	c.wbuf = TMemoryBuffer{buf: into}
	return &c.w
}

// Encoded returns the message written since Encode.
func (c *Codec) Encoded() []byte { return c.wbuf.Bytes() }

// DecodeRequest returns the protocol to read msg with, every binary field
// a window onto msg: a handler's arguments are lent for the call, like
// the request they point into.
func (c *Codec) DecodeRequest(msg []byte) *TBinaryProtocol {
	c.rbuf = TMemoryBuffer{buf: msg, own: ownLent}
	return &c.r
}

// DecodeReply returns the protocol to read msg with, every binary field a
// copy the caller owns: the fields of the message share one allocation,
// each cut from it with its capacity capped, and none aliases msg — which
// the transport recycles at the next call.
func (c *Codec) DecodeReply(msg []byte) *TBinaryProtocol {
	c.rbuf = TMemoryBuffer{buf: msg, own: ownShared}
	return &c.r
}

// CodecPool is a processor's free list of codecs. Like the processor it
// serves one simulation's processes, which run one at a time.
type CodecPool struct{ free []*Codec }

// Get takes a codec off the list, or makes one.
func (cp *CodecPool) Get() *Codec {
	if n := len(cp.free); n > 0 {
		c := cp.free[n-1]
		cp.free = cp.free[:n-1]
		return c
	}
	return NewCodec()
}

// Put returns a codec whose request has been answered.
func (cp *CodecPool) Put(c *Codec) { cp.free = append(cp.free, c) }
