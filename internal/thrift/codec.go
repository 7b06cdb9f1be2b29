package thrift

// Codec is the state a generated stub needs to decode one message and
// encode another: a reader and a writer, each a binary protocol over its
// own memory buffer, made once and re-armed per message. A client, which
// carries one call at a time, owns one; a processor, whose handlers
// yield, takes one per request in flight (trdma.Table). Which Decode a
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
