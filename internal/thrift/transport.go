package thrift

import (
	"encoding/binary"
	"fmt"
	"io"
)

// TMemoryBuffer is an in-memory transport: writes append, reads consume.
type TMemoryBuffer struct {
	buf    []byte
	rpos   int
	closed bool
	lend   bool // binary fields are read as windows onto buf, not copies
}

// NewTMemoryBuffer returns an empty memory transport.
func NewTMemoryBuffer() *TMemoryBuffer { return &TMemoryBuffer{} }

// NewTMemoryBufferWith returns a memory transport pre-loaded with data for
// reading. Writes append behind data, into its spare capacity while that
// lasts: handing in an empty slice of a caller-owned buffer (a registered
// staging region) serializes a message straight into that buffer, and
// Bytes still aliases it afterwards unless the message outgrew it.
func NewTMemoryBufferWith(data []byte) *TMemoryBuffer {
	return &TMemoryBuffer{buf: data}
}

// NewTMemoryBufferView is NewTMemoryBufferWith for a reader that finishes
// with every decoded value before data is reused: the binary protocol
// returns each binary field as a window onto data instead of a copy. A
// request handler's arguments are such values — they are lent for the
// call, like the request buffer they point into.
func NewTMemoryBufferView(data []byte) *TMemoryBuffer {
	return &TMemoryBuffer{buf: data, lend: true}
}

// next consumes n buffered bytes and returns them as a window onto the
// buffer.
func (m *TMemoryBuffer) next(n int) ([]byte, error) {
	if m.closed {
		return nil, ErrTransportClosed
	}
	if n > len(m.buf)-m.rpos {
		m.rpos = len(m.buf)
		return nil, io.ErrUnexpectedEOF
	}
	w := m.buf[m.rpos : m.rpos+n : m.rpos+n]
	m.rpos += n
	return w, nil
}

// Grow makes room for n more bytes, so that the writes which add them
// share one allocation (and one move of what is buffered already). The
// capacity at least doubles, so a run of small Grows stays amortized.
func (m *TMemoryBuffer) Grow(n int) {
	if need := len(m.buf) + n; need > cap(m.buf) {
		m.buf = append(make([]byte, 0, max(need, 2*cap(m.buf))), m.buf...)
	}
}

// Read consumes buffered bytes.
func (m *TMemoryBuffer) Read(p []byte) (int, error) {
	if m.closed {
		return 0, ErrTransportClosed
	}
	if m.rpos >= len(m.buf) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[m.rpos:])
	m.rpos += n
	return n, nil
}

// Write appends to the buffer.
func (m *TMemoryBuffer) Write(p []byte) (int, error) {
	if m.closed {
		return 0, ErrTransportClosed
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// Flush is a no-op for memory buffers.
func (m *TMemoryBuffer) Flush() error { return nil }

// Close marks the buffer closed.
func (m *TMemoryBuffer) Close() error { m.closed = true; return nil }

// Bytes returns the unread portion of the buffer.
func (m *TMemoryBuffer) Bytes() []byte { return m.buf[m.rpos:] }

// Len returns the number of unread bytes.
func (m *TMemoryBuffer) Len() int { return len(m.buf) - m.rpos }

// Reset discards all contents.
func (m *TMemoryBuffer) Reset() { m.buf = m.buf[:0]; m.rpos = 0 }

// ---------------------------------------------------------------------------

// TFramedTransport wraps a transport with 4-byte length-prefixed frames:
// each Flush emits one frame, each read refills from one frame. Vanilla
// Thrift uses this with the non-blocking server; HatRPC's IPoIB baseline
// uses it over the simulated kernel socket.
type TFramedTransport struct {
	inner TTransport
	wbuf  []byte
	rbuf  []byte
	rpos  int
	hdr   [4]byte // persistent frame-header scratch: a stack array would
	// escape through the TTransport interface and cost one
	// allocation per frame
}

// NewTFramedTransport wraps inner in frame encoding.
func NewTFramedTransport(inner TTransport) *TFramedTransport {
	return &TFramedTransport{inner: inner}
}

// Write accumulates into the current output frame.
func (t *TFramedTransport) Write(p []byte) (int, error) {
	t.wbuf = append(t.wbuf, p...)
	return len(p), nil
}

// Flush emits the accumulated frame with its length prefix.
func (t *TFramedTransport) Flush() error {
	binary.BigEndian.PutUint32(t.hdr[:], uint32(len(t.wbuf)))
	if _, err := t.inner.Write(t.hdr[:]); err != nil {
		return err
	}
	if _, err := t.inner.Write(t.wbuf); err != nil {
		return err
	}
	t.wbuf = t.wbuf[:0]
	return t.inner.Flush()
}

func (t *TFramedTransport) refill() error {
	if _, err := io.ReadFull(readerOf(t.inner), t.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(t.hdr[:])
	if n > 1<<30 {
		return fmt.Errorf("thrift: frame too large: %d", n)
	}
	// Reuse the frame buffer grow-once: a steady stream of same-shaped
	// frames reads with zero per-frame allocations instead of one make
	// per frame. The first fill (or a growth step) draws from the arena
	// so a Reset can recycle it.
	if cap(t.rbuf) < int(n) {
		PutBuffer(t.rbuf)
		t.rbuf = GetBuffer(int(n))
	} else {
		t.rbuf = t.rbuf[:n]
	}
	t.rpos = 0
	_, err := io.ReadFull(readerOf(t.inner), t.rbuf)
	return err
}

// Reset drops any buffered frame state and returns the transport's
// buffers to the arena. Use it when parking a transport (connection
// close, pool return); the transport remains usable and will re-acquire
// buffers on demand.
func (t *TFramedTransport) Reset() {
	PutBuffer(t.rbuf)
	PutBuffer(t.wbuf)
	t.rbuf, t.wbuf, t.rpos = nil, nil, 0
}

// Read consumes from the current input frame, refilling as needed.
func (t *TFramedTransport) Read(p []byte) (int, error) {
	if t.rpos >= len(t.rbuf) {
		if err := t.refill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, t.rbuf[t.rpos:])
	t.rpos += n
	return n, nil
}

// Close closes the inner transport.
func (t *TFramedTransport) Close() error { return t.inner.Close() }

// readerOf adapts a TTransport to io.Reader (it already is one; this
// keeps io.ReadFull usage explicit).
func readerOf(t TTransport) io.Reader { return t }

// ---------------------------------------------------------------------------

// TBufferedTransport batches small writes and reads through fixed-size
// buffers over the inner transport.
type TBufferedTransport struct {
	inner TTransport
	wbuf  []byte
	wcap  int
	rbuf  []byte
	rpos  int
	rcap  int
}

// NewTBufferedTransport wraps inner with bufSize buffers.
func NewTBufferedTransport(inner TTransport, bufSize int) *TBufferedTransport {
	if bufSize <= 0 {
		bufSize = 4096
	}
	return &TBufferedTransport{inner: inner, wcap: bufSize, rcap: bufSize}
}

// Write buffers p, spilling to the inner transport when full.
func (t *TBufferedTransport) Write(p []byte) (int, error) {
	t.wbuf = append(t.wbuf, p...)
	if len(t.wbuf) >= t.wcap {
		if _, err := t.inner.Write(t.wbuf); err != nil {
			return 0, err
		}
		t.wbuf = t.wbuf[:0]
	}
	return len(p), nil
}

// Flush drains the write buffer and flushes the inner transport.
func (t *TBufferedTransport) Flush() error {
	if len(t.wbuf) > 0 {
		if _, err := t.inner.Write(t.wbuf); err != nil {
			return err
		}
		t.wbuf = t.wbuf[:0]
	}
	return t.inner.Flush()
}

// Read serves from the read buffer, refilling in bulk. The buffer is
// allocated once (from the arena) and refilled in place — the previous
// per-refill make was one allocation per rcap bytes of stream.
func (t *TBufferedTransport) Read(p []byte) (int, error) {
	if t.rpos >= len(t.rbuf) {
		if cap(t.rbuf) < t.rcap {
			t.rbuf = GetBuffer(t.rcap)
		}
		buf := t.rbuf[:t.rcap]
		n, err := t.inner.Read(buf)
		if n == 0 {
			t.rbuf = buf[:0]
			if err == nil {
				err = io.EOF
			}
			return 0, err
		}
		t.rbuf = buf[:n]
		t.rpos = 0
	}
	n := copy(p, t.rbuf[t.rpos:])
	t.rpos += n
	return n, nil
}

// Reset drops buffered state and returns the transport's buffers to the
// arena; the transport remains usable and re-acquires them on demand.
func (t *TBufferedTransport) Reset() {
	PutBuffer(t.rbuf)
	PutBuffer(t.wbuf)
	t.rbuf, t.wbuf, t.rpos = nil, nil, 0
}

// Close closes the inner transport.
func (t *TBufferedTransport) Close() error { return t.inner.Close() }
