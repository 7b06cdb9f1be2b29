package thrift

import "io"

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
