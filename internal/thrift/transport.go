package thrift

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// ownership says who holds the bytes of a binary field once it is decoded.
type ownership uint8

const (
	// ownShared: the fields of one message are windows, each with capped
	// capacity, onto one copy of the message the caller owns.
	ownShared ownership = iota
	// ownLent: every field is a window onto the buffer, valid for as long
	// as the buffer's bytes are.
	ownLent
)

// TMemoryBuffer is an in-memory transport: writes append, reads consume.
// It is the only transport in the tree — generated code and trdma are
// message-level, the engine frames — so the protocols read and write its
// buffer directly (next, extend) instead of through TTransport.
type TMemoryBuffer struct {
	buf    []byte
	rpos   int
	closed bool
	own    ownership
	shared []byte // ownShared: a copy of buf[base:] as it stood at the message's first binary field
	base   int
}

// NewTMemoryBuffer returns an empty memory transport.
func NewTMemoryBuffer() *TMemoryBuffer { return &TMemoryBuffer{} }

// NewTMemoryBufferWith returns a memory transport pre-loaded with data for
// reading. Writes append behind data, into its spare capacity while that
// lasts: handing in an empty slice of a caller-owned buffer (a registered
// staging region) serializes a message straight into that buffer, and
// Bytes still aliases it afterwards unless the message outgrew it. Binary
// fields read from it are copies the caller owns (ownShared).
func NewTMemoryBufferWith(data []byte) *TMemoryBuffer {
	return &TMemoryBuffer{buf: data}
}

// next consumes n buffered bytes and returns them as a window onto the
// buffer. A length the buffer cannot back — every length and count on the
// wire is checked here before anything is sized by it — is an error.
func (m *TMemoryBuffer) next(n int) ([]byte, error) {
	if n < 0 || n > len(m.buf)-m.rpos {
		m.rpos = len(m.buf)
		return nil, io.ErrUnexpectedEOF
	}
	w := m.buf[m.rpos : m.rpos+n : m.rpos+n]
	m.rpos += n
	return w, nil
}

// count checks the element count a container header claims against the
// bytes left to decode it from: an element costs at least one byte on the
// wire, so a larger count is a lie, and nothing may be sized by it.
func (m *TMemoryBuffer) count(n uint64) (int, error) {
	if n > uint64(m.Len()) {
		return 0, fmt.Errorf("thrift: container of %d elements in %d bytes", n, m.Len())
	}
	return int(n), nil
}

// binaryField consumes an n-byte binary field and returns it as the
// buffer's ownership mode says.
func (m *TMemoryBuffer) binaryField(n int) ([]byte, error) {
	w, err := m.next(n)
	if err != nil || m.own == ownLent {
		return w, err
	}
	off := m.rpos - n - m.base
	if m.shared == nil || off < 0 || off+n > len(m.shared) {
		// The message's first binary field, or one outside the bytes the
		// copy holds (the buffer grew since). Every later field lies in
		// the bytes still unread, so one copy of them all holds each at
		// its own offset. make and copy of locals fuse into one
		// allocation that is written once, never zero-filled first.
		m.base, off = m.rpos-n, 0
		rest := m.buf[m.base:]
		cp := make([]byte, len(rest))
		copy(cp, rest)
		m.shared = cp
	}
	return m.shared[off : off+n : off+n], nil
}

// readStrings fills dst with the next len(dst) fields, each parsed by field
// as a window onto the buffer, and copies them all into one allocation. A
// first pass walks every length and has field check it against the bytes
// left, so a list fails with the error its element-by-element read would
// have failed with, before anything is sized by the lengths' sum; the
// second cuts each string from the one allocation, which a kept element
// therefore pins whole.
func (m *TMemoryBuffer) readStrings(dst []string, field func() ([]byte, error)) error {
	start, total := m.rpos, 0
	for range dst {
		b, err := field()
		if err != nil {
			return err
		}
		total += len(b)
	}
	m.rpos = start
	var all strings.Builder
	all.Grow(total) // the one allocation: no later Write grows it
	for i := range dst {
		b, _ := field() // the first pass accepted every length
		off := all.Len()
		all.Write(b)
		dst[i] = all.String()[off:]
	}
	return nil
}

// minBuf is the room a message begun in no buffer (not a staging region)
// starts with: a small message fits its first allocation.
const minBuf = 128

// extend lengthens the buffer by n bytes and returns them for the caller
// to fill. When it has to grow, the capacity at least doubles, so a run of
// small fields stays amortized, and is rounded up to the allocator's size
// class (slices.Grow appends), which is the room the few bytes behind a
// large field land in without moving it again.
func (m *TMemoryBuffer) extend(n int) []byte {
	end := len(m.buf) + n
	switch {
	case cap(m.buf) == 0:
		m.buf = make([]byte, 0, max(n, minBuf))
	case end > cap(m.buf):
		m.buf = slices.Grow(m.buf, max(n, 2*cap(m.buf)-len(m.buf)))
	}
	m.buf = m.buf[:end]
	return m.buf[end-n:]
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
	return copy(m.extend(len(p)), p), nil
}

// Flush is a no-op for memory buffers.
func (m *TMemoryBuffer) Flush() error { return nil }

// Close marks the buffer closed to Read and Write. The protocols, which
// bypass both, have nothing to close.
func (m *TMemoryBuffer) Close() error { m.closed = true; return nil }

// Bytes returns the unread portion of the buffer.
func (m *TMemoryBuffer) Bytes() []byte { return m.buf[m.rpos:] }

// Len returns the number of unread bytes.
func (m *TMemoryBuffer) Len() int { return len(m.buf) - m.rpos }

// Reset discards all contents.
func (m *TMemoryBuffer) Reset() { m.buf, m.rpos, m.shared = m.buf[:0], 0, nil }
