package engine

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzHdrCodec checks the wire-header codec against arbitrary bytes:
// decodeHdr must reject short or malformed buffers without panicking,
// and every accepted header must re-encode to the exact input bytes
// (the codec is bijective on its 28-byte domain — any lossy field would
// corrupt retransmitted or forwarded headers).
func FuzzHdrCodec(f *testing.F) {
	valid := make([]byte, hdrSize)
	putHdr(valid, hdr{kind: kReq, proto: DirectWriteIMM, respProto: EagerSendRecv,
		fn: 3, length: 512, seq: 99, off: 0, credits: 16})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, hdrSize-1))
	// b[3] and the trailing word are reserved: written zero, rejected otherwise.
	flagged := append([]byte(nil), valid...)
	flagged[3] = 1
	reserved := append([]byte(nil), valid...)
	reserved[hdrSize-4] = 7
	for _, b := range [][]byte{flagged, reserved} {
		if _, ok := decodeHdr(b); ok {
			f.Fatalf("accepted a header with a non-zero reserved byte: %x", b)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ok := decodeHdr(data)
		if !ok {
			if len(data) >= hdrSize && data[3] == 0 && binary.LittleEndian.Uint32(data[hdrSize-4:]) == 0 {
				t.Fatalf("rejected a well-formed %d-byte header", len(data))
			}
			return
		}
		out := make([]byte, hdrSize)
		putHdr(out, h)
		if !bytes.Equal(out, data[:hdrSize]) {
			t.Fatalf("decode/encode not bijective:\n in:  %x\n out: %x", data[:hdrSize], out)
		}
	})
}
