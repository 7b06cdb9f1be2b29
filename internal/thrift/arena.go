package thrift

import (
	"sync"

	"hatrpc/internal/hatdebug"
)

// Size-classed buffer arena: a binary field read over a plain memory
// buffer (NewTMemoryBufferWith) is a copy taken from here, and a reader
// that hands it back when done (PutBuffer) decodes with zero per-op heap
// allocations once the classes are warm. Generated stubs do not come
// through here (see Codec).
//
// Classes are powers of two from arenaMinClass to arenaMaxClass; larger
// requests fall back to plain make. The arena is process-global and
// mutex-guarded: package thrift is plain library code driven from many
// simulation harnesses, not a DES package. Returning a buffer is always
// optional — a dropped buffer is collected normally.
const (
	arenaMinClass = 64
	arenaMaxClass = 1 << 20
	arenaClassCap = 32 // free buffers retained per class
)

var bufArena struct {
	mu   sync.Mutex
	free map[int][][]byte
}

// arenaClass rounds n up to its size class.
func arenaClass(n int) int {
	c := arenaMinClass
	for c < n {
		c <<= 1
	}
	return c
}

// GetBuffer returns a length-n byte slice, reusing an arena buffer when
// the size class has stock. Contents are unspecified: callers overwrite
// the whole slice (readers fill it, writers truncate to 0 and append).
func GetBuffer(n int) []byte {
	if n < 0 {
		n = 0
	}
	if n > arenaMaxClass {
		return make([]byte, n)
	}
	cls := arenaClass(n)
	bufArena.mu.Lock()
	if free := bufArena.free[cls]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		bufArena.free[cls] = free[:len(free)-1]
		bufArena.mu.Unlock()
		return b[:n]
	}
	bufArena.mu.Unlock()
	return make([]byte, n, cls)
}

// PutBuffer recycles a buffer into its size class. Buffers whose
// capacity fits no class, and classes already at their retention cap,
// are dropped (GC'd as usual). The buffer must not be used after Put: a
// hatdebug build poisons it, and panics on a second Put while the arena
// still holds the buffer (hatdebug.Put).
func PutBuffer(b []byte) {
	if cap(b) < arenaMinClass || cap(b) > arenaMaxClass {
		return
	}
	cls := arenaMinClass
	for cls<<1 <= cap(b) {
		cls <<= 1
	}
	bufArena.mu.Lock()
	defer bufArena.mu.Unlock()
	if bufArena.free == nil {
		bufArena.free = make(map[int][][]byte)
	}
	hatdebug.Put(bufArena.free[cls], b)
	if len(bufArena.free[cls]) < arenaClassCap {
		bufArena.free[cls] = append(bufArena.free[cls], b[:cls])
	}
}
