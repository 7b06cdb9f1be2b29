// Package hatdebug is the payload buffer sanitizer. A build with
// `-tags hatdebug` turns it on: a buffer handed back to a node's byte
// arena (verbs.Device.Put: the engine's payloads, the copies packets take
// of a range the host claims before they land) is poisoned, and handing
// back one that the arena still holds panics (one the arena dropped, its
// class being full, is no longer on record, so a second put of it goes
// unnoticed); a window onto an engine connection's direct region is
// poisoned when its loan ends (DESIGN.md §18). Code that keeps bytes past
// their owner's say-so then reads the poison instead of plausible stale
// data. The NIC, which reads a posted payload where it lies, also keeps a
// copy of it at post and panics if the bytes it reads at landing differ:
// something wrote the range without verbs.MR.Claim. A plain build
// compiles every call here to nothing.
package hatdebug

// Poisoned is the byte a poisoned buffer is filled with.
const Poisoned = 0xDB

// Poison fills b with Poisoned when the sanitizer is on.
func Poison(b []byte) {
	if On {
		for i := range b {
			b[i] = Poisoned
		}
	}
}

// Put vets b on its way back into an arena, free being the arena's free
// list for b's class. The list is the only record of what the arena
// holds: b on it already is a second put without a get in between, and
// panics. A buffer the arena dropped because its class was at its cap is
// on no list, so a second put of that one is not caught. Otherwise b is
// poisoned to its capacity. A no-op when the sanitizer is off.
func Put(free [][]byte, b []byte) {
	if !On {
		return
	}
	b = b[:cap(b)]
	for _, f := range free {
		if &f[:1][0] == &b[0] {
			panic("hatdebug: buffer recycled twice")
		}
	}
	Poison(b)
}
