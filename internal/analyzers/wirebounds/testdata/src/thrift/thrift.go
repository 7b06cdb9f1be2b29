// Fixture: bounds-checked wire decoding. The flagged cases are the
// codec read shapes with their length guards reverted — the pattern
// fuzz targets' truncated corpus entries catch dynamically.
package thrift

// decodeGuarded checks the buffer length before fixed-width reads.
func decodeGuarded(b []byte) uint16 {
	if len(b) < 2 {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

// decodeStaleShape: the short-circuit guard dominates both the second
// operand and the body.
func decodeStaleShape(b []byte) bool {
	if len(b) != 13 || b[0] != 5 {
		return false
	}
	return b[12] == 1
}

// decodeBare reads with no dominating check.
func decodeBare(b []byte) byte {
	return b[3] // want `access to b is not dominated by a bounds check`
}

// sliceBare slices with no check.
func sliceBare(b []byte) []byte {
	return b[4:8] // want `access to b is not dominated by a bounds check`
}

// hintGuarded uses the stdlib bounds-hint idiom: the hint panics early
// and guards the rest.
func hintGuarded(b []byte) byte {
	_ = b[7]
	return b[6]
}

// rangeGuarded: the range header bounds the loop variable.
func rangeGuarded(b []byte) int {
	n := 0
	for i := range b {
		n += int(b[i])
	}
	return n
}

// loopGuarded: the loop condition mentions len(b).
func loopGuarded(b []byte) int {
	n := 0
	for i := 0; i < len(b); i++ {
		n += int(b[i])
	}
	return n
}

// wrongOrder accesses before the check runs.
func wrongOrder(b []byte) byte {
	x := b[0] // want `access to b is not dominated by a bounds check`
	if len(b) < 2 {
		return 0
	}
	return x + b[1]
}

// oneBranchGuard: the guard covers only one path to the access.
func oneBranchGuard(b []byte, ok bool) byte {
	if ok {
		if len(b) < 1 {
			return 0
		}
	}
	return b[0] // want `access to b is not dominated by a bounds check`
}

// localDerived: locally built slices are not monitored (parameters
// only).
func localDerived(n int) byte {
	buf := make([]byte, n)
	return buf[0]
}

// fullSlice reads no element. No diagnostic.
func fullSlice(b []byte) []byte {
	return b[:]
}
