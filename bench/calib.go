package main

import "time"

// calibrator is a fixed piece of host work that owes nothing to the
// program under test: goroutine hand-offs over unbuffered channels (what
// the DES kernel does on every process switch) and a block copy (what the
// bulk path does). The sandbox this benchmark runs in changes speed by a
// quarter or more from one ten-second stretch to the next, which no
// amount of repeating averages out of a wall-clock rate. So the timed
// section is cut into slices, the calibrator runs before each slice, and
// a slice's rate is scaled by how slow the calibrator just ran against
// calRefSeconds. Drift cancels within each pair; the median over a few
// hundred pairs removes the rest. A faster simulator still shows in full:
// the calibrator does not run any of its code.
type calibrator struct {
	ping, pong chan struct{}
	src, dst   []byte
}

// calRefSeconds is one calibrator sample on the reference box (2 vCPU
// Xeon 2.1 GHz sandbox) at its typical speed: rates and set-up times are
// reported as that box would have measured them.
const calRefSeconds = 0.002

// calSlices is how many (calibrate, run) pairs one repeat's timed section
// is cut into.
const calSlices = 40

func newCalibrator() *calibrator {
	c := &calibrator{
		ping: make(chan struct{}), pong: make(chan struct{}),
		src: make([]byte, 1<<20), dst: make([]byte, 1<<20),
	}
	go func() {
		for range c.ping {
			c.pong <- struct{}{}
		}
	}()
	return c
}

// stop ends the calibrator's goroutine.
func (c *calibrator) stop() { close(c.ping) }

// sample runs the fixed work once and returns the host seconds it took.
func (c *calibrator) sample() float64 {
	t := time.Now()
	for i := 0; i < 4000; i++ {
		c.ping <- struct{}{}
		<-c.pong
	}
	for i := 0; i < 20; i++ {
		copy(c.dst, c.src)
	}
	return time.Since(t).Seconds()
}
