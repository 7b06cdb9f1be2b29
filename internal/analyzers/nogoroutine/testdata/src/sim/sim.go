// Fixture: the sim kernel gets no exemption. A process switch built on
// goroutines and channels, as the kernel's was before it moved to
// coroutines, is reported like anywhere else; iter.Pull is fine.
package sim

import "iter"

type Proc struct {
	resume chan struct{}
	next   func() (struct{}, bool)
}

func (p *Proc) parkOnChannel() {
	p.resume = make(chan struct{})         // want `make\(chan\)`
	go func() { p.resume <- struct{}{} }() // want `go statement` `channel send`
	<-p.resume                             // want `channel receive`
}

func spawn(body func()) *Proc {
	p := &Proc{}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) { body() })
	return p
}
