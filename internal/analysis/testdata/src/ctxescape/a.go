// Package ctxescape is the ctxescape analyzer's fixture.
package ctxescape

import "sim"

var leaked *sim.StepCtx // want "package-level leaked holds a .sim context"

var ctxCh = make(chan *sim.StepCtx)

type machine struct {
	c *sim.StepCtx
}

type registry struct {
	all []*sim.StepCtx
}

func construct(c *sim.StepCtx) *machine {
	return &machine{c: c} // ok: composite-literal construction is the pattern
}

func escapes(c *sim.StepCtx, m *machine, r *registry) {
	leaked = c   // want "stored into package-level leaked"
	ctxCh <- c   // want "sent over a channel"
	m.c = c      // want "re-aliased into field c after construction"
	r.all[0] = c // want "stored into a collection element"
	go func() {
		c.Sleep() // want "captured by a goroutine"
	}()
	go handle(c) // want "passed to a goroutine"
}

func collections(a, b *sim.StepCtx) {
	_ = []*sim.StepCtx{a, b} // want "collection of .sim contexts"
}

func handle(c *sim.StepCtx) {}

func legal(c *sim.StepCtx) {
	local := c // ok: locals within the node's own call tree
	local.Sleep()
	handle(c) // ok: plain call, same goroutine
	go func() {
		// ok: goroutine that touches no context
	}()
}
