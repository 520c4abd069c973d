// Package sim is a miniature of repro/internal/sim for the ctxescape
// fixture: the analyzer matches contexts by (package name, type name), so
// this stand-in exercises exactly the code paths the real package would.
package sim

// StepCtx mimics the engine's per-node context.
type StepCtx struct {
	ID int
}

// Sleep is a representative method.
func (c *StepCtx) Sleep() {}
