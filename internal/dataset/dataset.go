// Package dataset implements the data-collection pipeline of §4 of the
// paper: benign traffic generation across a diverse device fleet (the
// COLOSSEUM-scale substitute, see DESIGN.md §1), attack-scenario
// injection for the five attacks, and ground-truth labeling per the
// paper's rules. The telemetry is what the gNB agent extracts live.
package dataset

import (
	"sync"
	"time"
)

// VClock is a virtual clock shared by the generator, the gNB, and the
// UEs, making generated datasets fully deterministic.
type VClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewVClock starts a virtual clock at start.
func NewVClock(start time.Time) *VClock {
	return &VClock{t: start}
}

// Now returns the current virtual time.
func (c *VClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward.
func (c *VClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
