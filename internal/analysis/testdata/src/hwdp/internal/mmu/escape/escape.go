// Package escape is a sharedstate analyzer fixture: a device-stack model
// package (under mmu/) whose functions reach host-global state through a
// helper package.
package escape

import "hwdp/internal/counters"

// Walker is the fixture's model component.
type Walker struct {
	hits uint64
}

// CountMiss reaches a package-level write one call away.
func (w *Walker) CountMiss() {
	counters.Bump(1) // want `model function mmu/escape\.\(Walker\)\.CountMiss reaches state shared across simulations: counters\.Bump \(escape\.go:\d+\): write to package-level variable Total \(shared by every simulation in the process\) at counters\.go:\d+`
}

// LockedCount reaches host synchronization two calls away; the lock, the
// write, and the unlock each report at the first hop out of the root.
func (w *Walker) LockedCount() {
	w.tally() // want `model function mmu/escape\.\(Walker\)\.LockedCount reaches state shared across simulations: mmu/escape\.\(Walker\)\.tally \(escape\.go:\d+\) -> counters\.Locked \(escape\.go:\d+\): sync\.Lock couples event outcomes to host-scheduler timing at counters\.go:\d+` `write to package-level variable Total` `sync\.Unlock couples event outcomes to host-scheduler timing`
}

func (w *Walker) tally() {
	counters.Locked(1)
}

// Detach hands a callback to a helper that launches a goroutine.
func (w *Walker) Detach(fn func()) {
	counters.Spawn(fn) // want `model function mmu/escape\.\(Walker\)\.Detach reaches state shared across simulations: counters\.Spawn \(escape\.go:\d+\): go statement starts a host-scheduled goroutine at counters\.go:\d+`
}
