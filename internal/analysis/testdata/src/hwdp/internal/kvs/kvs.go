// Package kvs is a sharedstate analyzer fixture outside the device stack:
// a workload-side package whose exported operation reaches a
// package-level write and a host lock through a local helper.
package kvs

import "sync"

// ops is package state shared by every simulation in the process.
var ops uint64

var mu sync.Mutex

// Store is the fixture's per-simulation component.
type Store struct {
	gets uint64
}

// Get counts on the component: fine.
func (s *Store) Get() {
	s.gets++
}

// Put reaches the lock, the write and the unlock through count; each
// reports at the call out of Put.
func (s *Store) Put() {
	s.count() // want `model function kvs\.\(Store\)\.Put reaches state shared across simulations: kvs\.\(Store\)\.count \(kvs\.go:\d+\): sync\.Lock couples event outcomes to host-scheduler timing at kvs\.go:\d+` `write to package-level variable ops` `sync\.Unlock`
}

func (s *Store) count() {
	mu.Lock()
	ops++
	mu.Unlock()
}
