package dataplane

import "sync/atomic"

// RaceEnabled lets the external conformance tests skip allocation counting
// under -race.
const RaceEnabled = raceEnabled

// AbortBeforeDispatch makes the next dispatch kill the engine after its
// packets were sequenced (and, under sharding, ticketed) but before any
// mailbox send — the worst moment for the abort path.
func AbortBeforeDispatch[P any](s *Shell[P]) {
	s.testBeforeDispatch = func() { s.abortOnce.Do(func() { close(s.abort) }) }
}

// WedgeFirstRecv blocks the first mailbox receive of any worker until the
// engine aborts, so no packet behind it can complete: the no-progress
// condition the watchdog exists to detect.
func WedgeFirstRecv[P any](s *Shell[P]) {
	var wedged atomic.Bool
	s.testOnRecv = func() {
		if wedged.CompareAndSwap(false, true) {
			<-s.abort
		}
	}
}

// FreePackets counts the packets sitting on every free list of the engine.
func FreePackets[P any](s *Shell[P]) int {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	n := 0
	for _, f := range s.pools {
		n += f.len()
	}
	return n
}
