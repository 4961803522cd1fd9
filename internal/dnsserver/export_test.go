package dnsserver

import "time"

// SetLimits gives a server not yet listening a slow-path cap, a TCP
// connection cap and a TCP read timeout of the test's choosing.
func (s *Server) SetLimits(inFlight, tcpConns int, readTimeout time.Duration) {
	s.sem = make(chan struct{}, inFlight)
	s.tcpSem = make(chan struct{}, tcpConns)
	s.readTimeout = readTimeout
}

// ZoneCount returns the number of hosted zones, deferred ones included.
func (a *Authoritative) ZoneCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.zones) + len(a.deferred)
}
