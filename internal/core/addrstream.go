package core

import (
	"streamline/internal/mem"
	"streamline/internal/pattern"
)

// addrChunk is how many upcoming bit addresses an agent generates per
// refill. Big enough to amortize the refill, small enough that the buffer
// (2 KB) stays cache-resident next to the agent state.
const addrChunk = 256

// addrStream is a chunk-buffered view of one agent's position in the
// transmission pattern: at(i) returns the same address pat.Offset would,
// from a buffer pattern.FillAddrs refills once per addrChunk bits. Sender and
// receiver each own one stream per independent index sequence (transmit,
// trailing, receive), so the monotone per-stream indices make every refill
// a full-buffer hit window.
type addrStream struct {
	pat  pattern.Pattern
	base mem.Addr
	size int
	buf  []mem.Addr
	lo   int64 // bit index of buf[0]; -1 until the first refill
}

// newAddrStream builds a stream over buf, which must be addrChunk long
// (buildAgents carves all three streams' buffers out of one arena).
func newAddrStream(pat pattern.Pattern, arr mem.Region, buf []mem.Addr) addrStream {
	return addrStream{pat: pat, base: arr.Base, size: arr.Size,
		buf: buf, lo: -1}
}

// at returns the shared-array address of bit i.
//
//detlint:hotpath
func (s *addrStream) at(i int64) mem.Addr {
	d := i - s.lo
	if s.lo >= 0 && d >= 0 && d < int64(len(s.buf)) {
		return s.buf[d]
	}
	pattern.FillAddrs(s.pat, s.buf, s.base, uint64(i), s.size)
	s.lo = i
	return s.buf[0]
}
