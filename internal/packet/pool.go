// Pooled packets: the free-list behind the zero-allocation batched
// hot path. Steady-state striping moves millions of packets per second
// through Send/Arrive/Next; allocating a fresh Packet (and payload
// backing array) per call makes the garbage collector a bandwidth tax.
// The pool recycles both together — a released packet keeps the payload
// array it holds, so a traffic mix with a stable size distribution
// reaches a steady state where Get/Release allocate nothing at all.
//
// A packet for a small payload is one object: the Packet and inlineLen
// bytes of payload, allocated together. A payload that fits — every
// fixed-size control block, and small data — lies on the cache lines
// after the header, so a packet that has stood in a resequencer queue
// costs one miss to touch, not two. For a payload that cannot fit, the
// block would be dead weight behind every header in that queue (it cost
// a flood of 200–1400 B packets several percent of its goodput:
// EXPERIMENTS.md, PR 21), so a packet born for one is the header alone
// and its payload an array of its own. The shape
// is fixed at birth, from the size first asked for (alloc); after that a
// packet keeps whichever array it holds across Release, and an inline
// packet whose payload outgrows the block (GetSized, append) is given an
// array like any other.
//
// Lifetime rules (see also the package stripe doc.go walkthrough):
//
//   - Get/GetSized hand the caller exclusive ownership of the packet
//     AND its payload backing array.
//   - Release returns both to the pool. After Release the caller must
//     not touch the packet or any slice of its payload — the next Get
//     anywhere in the process may reuse them.
//   - Control packets (every Kind but Data) are the protocol's. The
//     constructors here (NewMarker, NewCredit, NewMember, NewTelemetry)
//     and the socket decoder draw them from the pool, and whoever
//     consumes one releases it: a channel owns the ones it accepts and
//     releases each once its record is copied out (or carries the pointer
//     to the peer), the resequencer releases one once it has given it a
//     fate, and the striper releases only what a channel refused. Nobody
//     else may hold a control packet past the call that handed it over.
//   - For data packets Release stays optional. One that is never
//     released is simply garbage collected; correctness never depends on
//     the pool, and the engines never release a data packet.
//   - Never Release a packet whose payload aliases memory you intend
//     to keep (for example one built with NewData around an
//     application buffer): Release donates the backing array to the
//     pool, and a later GetSized would hand it to a stranger.
package packet

import "sync"

// inlineLen is the payload an inline packet carries in its own
// allocation: MarkerWireLen, the largest fixed-size control block,
// rounded up to a cache line.
const inlineLen = 64

// pool recycles packets together with their payload backing arrays. It
// has no New: a miss returns nil and the caller allocates, because only
// the caller knows how large the payload is going to be.
var pool sync.Pool

// alloc is a pool miss: a new packet about to carry n payload bytes.
// Up to inlineLen they ride in the packet's own allocation; past it the
// packet is the header alone, and the caller makes the array.
func alloc(n int) *Packet {
	if n > inlineLen {
		return new(Packet)
	}
	c := new(struct {
		Packet
		block [inlineLen]byte
	})
	c.Payload = c.block[:0]
	return &c.Packet
}

// Get returns a zeroed packet from the pool. Its payload has length
// zero and the capacity of the array it holds — inlineLen bytes when
// fresh, or whatever a previous life left it; extend it with append or
// take a sized one with GetSized.
func Get() *Packet {
	if p, ok := pool.Get().(*Packet); ok {
		return p
	}
	return alloc(0)
}

// GetSized returns a pooled Data packet whose payload has length n,
// reusing the pooled backing array when its capacity allows. The
// payload contents are unspecified (they are whatever the previous
// owner left); callers that need zeroed memory should use NewDataSized
// instead.
func GetSized(n int) *Packet {
	p, ok := pool.Get().(*Packet)
	if !ok {
		p = alloc(n)
	}
	p.Kind = Data
	if cap(p.Payload) < n {
		p.Payload = make([]byte, n)
	} else {
		p.Payload = p.Payload[:n]
	}
	return p
}

// Release resets the packet and returns it — payload backing array
// included — to the pool. The caller must hold the only reference: the
// packet must already have been delivered (or never sent) and no slice
// of its payload may be retained. Releasing a data packet is always
// optional; skip it and the packet is ordinary garbage.
//
//stripe:allowescape sync.Pool.Put is a per-P store that takes no lock on its fast path, and the engines call it per control packet, never per data packet
func (p *Packet) Release() {
	p.reset()
	pool.Put(p)
}

// reset clears the packet for its next life, keeping the payload
// backing array.
func (p *Packet) reset() {
	buf := p.Payload
	if buf != nil {
		buf = buf[:0]
	}
	*p = Packet{Payload: buf}
}
