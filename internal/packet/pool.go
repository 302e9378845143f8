// Pooled packets: the free-list behind the zero-allocation batched
// hot path. Steady-state striping moves millions of packets per second
// through Send/Arrive/Next; allocating a fresh Packet (and payload
// backing array) per call makes the garbage collector a bandwidth tax.
// The pool recycles both together — a released packet keeps its payload
// capacity, so a traffic mix with a stable size distribution reaches a
// steady state where Get/Release allocate nothing at all.
//
// Lifetime rules (see also the package stripe doc.go walkthrough):
//
//   - Get/GetSized hand the caller exclusive ownership of the packet
//     AND its payload backing array.
//   - Release returns both to the pool. After Release the caller must
//     not touch the packet or any slice of its payload — the next Get
//     anywhere in the process may reuse them.
//   - Release is optional. A packet that is never released is simply
//     garbage collected; correctness never depends on the pool.
//   - Never Release a packet whose payload aliases memory you intend
//     to keep (for example one built with NewData around an
//     application buffer): Release donates the backing array to the
//     pool, and a later GetSized would hand it to a stranger.
package packet

import "sync"

// pool recycles packets together with their payload backing arrays.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed packet from the pool. Its payload has length
// zero but retains whatever capacity its previous life accumulated;
// extend it with append or take a sized one with GetSized.
func Get() *Packet {
	return pool.Get().(*Packet)
}

// GetSized returns a pooled Data packet whose payload has length n,
// reusing the pooled backing array when its capacity allows. The
// payload contents are unspecified (they are whatever the previous
// owner left); callers that need zeroed memory should use NewDataSized
// instead.
func GetSized(n int) *Packet {
	p := pool.Get().(*Packet)
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
// of its payload may be retained. Releasing is always optional; skip it
// and the packet is ordinary garbage.
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
