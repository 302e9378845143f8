package stripenet

import (
	"fmt"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/netchan"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// FrameType is the link-layer demultiplexing codepoint. Striped traffic
// uses a distinct type, the paper's mechanism for telling striped
// packets and markers apart from ordinary traffic without touching the
// packets themselves.
type FrameType uint16

const (
	// TypeIP carries an ordinary IP packet.
	TypeIP FrameType = 0x0800
	// TypeARP carries an address-resolution request or reply — the
	// convergence-layer function the paper notes for multi-access
	// interfaces ("for Ethernet interfaces, the convergence layer
	// performs ARP").
	TypeARP FrameType = 0x0806
	// TypeStripe carries strIPe traffic: a netchan frame whose payload
	// is an unmodified IP packet, or a marker/credit/reset control
	// block.
	TypeStripe FrameType = 0x88B5
)

// LinkAddr is a 6-byte link-layer (MAC-style) address.
type LinkAddr [6]byte

// Broadcast is the all-stations link address.
var Broadcast = LinkAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-hex.
func (a LinkAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// macFor derives a deterministic locally administered link address from
// an interface's IP address.
func macFor(ip Addr) LinkAddr {
	return LinkAddr{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
}

// frameHeaderLen is the Ethernet-style link header: destination and
// source link addresses plus the type field.
const frameHeaderLen = 14

// stripeOverhead is the netchan framing inside a TypeStripe frame for
// unmodified data packets (kind + flags).
const stripeOverhead = 2

// NIC is one attachment of a host to a point-to-point link or a LAN.
type NIC struct {
	name string
	addr Addr
	mac  LinkAddr
	mtu  int
	host *Host

	rxq  *channel.Queue // receive queue; impairments applied on ingress
	peer *NIC           // point-to-point peer, if any
	lan  *LAN           // attached LAN, if any

	strIP *StripeIface
	idx   int // member index within the stripe interface, -1 otherwise

	bytesSent int64
}

// Name returns the interface name.
func (n *NIC) Name() string { return n.name }

// Addr returns the interface's IP address.
func (n *NIC) Addr() Addr { return n.addr }

// LinkAddress returns the interface's link-layer address.
func (n *NIC) LinkAddress() LinkAddr { return n.mac }

// MTU returns the interface MTU (maximum IP packet, excluding the link
// header).
func (n *NIC) MTU() int { return n.mtu }

// BytesSent returns the link bytes transmitted on this NIC, for
// load-sharing measurements.
func (n *NIC) BytesSent() int64 { return n.bytesSent }

// Connect wires two NICs with a duplex point-to-point link using the
// given impairment configuration in each direction.
func Connect(a, b *NIC, imp channel.Impairments) {
	impB := imp
	impB.Seed = imp.Seed + 1
	a.rxq = channel.NewQueue(impB) // b -> a direction
	b.rxq = channel.NewQueue(imp)  // a -> b direction
	a.peer = b
	b.peer = a
}

// LAN is a multi-access broadcast segment (an Ethernet): every attached
// NIC can reach every other, frames are delivered FIFO per receiver,
// and loss/corruption apply per receiving port.
type LAN struct {
	name  string
	imp   channel.Impairments
	ports []*NIC
}

// NewLAN creates an empty segment.
func NewLAN(name string, imp channel.Impairments) *LAN {
	return &LAN{name: name, imp: imp}
}

// Attach joins a NIC to the segment.
func (l *LAN) Attach(n *NIC) error {
	if n.peer != nil || n.lan != nil {
		return fmt.Errorf("stripenet: %s/%s already connected", n.host.name, n.name)
	}
	imp := l.imp
	imp.Seed = l.imp.Seed + int64(len(l.ports))
	n.rxq = channel.NewQueue(imp)
	n.lan = l
	l.ports = append(l.ports, n)
	return nil
}

// transmit delivers a frame to matching ports (unicast or broadcast).
func (l *LAN) transmit(src *NIC, dst LinkAddr, buf []byte) {
	for _, p := range l.ports {
		if p == src {
			continue
		}
		if dst == Broadcast || p.mac == dst {
			_ = p.rxq.Send(packet.NewData(buf))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Route is a routing table entry. Host routes (PrefixLen 32) override
// network routes by longest-prefix match — the mechanism the paper uses
// to divert traffic for the receiver's addresses into the strIPe
// interface.
type Route struct {
	Dst       Addr
	PrefixLen int
	Iface     string
	// Gateway, when non-zero, is the next-hop address whose link
	// address is resolved instead of the destination's (for forwarding
	// through routers).
	Gateway Addr
}

// pendingFrame is traffic queued while ARP resolves its next hop.
type pendingFrame struct {
	typ  FrameType
	body []byte
}

// Host is a minimal IP endpoint: interfaces, a routing table, ARP
// state, and a receive upcall.
type Host struct {
	name       string
	nics       map[string]*NIC
	stripes    map[string]*StripeIface
	routes     []Route
	recv       func(h Header, payload []byte)
	nextID     uint16
	drops      int64
	forwarding bool

	// Per-interface ARP caches and resolution queues.
	arp     map[string]map[Addr]LinkAddr
	pending map[string]map[Addr][]pendingFrame
}

// NewHost returns an empty host.
func NewHost(name string) *Host {
	return &Host{
		name:    name,
		nics:    make(map[string]*NIC),
		stripes: make(map[string]*StripeIface),
		arp:     make(map[string]map[Addr]LinkAddr),
		pending: make(map[string]map[Addr][]pendingFrame),
	}
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// AddNIC creates a physical interface.
func (h *Host) AddNIC(name string, addr Addr, mtu int) (*NIC, error) {
	if _, dup := h.nics[name]; dup {
		return nil, fmt.Errorf("stripenet: duplicate interface %q", name)
	}
	if mtu <= HeaderLen {
		return nil, fmt.Errorf("stripenet: MTU %d too small", mtu)
	}
	n := &NIC{name: name, addr: addr, mac: macFor(addr), mtu: mtu, host: h, idx: -1}
	h.nics[name] = n
	h.arp[name] = make(map[Addr]LinkAddr)
	h.pending[name] = make(map[Addr][]pendingFrame)
	return n, nil
}

// OnReceive installs the IP delivery upcall.
func (h *Host) OnReceive(fn func(hdr Header, payload []byte)) { h.recv = fn }

// AddRoute installs a route.
func (h *Host) AddRoute(dst Addr, prefixLen int, iface string) error {
	if prefixLen < 0 || prefixLen > 32 {
		return fmt.Errorf("stripenet: bad prefix length %d", prefixLen)
	}
	if _, ok := h.nics[iface]; !ok {
		if _, ok := h.stripes[iface]; !ok {
			return fmt.Errorf("stripenet: route references unknown interface %q", iface)
		}
	}
	h.routes = append(h.routes, Route{Dst: dst, PrefixLen: prefixLen, Iface: iface})
	return nil
}

// lookup returns the longest-prefix-match route for dst.
func (h *Host) lookup(dst Addr) (Route, bool) {
	best := -1
	var bestRoute Route
	d := dst.Uint32()
	for _, r := range h.routes {
		var mask uint32
		if r.PrefixLen > 0 {
			mask = ^uint32(0) << (32 - r.PrefixLen)
		}
		if r.Dst.Uint32()&mask == d&mask && r.PrefixLen > best {
			best = r.PrefixLen
			bestRoute = r
		}
	}
	return bestRoute, best >= 0
}

// NIC returns the named physical interface, or nil.
func (h *Host) NIC(name string) *NIC { return h.nics[name] }

// MTUOf returns the MTU of a named interface (physical or stripe).
func (h *Host) MTUOf(iface string) (int, error) {
	if n, ok := h.nics[iface]; ok {
		return n.mtu, nil
	}
	if s, ok := h.stripes[iface]; ok {
		return s.mtu, nil
	}
	return 0, fmt.Errorf("stripenet: unknown interface %q", iface)
}

// SendIP routes and transmits one IP packet. Striping is transparent:
// the caller only ever names a destination address.
func (h *Host) SendIP(src, dst Addr, proto uint8, payload []byte) error {
	r, ok := h.lookup(dst)
	if !ok {
		return ErrNoRoute
	}
	hdr := Header{TTL: 64, Proto: proto, ID: h.nextID, Src: src, Dst: dst}
	h.nextID++
	pkt := hdr.Encode(nil, payload)
	if s, ok := h.stripes[r.Iface]; ok {
		if len(pkt) > s.mtu {
			return ErrTooBig
		}
		return s.output(pkt)
	}
	n := h.nics[r.Iface]
	if len(pkt) > n.mtu {
		return ErrTooBig
	}
	nextHop := dst
	if r.Gateway != (Addr{}) {
		nextHop = r.Gateway
	}
	h.sendOn(n, nextHop, TypeIP, pkt)
	return nil
}

// sendOn transmits a frame toward the on-link IP address dstIP through
// NIC n, resolving the link address first (the convergence layer). On a
// LAN an unresolved address triggers an ARP exchange and the frame is
// queued until the reply arrives.
func (h *Host) sendOn(n *NIC, dstIP Addr, t FrameType, body []byte) {
	mac, ok := h.resolve(n, dstIP)
	if !ok {
		h.pending[n.name][dstIP] = append(h.pending[n.name][dstIP], pendingFrame{typ: t, body: body})
		h.sendARPRequest(n, dstIP)
		return
	}
	n.transmit(mac, t, body)
}

// resolve maps an on-link IP to a link address. Point-to-point links
// need no resolution.
func (h *Host) resolve(n *NIC, dstIP Addr) (LinkAddr, bool) {
	if n.peer != nil {
		return n.peer.mac, true
	}
	mac, ok := h.arp[n.name][dstIP]
	return mac, ok
}

// transmit puts a framed payload on the wire.
func (n *NIC) transmit(dst LinkAddr, t FrameType, body []byte) {
	buf := make([]byte, frameHeaderLen+len(body))
	copy(buf[0:6], dst[:])
	copy(buf[6:12], n.mac[:])
	buf[12] = byte(t >> 8)
	buf[13] = byte(t)
	copy(buf[frameHeaderLen:], body)
	n.bytesSent += int64(len(buf))
	switch {
	case n.peer != nil:
		_ = n.peer.rxq.Send(packet.NewData(buf))
	case n.lan != nil:
		n.lan.transmit(n, dst, buf)
	default:
		n.host.drops++
	}
}

// Poll advances the network until quiescent: it repeatedly drains every
// NIC's receive queue into its host. Hosts in the set are polled
// together so striped traffic flows end to end deterministically.
func Poll(hosts ...*Host) {
	for {
		moved := false
		for _, h := range hosts {
			for _, n := range h.nics {
				if n.rxq == nil {
					continue
				}
				for {
					p, ok := n.rxq.Recv()
					if !ok {
						break
					}
					moved = true
					n.receiveFrame(p.Payload)
				}
			}
		}
		if !moved {
			return
		}
	}
}

// receiveFrame demultiplexes an arriving link frame.
func (n *NIC) receiveFrame(buf []byte) {
	if len(buf) < frameHeaderLen {
		n.host.drops++
		return
	}
	var dst LinkAddr
	copy(dst[:], buf[0:6])
	if dst != Broadcast && dst != n.mac {
		return // not for us (shared segment)
	}
	t := FrameType(buf[12])<<8 | FrameType(buf[13])
	body := buf[frameHeaderLen:]
	switch t {
	case TypeIP:
		n.host.deliverIP(body)
	case TypeARP:
		n.host.handleARP(n, body)
	case TypeStripe:
		if n.strIP == nil {
			n.host.drops++
			return
		}
		p, err := netchan.DecodeFrame(body)
		if err != nil {
			n.host.drops++
			return
		}
		n.strIP.input(n.idx, p)
	default:
		n.host.drops++
	}
}

// deliverIP validates an IP packet, then delivers it locally or (for a
// forwarding host) routes it onward.
func (h *Host) deliverIP(pkt []byte) {
	hdr, payload, err := DecodeHeader(pkt)
	if err != nil {
		h.drops++
		return
	}
	if hdr.TTL == 0 {
		h.drops++
		return
	}
	if !h.localAddr(hdr.Dst) {
		if h.forwarding {
			h.forward(hdr, payload)
		} else {
			h.drops++
		}
		return
	}
	if h.recv != nil {
		h.recv(hdr, payload)
	}
}

// Drops returns the count of frames or packets the host discarded.
func (h *Host) Drops() int64 { return h.drops }

// StripeIface is the virtual IP interface of Section 6.1: a convergence
// layer that stripes whole IP packets over member NICs with SRR and
// reassembles the FIFO stream with logical reception.
type StripeIface struct {
	name    string
	host    *Host
	members []*NIC
	peers   []Addr // per-member peer IPs (zero Addr = point-to-point)
	mtu     int
	striper *core.Striper
	reseq   *core.Resequencer
}

// StripeConfig configures a strIPe interface.
type StripeConfig struct {
	// Members are the physical interfaces to stripe over.
	Members []string
	// Quanta are the SRR quanta, one per member, typically proportional
	// to link bandwidth and at least the interface MTU.
	Quanta []int64
	// Markers is the marker policy for resynchronization.
	Markers core.MarkerPolicy
	// Peers optionally names the remote end's IP address on each member
	// link, for members attached to multi-access LANs (the convergence
	// layer ARPs for them). Omit for point-to-point members.
	Peers []Addr
}

// memberSender adapts a NIC to channel.Sender for the striper: each
// striped packet travels as a TypeStripe frame to the member's peer. The
// frame is a copy, so a control packet goes back to the pool once encoded.
type memberSender struct {
	s   *StripeIface
	n   *NIC
	idx int
}

func (m memberSender) Send(p *packet.Packet) error {
	body := netchan.EncodeFrame(nil, p)
	if p.Kind != packet.Data {
		p.Release()
	}
	peer := m.s.peers[m.idx]
	if peer == (Addr{}) && m.n.peer == nil && m.n.lan != nil {
		// LAN member without a configured peer: broadcast (correct but
		// noisy; configure Peers for unicast).
		m.n.transmit(Broadcast, TypeStripe, body)
		return nil
	}
	m.s.host.sendOn(m.n, peer, TypeStripe, body)
	return nil
}

// AddStripeIface creates the virtual interface on the host. The
// interface MTU is the minimum member MTU less the stripe framing
// overhead.
func (h *Host) AddStripeIface(name string, cfg StripeConfig) (*StripeIface, error) {
	if _, dup := h.stripes[name]; dup {
		return nil, fmt.Errorf("stripenet: duplicate interface %q", name)
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("stripenet: stripe interface needs members")
	}
	if len(cfg.Quanta) != len(cfg.Members) {
		return nil, fmt.Errorf("stripenet: %d quanta for %d members", len(cfg.Quanta), len(cfg.Members))
	}
	if len(cfg.Peers) != 0 && len(cfg.Peers) != len(cfg.Members) {
		return nil, fmt.Errorf("stripenet: %d peers for %d members", len(cfg.Peers), len(cfg.Members))
	}
	s := &StripeIface{name: name, host: h}
	s.peers = make([]Addr, len(cfg.Members))
	copy(s.peers, cfg.Peers)
	mtu := 0
	for i, mn := range cfg.Members {
		n, ok := h.nics[mn]
		if !ok {
			return nil, fmt.Errorf("stripenet: unknown member %q", mn)
		}
		if n.strIP != nil {
			return nil, fmt.Errorf("stripenet: member %q already striped", mn)
		}
		n.strIP = s
		n.idx = i
		s.members = append(s.members, n)
		if mtu == 0 || n.mtu < mtu {
			mtu = n.mtu
		}
	}
	s.mtu = mtu - stripeOverhead
	senders := make([]channel.Sender, len(s.members))
	for i, n := range s.members {
		senders[i] = memberSender{s: s, n: n, idx: i}
	}
	striper, err := core.NewStriper(core.StriperConfig{
		Sched:    sched.MustSRR(cfg.Quanta),
		Channels: senders,
		Markers:  cfg.Markers,
	})
	if err != nil {
		return nil, err
	}
	reseq, err := core.NewResequencer(core.ResequencerConfig{
		Sched: sched.MustSRR(cfg.Quanta),
		Mode:  core.ModeLogical,
	})
	if err != nil {
		return nil, err
	}
	s.striper = striper
	s.reseq = reseq
	h.stripes[name] = s
	return s, nil
}

// MTU returns the interface MTU (minimum member MTU minus framing).
func (s *StripeIface) MTU() int { return s.mtu }

// output stripes one IP packet over the members.
func (s *StripeIface) output(ipPkt []byte) error {
	return s.striper.Send(packet.NewData(ipPkt))
}

// input accepts a striped frame from member index idx and delivers any
// packets the resequencer releases.
func (s *StripeIface) input(idx int, p *packet.Packet) {
	s.reseq.Arrive(idx, p)
	for {
		out, ok := s.reseq.Next()
		if !ok {
			return
		}
		s.host.deliverIP(out.Payload)
	}
}

// Stats exposes the receive-side resequencer counters.
func (s *StripeIface) Stats() core.ResequencerStats { return s.reseq.Stats() }
