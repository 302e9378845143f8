package stripe

import (
	"net"
	"time"

	"stripe/internal/channel"
	"stripe/internal/netchan"
)

// LocalChannelConfig configures an in-process channel with realistic
// impairments, useful for demos and tests.
type LocalChannelConfig struct {
	// RateBps limits throughput (bits per second); zero is unlimited.
	RateBps float64
	// Delay is the propagation delay.
	Delay time.Duration
	// Jitter adds uniform random extra delay in [0, Jitter); FIFO order
	// is preserved regardless.
	Jitter time.Duration
	// Loss is the probability a packet is silently dropped.
	Loss float64
	// Seed makes the loss process reproducible.
	Seed int64
	// Collector, when non-nil, receives this channel's loss count and
	// transmit queue depth under channel index Index.
	Collector *Collector
	// Index is the channel's index within the stripe, for labeling the
	// Collector's per-channel metrics.
	Index int
}

// LocalChannel is a goroutine-driven in-process FIFO channel. The same
// value is used on both ends: Send on the transmit side, Out (or Recv)
// on the receive side.
type LocalChannel struct {
	live *channel.Live
}

// NewLocalChannel starts an in-process channel.
func NewLocalChannel(cfg LocalChannelConfig) *LocalChannel {
	return &LocalChannel{live: channel.NewLive(channel.LiveConfig{
		RateBps: cfg.RateBps,
		Delay:   cfg.Delay,
		Jitter:  cfg.Jitter,
		Impairments: channel.Impairments{
			Loss: cfg.Loss,
			Seed: cfg.Seed,
		},
		Obs:   cfg.Collector,
		Index: cfg.Index,
	})}
}

// Send implements ChannelSender.
func (l *LocalChannel) Send(p *Packet) error { return l.live.Send(p) }

// Recv implements ChannelReceiver without blocking.
func (l *LocalChannel) Recv() (*Packet, bool) { return l.live.Recv() }

// Out exposes the delivery stream for blocking consumption; it closes
// when the channel is closed.
func (l *LocalChannel) Out() <-chan *Packet { return l.live.Out() }

// Close stops the channel.
func (l *LocalChannel) Close() { l.live.Close() }

// UDPChannel is one striped channel over a loopback UDP socket pair —
// a channel with neither reliability nor flow control, the Section 6.3
// configuration. A datagram carries as many whole packets as fit an
// Ethernet MTU, so a lost datagram is a burst of losses on one channel.
type UDPChannel = netchan.UDPChannel

// NewUDPChannelPair returns connected send and receive ends over
// loopback UDP.
func NewUDPChannelPair() (send, recv *UDPChannel, err error) { return netchan.UDPPair() }

// TCPChannel is one striped channel over a TCP connection (reliable,
// flow controlled, FIFO) with length-prefixed framing — the "channel as
// a transport connection" case.
type TCPChannel = netchan.TCPChannel

// NewTCPChannel wraps an established connection as a striped channel.
func NewTCPChannel(conn net.Conn) *TCPChannel { return netchan.NewTCPChannel(conn) }

// NewTCPChannelPair returns both ends of a loopback TCP channel.
func NewTCPChannelPair() (*TCPChannel, *TCPChannel, error) { return netchan.TCPPair() }
