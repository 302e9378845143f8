package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TelemetryChannel is one channel's slice of a telemetry block: the
// receiver's cumulative view of the channel plus the most recent marker
// timestamp pair observed on it.
type TelemetryChannel struct {
	// Delivered is the cumulative count of data payload bytes the
	// resequencer has delivered in order on this channel.
	Delivered int64
	// Lost is the receiver's cumulative estimate of data payload bytes
	// lost on the channel, derived at each marker arrival from the
	// marker's authoritative Sent position minus the bytes that actually
	// arrived (channels are FIFO, so the difference is exact loss). It
	// counts silent loss the sender's own error streak never sees.
	Lost int64
	// Resyncs is the cumulative count of marker-driven resynchronization
	// events the receiver performed for this channel.
	Resyncs int64
	// MarkerTxNs is the sender-clock timestamp carried by the most
	// recent stamped marker received on the channel (MarkerBlock.TxNs).
	// Zero when no stamped marker has arrived yet.
	MarkerTxNs int64
	// MarkerRxNs is the receiver-clock arrival timestamp of that same
	// marker. The (tx, rx) pair is one one-way-delay sample; it embeds
	// the clock offset between the hosts, which is common to every
	// channel of the bundle, so cross-channel differences isolate the
	// per-channel delay.
	MarkerRxNs int64
}

// TelemetryBlock is the payload of a Telemetry packet: the receiver's
// periodic report of bundle health back to the sender, piggybacked on
// the marker cadence. All counters are cumulative, so a lost or
// reordered report is harmless — the next one supersedes it (reports
// are sequenced and the consumer applies only forward jumps).
type TelemetryBlock struct {
	// Seq is the receiver's monotone report sequence number.
	Seq uint64
	// AtNs is the receiver-clock timestamp when the report was cut.
	AtNs int64
	// Buffered is the resequencer's total buffered byte count at the cut.
	Buffered int64
	// MaxBuffered is the resequencer's configured occupancy cap (zero
	// means unbounded), so the sender can judge Buffered as a fraction.
	MaxBuffered int64
	// Channels is the per-channel view, indexed by the sender's channel
	// numbering (condition C2 makes the numbering shared).
	Channels []TelemetryChannel
}

// Telemetry wire format:
//
//	offset size  field
//	0      4     magic "STLM"
//	4      8     seq
//	12     8     atns (receiver clock, two's complement)
//	20     8     buffered
//	28     8     maxbuffered
//	36     1     n (channel count, at most TelemetryMaxChannels)
//	37     40*n  per-channel entries:
//	             {delivered, lost, resyncs, markertxns, markerrxns}
//	37+40n 4     CRC-32C (Castagnoli) over bytes [0, 37+40n)
//
// Variable-size (unlike markers) because the per-channel section scales
// with the universe, but still flat, fixed-stride, and checksummed: a
// corrupted report is dropped rather than poisoning the sender's view
// of the peer.
const (
	telemetryMagic = "STLM"
	// telemetryHdrLen is the fixed prefix before the per-channel entries.
	telemetryHdrLen = 37
	// telemetryChanLen is the stride of one per-channel entry.
	telemetryChanLen = 40
	// TelemetryMaxChannels bounds the per-channel section to the same
	// 64-slot universe dynamic membership uses.
	TelemetryMaxChannels = 64
)

// ErrBadTelemetry reports a structurally invalid telemetry block (an
// impossible channel count); distinct from ErrBadLength so fuzzers and
// callers can tell truncation from corruption that passed the length
// check.
var ErrBadTelemetry = errors.New("packet: telemetry channel count out of range")

// TelemetryWireLen returns the encoded size of a telemetry block
// carrying n per-channel entries.
func TelemetryWireLen(n int) int { return telemetryHdrLen + telemetryChanLen*n + 4 }

// Encode appends the wire representation of the block to dst and
// returns the extended slice. Blocks with more than TelemetryMaxChannels
// entries are truncated to the cap (construction never produces them).
func (t *TelemetryBlock) Encode(dst []byte) []byte {
	n := len(t.Channels)
	if n > TelemetryMaxChannels {
		n = TelemetryMaxChannels
	}
	off := len(dst)
	dst = append(dst, make([]byte, TelemetryWireLen(n))...)
	b := dst[off:]
	copy(b[0:4], telemetryMagic)
	binary.BigEndian.PutUint64(b[4:12], t.Seq)
	// All int64 fields travel in two's-complement wire form (like
	// MarkerBlock.Deficit); DecodeTelemetry inverts each cast exactly.
	binary.BigEndian.PutUint64(b[12:20], uint64(t.AtNs))        // two's-complement wire form
	binary.BigEndian.PutUint64(b[20:28], uint64(t.Buffered))    // two's-complement wire form
	binary.BigEndian.PutUint64(b[28:36], uint64(t.MaxBuffered)) // two's-complement wire form
	b[36] = byte(n)                                             // n is capped to TelemetryMaxChannels (64) above
	for i := 0; i < n; i++ {
		e := b[telemetryHdrLen+telemetryChanLen*i:]
		c := &t.Channels[i]
		binary.BigEndian.PutUint64(e[0:8], uint64(c.Delivered))    // two's-complement wire form
		binary.BigEndian.PutUint64(e[8:16], uint64(c.Lost))        // two's-complement wire form
		binary.BigEndian.PutUint64(e[16:24], uint64(c.Resyncs))    // two's-complement wire form
		binary.BigEndian.PutUint64(e[24:32], uint64(c.MarkerTxNs)) // two's-complement wire form
		binary.BigEndian.PutUint64(e[32:40], uint64(c.MarkerRxNs)) // two's-complement wire form
	}
	body := telemetryHdrLen + telemetryChanLen*n
	binary.BigEndian.PutUint32(b[body:body+4], ctrlCRC(b[:body]))
	return dst
}

// DecodeTelemetry parses a telemetry block from b.
func DecodeTelemetry(b []byte) (TelemetryBlock, error) {
	var t TelemetryBlock
	if len(b) < telemetryHdrLen+4 {
		return t, ErrBadLength
	}
	if string(b[0:4]) != telemetryMagic {
		return t, ErrBadMagic
	}
	n := int(b[36])
	if n > TelemetryMaxChannels {
		return t, ErrBadTelemetry
	}
	if len(b) < TelemetryWireLen(n) {
		return t, ErrBadLength
	}
	body := telemetryHdrLen + telemetryChanLen*n
	if ctrlCRC(b[:body]) != binary.BigEndian.Uint32(b[body:body+4]) {
		return t, ErrChecksum
	}
	t.Seq = binary.BigEndian.Uint64(b[4:12])
	// Each cast inverts Encode's two's-complement wire form exactly.
	t.AtNs = int64(binary.BigEndian.Uint64(b[12:20]))        // inverse of Encode's two's-complement form
	t.Buffered = int64(binary.BigEndian.Uint64(b[20:28]))    // inverse of Encode's two's-complement form
	t.MaxBuffered = int64(binary.BigEndian.Uint64(b[28:36])) // inverse of Encode's two's-complement form
	if n > 0 {
		t.Channels = make([]TelemetryChannel, n)
		for i := range t.Channels {
			e := b[telemetryHdrLen+telemetryChanLen*i:]
			c := &t.Channels[i]
			c.Delivered = int64(binary.BigEndian.Uint64(e[0:8]))    // inverse of Encode's two's-complement form
			c.Lost = int64(binary.BigEndian.Uint64(e[8:16]))        // inverse of Encode's two's-complement form
			c.Resyncs = int64(binary.BigEndian.Uint64(e[16:24]))    // inverse of Encode's two's-complement form
			c.MarkerTxNs = int64(binary.BigEndian.Uint64(e[24:32])) // inverse of Encode's two's-complement form
			c.MarkerRxNs = int64(binary.BigEndian.Uint64(e[32:40])) // inverse of Encode's two's-complement form
		}
	}
	return t, nil
}

// NewTelemetry builds a telemetry packet carrying the block, from the
// pool (a block past the packet's inline 64 bytes grows its own array).
func NewTelemetry(t TelemetryBlock) *Packet {
	p := Get()
	p.Kind = Telemetry
	p.Payload = t.Encode(p.Payload[:0])
	return p
}

// TelemetryOf extracts the telemetry block from a telemetry packet.
func TelemetryOf(p *Packet) (TelemetryBlock, error) {
	if p.Kind != Telemetry {
		return TelemetryBlock{}, fmt.Errorf("packet: TelemetryOf on %s packet", p.Kind)
	}
	return DecodeTelemetry(p.Payload)
}
