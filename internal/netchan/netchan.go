// Package netchan carries striped channels over real sockets, the way
// the paper's Section 6.3 experiments striped packets across multiple
// application sockets. A TCP connection is a FIFO channel with flow
// control; a UDP socket pair is a channel with neither reliability nor
// flow control (the configuration the credit-based scheme was added
// for).
//
// The framing plays the role of the data link header: a one-byte
// codepoint distinguishes control packets (markers, credits, resets,
// membership, telemetry) from data
// (the paper's requirement that the lower layer provide demultiplexing
// for markers), a flag byte and optional sequence number support the
// "with header" protocol variants, and the data payload is carried
// verbatim.
package netchan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"stripe/internal/packet"
)

// MaxFrame is the largest accepted frame payload; larger frames are
// rejected as corrupt rather than allocated.
const MaxFrame = 1 << 24

// Frame header layout:
//
//	0    1  codepoint (packet.Kind)
//	1    1  flags (bit 0: sequence number present)
//	2    8  sequence number (present only when flagged)
//	...     payload
const (
	flagSeq  = 0x01
	hdrBase  = 2
	hdrSeq   = 8
	recordLn = 4 // TCP length prefix
)

// ErrFrameTooShort is returned when a frame cannot hold its own header.
var ErrFrameTooShort = errors.New("netchan: frame too short")

// ErrFrameTooBig is returned when a record length exceeds MaxFrame.
var ErrFrameTooBig = errors.New("netchan: frame exceeds MaxFrame")

// ErrBadCodepoint is returned for an unknown packet kind.
var ErrBadCodepoint = errors.New("netchan: unknown frame codepoint")

// ErrBadFlags is returned when reserved flag bits are set.
var ErrBadFlags = errors.New("netchan: reserved flag bits set")

// EncodeFrame serialises p into the channel framing, appending to dst.
func EncodeFrame(dst []byte, p *packet.Packet) []byte {
	var flags byte
	if p.HasSeq {
		flags |= flagSeq
	}
	dst = append(dst, byte(p.Kind), flags)
	if p.HasSeq {
		var seq [8]byte
		binary.BigEndian.PutUint64(seq[:], p.Seq)
		dst = append(dst, seq[:]...)
	}
	return append(dst, p.Payload...)
}

// DecodeFrame parses a frame back into a packet. The payload is copied
// out of b — never aliased — so the caller may reuse (or overwrite) the
// buffer immediately; that copy is what lets the channels below read
// every record into one channel-owned buffer. The packet comes from the
// packet pool, whatever its kind. A control packet is the protocol's:
// the resequencer releases it as it consumes it, so whoever reads one
// off a channel hands it to Arrive and keeps no reference. A data packet
// is the application's once delivered; handing it back with
// Packet.Release (retaining no slice of its payload) is optional and is
// what makes the steady-state receive path allocation-free.
func DecodeFrame(b []byte) (*packet.Packet, error) {
	if len(b) < hdrBase {
		return nil, ErrFrameTooShort
	}
	if b[0] > byte(packet.Telemetry) {
		return nil, ErrBadCodepoint
	}
	flags := b[1]
	if flags&^flagSeq != 0 {
		return nil, ErrBadFlags
	}
	kind := packet.Kind(b[0])
	b = b[hdrBase:]
	var seq uint64
	if flags&flagSeq != 0 {
		if len(b) < hdrSeq {
			return nil, ErrFrameTooShort
		}
		seq = binary.BigEndian.Uint64(b[:hdrSeq])
		b = b[hdrSeq:]
	}
	// Sized, so that a pool miss allocates the shape this payload wants.
	p := packet.GetSized(len(b))
	p.Kind, p.Seq, p.HasSeq = kind, seq, flags&flagSeq != 0
	copy(p.Payload, b)
	return p, nil
}

// A record is the unit both transports put on the wire: recordLn bytes
// of big-endian length, then that many bytes of frame (EncodeFrame's). A
// TCP connection is a stream of records; a UDP datagram is a sequence of
// whole records. recordHeader and splitRecord are the one encoder and
// the one parser of that layout.

// maxRecordHdr is the longest record header: length prefix, frame
// header, sequence number.
const maxRecordHdr = recordLn + hdrBase + hdrSeq

// recordHeader builds in h everything of p's record that precedes the
// payload — the length prefix and the frame header — and returns the
// bytes used. The payload follows verbatim, so a writer copies it once,
// from where it lies, into its own buffer, and nothing allocates.
func recordHeader(h *[maxRecordHdr]byte, p *packet.Packet) ([]byte, error) {
	hdr := h[:recordLn+hdrBase]
	hdr[recordLn], hdr[recordLn+1] = byte(p.Kind), 0
	if p.HasSeq {
		hdr = h[:]
		hdr[recordLn+1] = flagSeq
		binary.BigEndian.PutUint64(hdr[recordLn+hdrBase:], p.Seq)
	}
	n := len(hdr) - recordLn + len(p.Payload)
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(hdr, uint32(n))
	return hdr, nil
}

// recordLen decodes a record's length prefix, rejecting lengths no
// writer produces.
func recordLen(prefix []byte) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxFrame {
		return 0, ErrFrameTooBig
	}
	return int(n), nil
}

// splitRecord cuts the first record off b, which holds whole records
// (a datagram): it returns the record's frame and the records after it.
// A prefix that does not fit, or a length running past the end of b,
// means the rest of b cannot be trusted.
func splitRecord(b []byte) (frame, rest []byte, err error) {
	if len(b) < recordLn {
		return nil, nil, ErrFrameTooShort
	}
	n, err := recordLen(b)
	if err != nil {
		return nil, nil, err
	}
	if n > len(b)-recordLn {
		return nil, nil, fmt.Errorf("netchan: truncated record: length %d, %d bytes left in datagram", n, len(b)-recordLn)
	}
	return b[recordLn : recordLn+n], b[recordLn+n:], nil
}

// accepted takes a packet whose record is copied: a control packet is
// the channel's, so it goes back to the pool (channel.Sender).
func accepted(p *packet.Packet) {
	if p.Kind != packet.Data {
		p.Release()
	}
}

// udpBudget is the datagram size Buffer fills up to before it writes:
// an Ethernet MTU less the IPv4 and UDP headers, so a datagram of
// several records still crosses a real link unfragmented. A record
// larger than the budget travels alone.
const udpBudget = 1500 - 20 - 8

// UDPChannel is one striped channel over a pair of connected UDP
// sockets. A datagram carries a sequence of whole records — the same
// bytes TCPChannel writes — so a service run of small packets and the
// marker behind it cross the kernel once. The send side implements
// channel.BufferedSender; the receive side blocks in ReadPacket. A lost
// datagram is a burst of consecutive losses on one channel, and loopback
// UDP is FIFO in practice with occasional deviations: both fall under
// the paper's burst-error model and are exactly what the marker protocol
// recovers from.
type UDPChannel struct {
	conn net.Conn
	whdr [maxRecordHdr]byte // record header under construction (Buffer)
	wbuf []byte             // the datagram being filled; written by Flush

	rbuf      []byte // the last datagram read
	rest      []byte // its records not yet returned; aliases rbuf
	deadlined bool   // conn carries a non-zero read deadline
}

// UDPPair creates a connected loopback socket pair and returns the two
// channel ends.
func UDPPair() (send *UDPChannel, recv *UDPChannel, err error) {
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	// A connected sender socket needs no per-write address and lets the
	// kernel filter stray datagrams.
	ac, err := net.DialUDP("udp", nil, b.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	return newUDPChannel(ac), newUDPChannel(b), nil
}

func newUDPChannel(conn net.Conn) *UDPChannel {
	return &UDPChannel{
		conn: conn,
		wbuf: make([]byte, 0, udpBudget),
		rbuf: make([]byte, 64*1024), // no UDP datagram is larger
	}
}

// bufferRecord appends p's record to the pending datagram, first
// writing the datagram out when the record would take it past udpBudget:
// records are never split, so every datagram parses on its own.
func (u *UDPChannel) bufferRecord(p *packet.Packet) error {
	hdr, err := recordHeader(&u.whdr, p)
	if err != nil {
		return err
	}
	if len(u.wbuf) > 0 && len(u.wbuf)+len(hdr)+len(p.Payload) > udpBudget {
		if err := u.Flush(); err != nil {
			return err
		}
	}
	u.wbuf = append(append(u.wbuf, hdr...), p.Payload...)
	return nil
}

// Send implements channel.Sender: one record, written at once (behind
// whatever an earlier Buffer left pending); p is the channel's once the
// write succeeds.
func (u *UDPChannel) Send(p *packet.Packet) error {
	if err := u.bufferRecord(p); err != nil {
		return err
	}
	if err := u.Flush(); err != nil {
		return err
	}
	accepted(p)
	return nil
}

// Buffer implements channel.BufferedSender: consecutive Buffer calls
// share a datagram until it fills or the caller's Flush comes. n <
// len(pkts) when pkts[n] could not be encoded, or the datagram that had
// to make room for it could not be written (its records stay counted as
// accepted, like any datagram the network loses).
func (u *UDPChannel) Buffer(pkts []*packet.Packet) (int, error) {
	for i, p := range pkts {
		if err := u.bufferRecord(p); err != nil {
			return i, err
		}
		accepted(p)
	}
	return len(pkts), nil
}

// Flush implements channel.BufferedSender: one write for the pending
// datagram (none when nothing is pending). The datagram is gone either
// way — after a failure its records are an accepted-but-lost tail.
func (u *UDPChannel) Flush() error {
	if len(u.wbuf) == 0 {
		return nil
	}
	_, err := u.conn.Write(u.wbuf)
	u.wbuf = u.wbuf[:0]
	return err
}

// SendBatch implements channel.BatchSender as Buffer then Flush, exactly
// as TCPChannel does: a direct caller's batch costs one datagram per
// udpBudget bytes and nothing is left pending when it returns.
func (u *UDPChannel) SendBatch(pkts []*packet.Packet) (int, error) {
	n, err := u.Buffer(pkts)
	if ferr := u.Flush(); ferr != nil {
		return n, ferr
	}
	return n, err
}

// ReadPacket blocks for up to timeout (zero means forever) and returns
// the next packet. A timeout returns (nil, nil) so pollers can
// distinguish idleness from failure. The records of a datagram are
// served one call at a time without touching the socket, and the read
// deadline is armed (or cleared, if one is set) only by a call that is
// about to read the next datagram. A datagram whose record lengths do
// not add up is reported once and dropped whole; the next call reads the
// next datagram.
func (u *UDPChannel) ReadPacket(timeout time.Duration) (*packet.Packet, error) {
	if len(u.rest) == 0 {
		if err := armRead(u.conn, timeout, &u.deadlined); err != nil {
			return nil, err
		}
		n, err := u.conn.Read(u.rbuf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil, nil
			}
			return nil, err
		}
		u.rest = u.rbuf[:n]
	}
	frame, rest, err := splitRecord(u.rest)
	u.rest = rest
	if err != nil {
		return nil, err
	}
	return DecodeFrame(frame)
}

// Close releases the socket.
func (u *UDPChannel) Close() error { return u.conn.Close() }

// LocalAddr exposes the bound address (tests and demos print it).
func (u *UDPChannel) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// TCPChannel is one striped channel over a TCP connection with
// length-prefixed records. TCP supplies FIFO order, reliability and
// flow control; it models the paper's "channel as a transport
// connection" case (striping across multiple intelligent adaptors).
type TCPChannel struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	whdr [maxRecordHdr]byte // record header under construction (writeFrame)

	// deadlined records that conn carries a non-zero read deadline, so a
	// ReadPacket without timeout knows whether there is one to clear.
	deadlined bool

	// In-flight read state, persisted across ReadPacket calls so a read
	// deadline can fire at any byte position without desyncing the
	// record stream: however much of the current record has been
	// consumed stays here, and the next call resumes where this one
	// stopped.
	rlen     [recordLn]byte // partially read length prefix
	rlenN    int            // bytes of rlen consumed so far
	rbody    []byte         // channel-owned record buffer, reused every read
	rbodyN   int            // bytes of the current record consumed so far
	rbodyLen int            // current record length; -1 while reading the prefix
}

// NewTCPChannel wraps an established connection.
func NewTCPChannel(conn net.Conn) *TCPChannel {
	return &TCPChannel{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64*1024),
		br:       bufio.NewReaderSize(conn, 64*1024),
		rbodyLen: -1,
	}
}

// TCPPair returns both ends of a loopback TCP connection.
func TCPPair() (*TCPChannel, *TCPChannel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	//stripe:allowleak bounded: Accept returns once the deferred ln.Close runs on every exit path, and the buffered send then completes
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		dial.Close()
		return nil, nil, acc.err
	}
	return NewTCPChannel(dial), NewTCPChannel(acc.c), nil
}

// writeFrame buffers p's length-prefixed record without flushing.
// Nothing is staged: the header is built in the channel's own array and
// the payload is written from where it lies, so the only copy is the one
// into the bufio.Writer, and nothing allocates.
func (t *TCPChannel) writeFrame(p *packet.Packet) error {
	hdr, err := recordHeader(&t.whdr, p)
	if err != nil {
		return err
	}
	if _, err := t.bw.Write(hdr); err != nil {
		return err
	}
	_, err = t.bw.Write(p.Payload)
	return err
}

// Send implements channel.Sender: the frame is written as one record
// and flushed, preserving packet boundaries over the byte stream; p is
// the channel's once the flush succeeds.
func (t *TCPChannel) Send(p *packet.Packet) error {
	if err := t.writeFrame(p); err != nil {
		return err
	}
	if err := t.bw.Flush(); err != nil {
		return err
	}
	accepted(p)
	return nil
}

// Buffer implements channel.BufferedSender: every record is appended to
// the channel's write buffer and none is flushed (the buffer writes
// itself out only when it fills), so consecutive Buffer calls share one
// write syscall — whenever the caller's Flush comes. n < len(pkts) only
// when pkts[n] could not be encoded or made room for; the records before
// it are buffered whole, so a refusal never desyncs the stream.
func (t *TCPChannel) Buffer(pkts []*packet.Packet) (int, error) {
	for i, p := range pkts {
		if err := t.writeFrame(p); err != nil {
			return i, err
		}
		accepted(p)
	}
	return len(pkts), nil
}

// Flush implements channel.BufferedSender: one write syscall for
// everything buffered (none when nothing is). A failure leaves delivery
// of the buffered records uncertain; they stay counted as accepted
// (indistinguishable from wire loss, which the striping protocol
// already recovers from).
func (t *TCPChannel) Flush() error { return t.bw.Flush() }

// SendBatch implements channel.BatchSender as Buffer then Flush, so a
// direct caller's batch costs one write syscall instead of one per
// packet and nothing is left buffered when it returns. The flush
// happens even when Buffer refused a packet, pushing out the complete
// records before it; a flush failure takes precedence over the refusal.
func (t *TCPChannel) SendBatch(pkts []*packet.Packet) (int, error) {
	n, err := t.Buffer(pkts)
	if ferr := t.Flush(); ferr != nil {
		return n, ferr
	}
	return n, err
}

// read is br.Read behind the lazy-deadline rule: the read deadline is
// touched only when the read is about to reach the socket (the
// bufio.Reader is empty) and at most once per ReadPacket (*armed),
// because SetReadDeadline costs a runtime timer update whether or not
// the read would ever have waited. A record served from the buffer
// never touches conn, so whatever deadline an earlier call left there —
// long expired, perhaps — cannot fire on it; and the next read that
// does reach the socket re-arms (or clears) first. Clearing is skipped
// when no deadline is set.
func (t *TCPChannel) read(b []byte, timeout time.Duration, armed *bool) (int, error) {
	if !*armed && t.br.Buffered() == 0 {
		*armed = true
		if err := armRead(t.conn, timeout, &t.deadlined); err != nil {
			return 0, err
		}
	}
	return t.br.Read(b)
}

// armRead prepares conn's read deadline for a read that is about to
// reach the socket: armed timeout from now, or — for a wait that is to
// last forever — cleared, which is skipped when *deadlined says none is
// set.
func armRead(conn net.Conn, timeout time.Duration, deadlined *bool) error {
	if timeout > 0 {
		*deadlined = true
		return conn.SetReadDeadline(time.Now().Add(timeout))
	}
	if !*deadlined {
		return nil
	}
	*deadlined = false
	return conn.SetReadDeadline(time.Time{})
}

// ReadPacket blocks for up to timeout (zero means forever) and returns
// the next packet; a timeout returns (nil, nil). The timeout bounds the
// wait on the socket, starting at the call's first read that reaches it
// (see read); a record already buffered is returned without a wait.
//
// A deadline may fire at any byte position — half-way through the
// 4-byte length prefix, or mid-record — without corrupting the stream:
// the partial state is persisted on the channel and the next call
// resumes the same record where this one stopped. (The previous
// implementation discarded a partial prefix on timeout and reported a
// mid-record timeout as a permanent truncation; either desynced every
// subsequent frame on the connection.) A non-timeout error mid-record
// (connection torn down) is reported as a truncated record.
func (t *TCPChannel) ReadPacket(timeout time.Duration) (*packet.Packet, error) {
	armed := false
	if t.rbodyLen < 0 {
		for t.rlenN < recordLn {
			m, err := t.read(t.rlen[t.rlenN:], timeout, &armed)
			t.rlenN += m
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					return nil, nil // prefix bytes so far stay in rlen
				}
				return nil, err
			}
		}
		n, err := recordLen(t.rlen[:])
		t.rlenN = 0
		if err != nil {
			return nil, err
		}
		t.rbodyLen = n
		t.rbodyN = 0
		if cap(t.rbody) < t.rbodyLen {
			t.rbody = make([]byte, t.rbodyLen)
		}
	}
	body := t.rbody[:t.rbodyLen]
	for t.rbodyN < t.rbodyLen {
		m, err := t.read(body[t.rbodyN:], timeout, &armed)
		t.rbodyN += m
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil, nil // record bytes so far stay in rbody
			}
			return nil, fmt.Errorf("netchan: truncated record: %w", err)
		}
	}
	// The record is complete; DecodeFrame copies the payload out of
	// body, so rbody is free for the next record immediately.
	t.rbodyLen = -1
	return DecodeFrame(body)
}

// Close releases the connection.
func (t *TCPChannel) Close() error { return t.conn.Close() }
