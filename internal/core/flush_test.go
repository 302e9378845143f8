package core

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"stripe/internal/channel"
	"stripe/internal/flowcontrol"
	"stripe/internal/netchan"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// bufChan is a counting fake channel.BufferedSender: what Buffer
// accepts waits in held until Flush moves it to wire, and every call
// that would be a write syscall on a real transport is counted. Like a
// real one it keeps a copy of each record, never the caller's packet.
type bufChan struct {
	held, wire []*packet.Packet
	flushes    int   // Flush calls
	writes     int   // Flush calls that had something to write
	refuseAt   int   // when > 0, Buffer refuses everything once wire+held reaches it
	flushErr   error // when set, Flush fails (and drops what it held: the uncertain tail)
}

var errLinkDown = errors.New("link down")

func (b *bufChan) Buffer(pkts []*packet.Packet) (int, error) {
	for i, p := range pkts {
		if p == nil {
			panic("nil packet handed to a channel")
		}
		if b.refuseAt > 0 && len(b.wire)+len(b.held) >= b.refuseAt {
			return i, errLinkDown
		}
		b.held = append(b.held, p.Clone())
	}
	return len(pkts), nil
}

func (b *bufChan) Flush() error {
	b.flushes++
	if len(b.held) == 0 {
		return nil
	}
	b.writes++
	if b.flushErr != nil {
		b.held = b.held[:0]
		return b.flushErr
	}
	b.wire = append(b.wire, b.held...)
	b.held = b.held[:0]
	return nil
}

func (b *bufChan) SendBatch(pkts []*packet.Packet) (int, error) {
	n, err := b.Buffer(pkts)
	if ferr := b.Flush(); ferr != nil {
		return n, ferr
	}
	return n, err
}

func (b *bufChan) Send(p *packet.Packet) error {
	_, err := b.SendBatch([]*packet.Packet{p})
	return err
}

// unbuffered hides bufChan's Buffer/Flush, leaving a BatchSender: each
// run and control packet is one SendBatch, and so one write.
type unbuffered struct{ b *bufChan }

func (u unbuffered) Send(p *packet.Packet) error                  { return u.b.Send(p) }
func (u unbuffered) SendBatch(pkts []*packet.Packet) (int, error) { return u.b.SendBatch(pkts) }

// sendOnly hides everything but Send: each packet is one write.
type sendOnly struct{ b *bufChan }

func (s sendOnly) Send(p *packet.Packet) error { return s.b.Send(p) }

// The three shapes a channel can have: buffering, batching, Send only.
var shapes = []struct {
	name string
	wrap func(*bufChan) channel.Sender
}{
	{"buffered", func(b *bufChan) channel.Sender { return b }},
	{"unbuffered", func(b *bufChan) channel.Sender { return unbuffered{b} }},
	{"sendOnly", func(b *bufChan) channel.Sender { return sendOnly{b} }},
}

func bufChans(n int) ([]*bufChan, []channel.Sender) {
	chans := make([]*bufChan, n)
	senders := make([]channel.Sender, n)
	for c := range chans {
		chans[c] = &bufChan{}
		senders[c] = chans[c]
	}
	return chans, senders
}

func dataBatch(n int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.NewData(make([]byte, 200+(i*397)%1200))
	}
	return pkts
}

func requireNothingHeld(t *testing.T, when string, chans []*bufChan) {
	t.Helper()
	for c, b := range chans {
		if len(b.held) != 0 {
			t.Errorf("%s: channel %d still holds %d buffered packets", when, c, len(b.held))
		}
	}
}

// TestFlushOncePerDirtyChannel: a 64-packet batch over four channels
// with a marker batch due every round is dozens of service runs and
// marker sends, and each channel is flushed once. A channel the call
// never wrote to is not flushed at all.
func TestFlushOncePerDirtyChannel(t *testing.T) {
	const nch = 4
	chans, senders := bufChans(nch)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(sched.UniformQuanta(nch, 1500)),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 1},
	})
	if n, err := st.SendBatch(dataBatch(64)); n != 64 || err != nil {
		t.Fatalf("SendBatch = (%d, %v)", n, err)
	}
	s := st.Stats()
	if s.Markers < 8*nch {
		t.Fatalf("only %d markers cut; the batch was meant to span many marker batches", s.Markers)
	}
	for c, b := range chans {
		if b.flushes != 1 || b.writes != 1 {
			t.Errorf("channel %d: %d flushes (%d with data) for one batch, want 1", c, b.flushes, b.writes)
		}
	}
	requireNothingHeld(t, "after SendBatch", chans)

	// One packet, no markers due: one channel written, one flushed.
	chans, senders = bufChans(nch)
	st = mustStriper(t, StriperConfig{Sched: sched.MustSRR(sched.UniformQuanta(nch, 1500)), Channels: senders})
	if err := st.Send(packet.NewData(make([]byte, 100))); err != nil {
		t.Fatal(err)
	}
	for c, b := range chans {
		if want := map[bool]int{true: 1, false: 0}[c == 0]; b.flushes != want {
			t.Errorf("batch of one: channel %d flushed %d times, want %d", c, b.flushes, want)
		}
	}
}

// TestNothingBufferedOnAnyReturn walks every exported Striper method
// that can write, and every way SendBatch can end, and requires the
// channel buffers empty each time the striper returns: a caller that
// goes on to wait for the peer must wait with everything on the wire.
func TestNothingBufferedOnAnyReturn(t *testing.T) {
	const nch = 4
	newStriper := func(gate Gate) (*Striper, []*bufChan) {
		chans, senders := bufChans(nch)
		return mustStriper(t, StriperConfig{
			Sched:    sched.MustSRR(sched.UniformQuanta(nch, 1500)),
			Channels: senders,
			Markers:  MarkerPolicy{Every: 1},
			Gate:     gate,
		}), chans
	}

	t.Run("nil", func(t *testing.T) {
		st, chans := newStriper(nil)
		if n, err := st.SendBatch(dataBatch(64)); n != 64 || err != nil {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
		requireNothingHeld(t, "SendBatch", chans)
	})
	t.Run("ErrGated", func(t *testing.T) {
		gate, err := flowcontrol.NewGate(nch, 4000)
		if err != nil {
			t.Fatal(err)
		}
		st, chans := newStriper(gate)
		n, err := st.SendBatch(dataBatch(64))
		if err != ErrGated || n == 0 || n == 64 {
			t.Fatalf("SendBatch = (%d, %v), want a gated partial batch", n, err)
		}
		requireNothingHeld(t, "gated SendBatch", chans)
		sent := 0
		for _, b := range chans {
			for _, p := range b.wire {
				if p.Kind == packet.Data {
					sent++
				}
			}
		}
		if sent != n {
			t.Fatalf("%d data packets on the wire, SendBatch reported %d", sent, n)
		}
	})
	t.Run("ChannelSendError", func(t *testing.T) {
		st, chans := newStriper(nil)
		chans[2].refuseAt = 3
		n, err := st.SendBatch(dataBatch(64))
		var cse *ChannelSendError
		if !errors.As(err, &cse) || cse.Channel != 2 || !errors.Is(err, errLinkDown) || n == 64 {
			t.Fatalf("SendBatch = (%d, %v), want a *ChannelSendError on channel 2", n, err)
		}
		requireNothingHeld(t, "failed SendBatch", chans)
	})
	t.Run("ErrNoActiveChannels", func(t *testing.T) {
		st, chans := newStriper(nil)
		// Unreachable through RemoveChannel (it keeps the last channel);
		// forced, because the return path exists.
		for c := range st.active {
			st.active[c] = false
		}
		st.activeN = 0
		if n, err := st.SendBatch(dataBatch(4)); n != 0 || err != ErrNoActiveChannels {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
		requireNothingHeld(t, "SendBatch on an empty live set", chans)
	})

	st, chans := newStriper(nil)
	for _, step := range []struct {
		name string
		call func() error
	}{
		{"EmitMarkers", func() error { st.EmitMarkers(); return nil }},
		{"SendTelemetry", func() error {
			return st.SendTelemetry(packet.TelemetryBlock{Seq: 1, Channels: make([]packet.TelemetryChannel, nch)})
		}},
		{"RemoveChannel", func() error { return st.RemoveChannel(1) }},
		{"ProbeChannel", func() error { return st.ProbeChannel(1) }},
		{"AddChannel", func() error { _, err := st.AddChannel(1, nil); return err }},
		{"Reset", st.Reset},
	} {
		before := 0
		for _, b := range chans {
			before += len(b.wire)
		}
		if err := step.call(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after := 0
		for _, b := range chans {
			after += len(b.wire)
		}
		if after == before {
			t.Errorf("%s wrote nothing; the step proves nothing", step.name)
		}
		requireNothingHeld(t, step.name, chans)
	}
	// The removal's delimiter went down the departing channel itself.
	foundDelimiter := false
	for _, p := range chans[1].wire {
		if m, err := packet.MemberOf(p); err == nil && m.Op == packet.MemberLeave && m.Target == 1 {
			foundDelimiter = true
		}
	}
	if !foundDelimiter {
		t.Error("RemoveChannel(1) returned without its delimiter on channel 1's wire")
	}
}

// TestBufferedWireOrderMatchesUnbuffered: buffering moves syscalls, not
// packets — per channel, the sequence of data, markers, announcements
// and delimiters is the same whether the channel buffers, takes each run
// in one SendBatch, or takes Send alone.
func TestBufferedWireOrderMatchesUnbuffered(t *testing.T) {
	const nch = 4
	drive := func(wrap func(*bufChan) channel.Sender) []string {
		chans, senders := bufChans(nch)
		for c := range senders {
			senders[c] = wrap(chans[c])
		}
		st := mustStriper(t, StriperConfig{
			Sched:    sched.MustSRR([]int64{1500, 1000, 3000, 1500}),
			Channels: senders,
			Markers:  MarkerPolicy{Every: 2, Position: 1},
			AddSeq:   true,
			Now:      func() int64 { return 42 },
		})
		send := func(n int) {
			if m, err := st.SendBatch(dataBatch(n)); m != n || err != nil {
				t.Fatalf("SendBatch = (%d, %v)", m, err)
			}
		}
		send(64)
		if err := st.RemoveChannel(2); err != nil {
			t.Fatal(err)
		}
		send(37)
		if err := st.Send(packet.NewData(make([]byte, 900))); err != nil {
			t.Fatal(err)
		}
		st.EmitMarkers()
		if _, err := st.AddChannel(2, nil); err != nil {
			t.Fatal(err)
		}
		send(64)
		if err := st.Reset(); err != nil {
			t.Fatal(err)
		}
		send(5)
		wires := make([]string, nch)
		for c, b := range chans {
			requireNothingHeld(t, "end of script", chans)
			for _, p := range b.wire {
				wires[c] += fmt.Sprintf("%v/%d/%x ", p.Kind, p.Seq, p.Payload[:min(len(p.Payload), 48)])
			}
		}
		return wires
	}
	want := drive(shapes[0].wrap)
	for c := range want {
		if len(want[c]) == 0 {
			t.Errorf("channel %d carried nothing", c)
		}
	}
	for _, sh := range shapes[1:] {
		got := drive(sh.wrap)
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("channel %d wire differs between the %s and the %s shape", c, shapes[0].name, sh.name)
			}
		}
	}
}

// TestSendOverBufferedSenderWithMarkersEveryRound is the scratch-slot
// regression: Send parks its packet in a one-slot batch and the run it
// starts may cut markers; were a marker buffered through the same slot,
// the data packet would be gone before the channel saw it.
func TestSendOverBufferedSenderWithMarkersEveryRound(t *testing.T) {
	const nch, total = 4, 500
	chans, senders := bufChans(nch)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(sched.UniformQuanta(nch, 1500)),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 1},
	})
	for i := 0; i < total; i++ {
		if err := st.Send(packet.NewData(make([]byte, 700+i%800))); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		requireNothingHeld(t, "after Send", chans)
	}
	seen := make(map[uint64]bool)
	markers := 0
	for _, b := range chans {
		for _, p := range b.wire {
			if p.Kind == packet.Data {
				seen[p.ID] = true
			} else {
				markers++
			}
		}
	}
	if len(seen) != total || markers == 0 {
		t.Fatalf("%d of %d data packets reached a channel (%d markers)", len(seen), total, markers)
	}
}

// TestFlushFailureIsChannelSendError: a transport failure that first
// shows in the closing flush is reported like any other — the channel,
// the cause, the streak — with the packets it leaves in doubt committed
// and counted in n, the accepted-but-uncertain tail.
func TestFlushFailureIsChannelSendError(t *testing.T) {
	const nch = 4
	chans, senders := bufChans(nch)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(sched.UniformQuanta(nch, 1500)),
		Channels: senders,
	})
	chans[2].flushErr = errLinkDown
	n, err := st.SendBatch(dataBatch(64))
	var cse *ChannelSendError
	if n != 64 || !errors.As(err, &cse) || cse.Channel != 2 || !errors.Is(err, errLinkDown) {
		t.Fatalf("SendBatch = (%d, %v), want (64, *ChannelSendError on channel 2)", n, err)
	}
	if got := st.ErrStreak(2); got != 1 {
		t.Fatalf("ErrStreak(2) = %d, want 1", got)
	}
	if s := st.Stats(); s.DataPackets != 64 {
		t.Fatalf("%d packets committed, want all 64 (the tail is uncertain, not refused)", s.DataPackets)
	}
	for c, b := range chans {
		if c != 2 && (b.writes != 1 || len(b.wire) == 0) {
			t.Errorf("channel %d: %d writes, %d packets on the wire; one bad flush must not stop the others", c, b.writes, len(b.wire))
		}
	}
	requireNothingHeld(t, "failed flush", chans)

	// The control entry points report it too, where they report at all.
	if err := st.ProbeChannel(2); !errors.Is(err, errLinkDown) {
		t.Fatalf("ProbeChannel over a failing flush = %v", err)
	}
	if got := st.ErrStreak(2); got != 2 {
		t.Fatalf("ErrStreak(2) after the probe = %d, want 2", got)
	}
	if err := st.Reset(); !errors.Is(err, errLinkDown) {
		t.Fatalf("Reset over a failing flush = %v", err)
	}
	// Buffering proves nothing about the link, so only a flush that
	// succeeds ends the streak.
	if got := st.ErrStreak(2); got != 3 {
		t.Fatalf("ErrStreak(2) after three failed flushes = %d, want 3", got)
	}
	chans[2].flushErr = nil
	st.EmitMarkers()
	if got := st.ErrStreak(2); got != 0 {
		t.Fatalf("ErrStreak(2) after a good flush = %d, want 0", got)
	}
}

// TestErrStreakStepsOncePerCall: a call that fails on a slot moves its
// error streak by one, and a call that writes it cleanly clears it —
// whatever the channel's shape, and however many of the call's hand-offs
// and flushes on the slot failed. The health monitor evicts on this
// count, so EvictAfter must mean as many failed calls on a bare socket
// as behind a wrapper. Each shape's failure switch lets grace more units
// through first: packets on the fakes, writes on the socket, whose
// 64 KiB buffer takes a good part of a batch before its first write.
func TestErrStreakStepsOncePerCall(t *testing.T) {
	const nch, bad = 4, 1
	type row struct {
		name string
		// build returns the channels and slot bad's switch: fail(t, st, g)
		// lets g more units through and fails every one after; g < 0
		// heals the slot.
		build func() ([]channel.Sender, func(t *testing.T, st *Striper, grace int))
	}
	var rows []row
	for _, sh := range shapes {
		rows = append(rows, row{sh.name, func() ([]channel.Sender, func(*testing.T, *Striper, int)) {
			chans, senders := bufChans(nch)
			for c := range senders {
				senders[c] = sh.wrap(chans[c])
			}
			return senders, func(_ *testing.T, _ *Striper, grace int) {
				b := chans[bad]
				b.refuseAt = 0
				if grace >= 0 {
					b.refuseAt = len(b.wire) + len(b.held) + grace
				}
			}
		}})
	}
	rows = append(rows, row{"TCPChannel", func() ([]channel.Sender, func(*testing.T, *Striper, int)) {
		senders := make([]channel.Sender, nch)
		for c := range senders {
			senders[c] = netchan.NewTCPChannel(&countingConn{})
		}
		return senders, func(t *testing.T, st *Striper, grace int) {
			var conn net.Conn = &countingConn{}
			if grace >= 0 {
				conn = &countingConn{failAfter: grace + 1}
			}
			if _, err := st.AddChannel(bad, netchan.NewTCPChannel(conn)); err != nil {
				t.Fatal(err)
			}
		}
	}})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			senders, fail := r.build()
			st := mustStriper(t, StriperConfig{Sched: sched.MustSRR(sched.UniformQuanta(nch, 1500)), Channels: senders})
			for _, step := range []struct {
				what  string
				grace int // -1: healthy
				fails bool
				want  int64
			}{
				{"a clean call", -1, false, 0},
				{"one failing call", 0, true, 1},
				{"two failing calls", 0, true, 2},
				{"a clean call after them", -1, false, 0},
				{"a success then a failure in one call", 1, true, 1},
			} {
				fail(t, st, step.grace)
				pkts := make([]*packet.Packet, 512)
				for i := range pkts {
					pkts[i] = packet.NewDataSized(1400)
				}
				n, err := st.SendBatch(pkts)
				var cse *ChannelSendError
				if failed := errors.As(err, &cse); failed != step.fails || (failed && cse.Channel != bad) || (!failed && (err != nil || n != len(pkts))) {
					t.Fatalf("%s: SendBatch = (%d, %v)", step.what, n, err)
				}
				for c := 0; c < nch; c++ {
					want := int64(0)
					if c == bad {
						want = step.want
					}
					if got := st.ErrStreak(c); got != want {
						t.Errorf("after %s: ErrStreak(%d) = %d, want %d", step.what, c, got, want)
					}
				}
			}
		})
	}
}

// countingConn is a net.Conn that counts Write calls and discards the
// bytes: each call is one write syscall on a real socket. With failAfter
// set, the failAfter-th call and every one after it fail.
type countingConn struct {
	net.Conn
	writes    int
	failAfter int
}

func (c *countingConn) Write(b []byte) (int, error) {
	if c.writes++; c.failAfter > 0 && c.writes >= c.failAfter {
		return 0, errLinkDown
	}
	return len(b), nil
}

// TestFlushWritesPerBatchOverTCP counts at the syscall boundary itself:
// a real striper over real TCPChannels, 64 packets of 200-1400 B over
// four channels at quantum 1500, markers on the session's default
// cadence (every four rounds) and on every round. Run by run — the path
// a wrapper that forwards only SendBatch still takes — that is a write
// per service run and per marker; buffered it is a write per channel.
// (The numbers EXPERIMENTS.md quotes.)
func TestFlushWritesPerBatchOverTCP(t *testing.T) {
	const nch = 4
	count := func(every uint64, hide bool) int {
		conns := make([]*countingConn, nch)
		senders := make([]channel.Sender, nch)
		for c := range conns {
			conns[c] = &countingConn{}
			tcp := netchan.NewTCPChannel(conns[c])
			senders[c] = tcp
			if hide {
				senders[c] = struct{ channel.BatchSender }{tcp}
			}
		}
		st := mustStriper(t, StriperConfig{
			Sched:    sched.MustSRR(sched.UniformQuanta(nch, 1500)),
			Channels: senders,
			Markers:  MarkerPolicy{Every: every},
		})
		if n, err := st.SendBatch(dataBatch(64)); n != 64 || err != nil {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
		writes := 0
		for _, c := range conns {
			writes += c.writes
		}
		return writes
	}
	for _, every := range []uint64{4, 1} {
		buffered, runByRun := count(every, false), count(every, true)
		t.Logf("markers every %d rounds: conn.Write calls per 64-packet batch on %d TCP channels: %d buffered, %d run by run",
			every, nch, buffered, runByRun)
		if buffered != nch {
			t.Errorf("markers every %d: buffered: %d writes, want one per channel (%d)", every, buffered, nch)
		}
		if runByRun < 8*nch {
			t.Errorf("markers every %d: run by run: %d writes; the reference path should pay one per run", every, runByRun)
		}
	}
}

// TestSendCreditIsNotAMarkerBatch: a credit is one control packet on one
// channel, on the wire when the call returns, and nothing else moves —
// no marker is cut, no announcement repeat is spent, the scheduler does
// not advance. (Credits are sent once per half window; a marker batch at
// that rate would run the announcement and drain clocks out at once.)
func TestSendCreditIsNotAMarkerBatch(t *testing.T) {
	const nch = 3
	chans, senders := bufChans(nch)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(sched.UniformQuanta(nch, 1500)),
		Channels: senders,
	})
	if err := st.RemoveChannel(2); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	onWire := len(chans[0].wire) + len(chans[1].wire) + len(chans[2].wire)
	for i := 1; i <= 1000; i++ {
		if err := st.SendCredit(1, uint64(i)); err != nil {
			t.Fatal(err)
		}
		requireNothingHeld(t, "after SendCredit", chans)
	}
	if st.announceLeft != MemberAnnounceBatches {
		t.Errorf("announceLeft = %d after 1000 credits, want all %d repeats still owed", st.announceLeft, MemberAnnounceBatches)
	}
	if after := st.Stats(); after.Markers != before.Markers || after.Round != before.Round {
		t.Errorf("credits moved the striper: markers %d -> %d, round %d -> %d", before.Markers, after.Markers, before.Round, after.Round)
	}
	if got := len(chans[0].wire) + len(chans[1].wire) + len(chans[2].wire) - onWire; got != 1000 {
		t.Errorf("%d packets on the wire for 1000 credits", got)
	}
	last := chans[1].wire[len(chans[1].wire)-1]
	if cb, err := packet.CreditOf(last); err != nil || cb.Channel != 1 || cb.Grant != 1000 {
		t.Errorf("last packet on channel 1 is (%+v, %v), want credit{1, 1000}", cb, err)
	}
	// A slot outside the live set has no reverse channel to use.
	if err := st.SendCredit(2, 1); err == nil {
		t.Error("SendCredit on a removed slot succeeded")
	}
	chans[1].flushErr = errLinkDown
	if err := st.SendCredit(1, 1001); !errors.Is(err, errLinkDown) || st.ErrStreak(1) != 1 {
		t.Errorf("SendCredit over a failing flush = %v, streak %d", err, st.ErrStreak(1))
	}
}
