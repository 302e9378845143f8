package harness

import (
	"testing"

	"stripe/internal/core"
	"stripe/internal/obs"
	"stripe/internal/packet"
)

// A FuzzRigFIFO input is a rig and a schedule for it:
//
//	data[0]    channels = 2 + data[0]%7
//	data[1]    marker period in rounds = data[1]%8 (0: no markers)
//	data[2]    marker position = data[2]%channels
//	then one quantum byte per channel: 64 + 24*b bytes
//	then operations, one byte each, b%3 the verb and b/3 its argument:
//	  0  SendBatch of 1 + arg%8 packets; one size byte follows for each
//	     (1 + 6*b bytes; a missing byte reads as zero)
//	  1  move the head of line arg%channels into the resequencer
//	  2  deliver up to 1 + arg%16 packets
//
// schedule writes one by hand.
type schedule []byte

func newSchedule(markerEvery, markerPos byte, quanta ...byte) schedule {
	return append(schedule{byte(len(quanta) - 2), markerEvery, markerPos}, quanta...)
}

func (s schedule) send(sizes ...byte) schedule {
	return append(append(s, byte(3*(len(sizes)-1))), sizes...)
}
func (s schedule) arrive(c byte) schedule  { return append(s, 3*c+1) }
func (s schedule) deliver(k byte) schedule { return append(s, 3*(k-1)+2) }

// FuzzRigFIFO is Theorem 4.1 under every interleaving the fuzzer can
// write: over lossless lines, whatever the quanta, marker policy, batch
// boundaries and order of arrivals and deliveries, the rig delivers
// exactly the sent sequence, and the receive ledger conserves packets
// at every publication on the way.
func FuzzRigFIFO(f *testing.F) {
	// Equal quanta, markers every round, lock-step arrivals.
	lockstep := newSchedule(1, 0, 60, 60)
	for i := 0; i < 12; i++ {
		lockstep = lockstep.send(byte(20*i), 250).arrive(0).arrive(1).deliver(16)
	}
	f.Add([]byte(lockstep))
	// One eight-packet service run on channel 0 (quantum 4864 B, 776 B
	// sent), delivered in threes: every batch splits the run.
	split := newSchedule(0, 0, 200, 200).send(16, 16, 16, 16, 16, 16, 16, 16)
	for i := 0; i < 8; i++ {
		split = split.arrive(0)
	}
	f.Add([]byte(split.deliver(3).deliver(3).deliver(3)))
	// Unequal quanta smaller than the packets, markers mid-round, one
	// line starved until the end so the others must buffer.
	starved := newSchedule(3, 2, 0, 7, 30, 2)
	for i := 0; i < 10; i++ {
		starved = starved.send(255, 0, 100, 40).arrive(0).arrive(1).arrive(3).deliver(2)
	}
	f.Add([]byte(starved))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nch := 2 + int(data[0]%7)
		markers := core.MarkerPolicy{Every: uint64(data[1] % 8), Position: int(data[2]) % nch}
		data = data[3:]
		next := func() (b byte) {
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			return b
		}
		quanta := make([]int64, nch)
		for c := range quanta {
			quanta[c] = 64 + 24*int64(next())
		}
		col := obs.NewCollector(nch)
		col.SetChecker(obs.NewChecker())
		r := newRig(rigConfig{quanta: quanta, markers: markers, obs: col})

		sent := 0
		for len(data) > 0 {
			op := next()
			switch arg := int(op / 3); op % 3 {
			case 0:
				pkts := make([]*packet.Packet, 1+arg%8)
				for i := range pkts {
					pkts[i] = packet.NewDataSized(1 + 6*int(next()))
				}
				if n, err := r.striper.SendBatch(pkts); n != len(pkts) || err != nil {
					t.Fatalf("SendBatch of %d over lossless ungated lines = %d, %v", len(pkts), n, err)
				}
				sent += len(pkts)
			case 1:
				r.arrive(arg % nch)
			case 2:
				r.deliver(1 + arg%16)
			}
		}
		ids := r.settle()
		if len(ids) != sent {
			t.Fatalf("sent %d packets, delivered %d", sent, len(ids))
		}
		for i, id := range ids {
			if id != uint64(i) {
				t.Fatalf("delivery %d is packet %d: not FIFO (Theorem 4.1)", i, id)
			}
		}
		r.striper.SyncObs()
		r.reseq.SyncObs()
		if snap := col.Snapshot(); snap.InvariantViolations != 0 {
			t.Fatalf("%d invariant violations: %v", snap.InvariantViolations, snap.Violations)
		}
	})
}
