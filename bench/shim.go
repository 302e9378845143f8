package main

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"

	"stripe"
)

// batchSender is what every netchan channel offers the striper. Both
// shims below implement it in full: a Send-only wrapper would silently
// make the striper fall back to one Send — one TCP flush — per packet.
type batchSender interface {
	Send(p *stripe.Packet) error
	SendBatch(pkts []*stripe.Packet) (int, error)
}

// dropShim loses a seeded share of the packets of every kind that
// cross one channel. A dropped packet is reported as accepted, exactly
// as a lossy link reports it.
type dropShim struct {
	next batchSender
	rng  *rand.Rand
	rate float64
	on   atomic.Bool // off during the probe and the ping phase

	keep []*stripe.Packet // scratch for the survivors of one batch

	dropped     int64    // packets of any kind
	droppedData []uint64 // sequence numbers of the data packets among them
}

func newDropShim(next batchSender, rate float64, seed int64) *dropShim {
	return &dropShim{
		next: next, rate: rate,
		rng:         rand.New(rand.NewSource(seed)),
		droppedData: make([]uint64, 0, 1<<16),
	}
}

func (d *dropShim) drop(p *stripe.Packet) bool {
	if d.rng.Float64() >= d.rate {
		return false
	}
	d.dropped++
	if p.Kind == stripe.KindData && len(p.Payload) >= 8 {
		d.droppedData = append(d.droppedData, binary.BigEndian.Uint64(p.Payload))
	}
	return true
}

func (d *dropShim) Send(p *stripe.Packet) error {
	if d.on.Load() && d.drop(p) {
		return nil
	}
	return d.next.Send(p)
}

func (d *dropShim) SendBatch(pkts []*stripe.Packet) (int, error) {
	if !d.on.Load() {
		return d.next.SendBatch(pkts)
	}
	keep := d.keep[:0]
	for _, p := range pkts {
		if !d.drop(p) {
			keep = append(keep, p)
		}
	}
	n, err := d.next.SendBatch(keep)
	accepted := len(pkts)
	if n < len(keep) {
		// Everything before the first survivor the transport refused
		// counts as accepted, dropped packets included.
		for i, p := range pkts {
			if p == keep[n] {
				accepted = i
				break
			}
		}
	}
	clear(keep)
	d.keep = keep[:0]
	return accepted, err
}

// txShim times the calls a session makes into one channel.
type txShim struct {
	next   batchSender
	tr     *tracer
	lane   *lane
	parent *atomic.Uint64 // id of the send span the owning session's generator is inside of, or 0
}

func (t *txShim) Send(p *stripe.Packet) error {
	if !t.tr.active() {
		return t.next.Send(p)
	}
	start := nanotime()
	err := t.next.Send(p)
	par := t.parent.Load()
	t.lane.add(spanTx, start, nanotime(), par, par, 1)
	return err
}

func (t *txShim) SendBatch(pkts []*stripe.Packet) (int, error) {
	if !t.tr.active() {
		return t.next.SendBatch(pkts)
	}
	start := nanotime()
	n, err := t.next.SendBatch(pkts)
	par := t.parent.Load()
	t.lane.add(spanTx, start, nanotime(), par, par, n)
	return n, err
}
