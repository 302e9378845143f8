package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"time"
)

// Payload layout of every generated data packet:
//
//	0   8  sequence number of the packet within its flow (big endian)
//	8   8  generator stamp, nanoseconds on the process clock
//	16  .. seeded fill, a slice of the flow's pattern chosen by the sequence
//	-4  4  CRC-32C over everything before it, only when seq%crcEvery == 0
//
// The fill is compared on every delivery; the CRC is the one check that
// also covers the 16-byte header.
const (
	hdrLen      = 16
	crcEvery    = 16
	minPayload  = hdrLen + 8
	sentinelSeq = ^uint64(0) // flips a consumer from the flood phase to the ping phase
	patternSpan = 4096       // distinct fill offsets
	maxPayload  = 1500
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// processStart anchors the generator stamps; time.Since reads the
// monotonic clock, so stamps survive wall-clock steps.
var processStart = time.Now()

func nanotime() int64 { return int64(time.Since(processStart)) }

// payloadGen produces and verifies the payloads of one flow. It is
// built from the seed alone and is read-only afterwards, so the
// producer and the consumer of a flow share it without locking.
type payloadGen struct {
	sizes   []uint16 // size schedule, length a power of two
	pattern []byte
}

// newPayloadGen draws a size schedule from sizes with equal
// probability, and the fill pattern, from seed.
func newPayloadGen(seed int64, sizes []int) *payloadGen {
	rng := rand.New(rand.NewSource(seed))
	g := &payloadGen{
		sizes:   make([]uint16, 1<<16),
		pattern: make([]byte, patternSpan+maxPayload),
	}
	for i := range g.sizes {
		g.sizes[i] = uint16(sizes[rng.Intn(len(sizes))])
	}
	rng.Read(g.pattern)
	return g
}

func (g *payloadGen) size(seq uint64) int {
	return int(g.sizes[seq&uint64(len(g.sizes)-1)])
}

func (g *payloadGen) fillOf(seq uint64, n int) []byte {
	off := int((seq * 2654435761) % patternSpan)
	return g.pattern[off : off+n]
}

// fill writes the sequence number and the fill into b, whose length is
// the packet size. The stamp is written later, by stamp.
func (g *payloadGen) fill(b []byte, seq uint64) {
	binary.BigEndian.PutUint64(b[0:8], seq)
	end := len(b)
	if seq%crcEvery == 0 {
		end -= 4
	}
	copy(b[hdrLen:end], g.fillOf(seq, end-hdrLen))
}

// stamp writes the generator stamp and, on sampled packets, the CRC
// that covers it.
func stamp(b []byte, now int64) {
	binary.BigEndian.PutUint64(b[8:16], uint64(now))
	if binary.BigEndian.Uint64(b[0:8])%crcEvery == 0 {
		n := len(b) - 4
		binary.BigEndian.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli))
	}
}

// verify checks a delivered payload against the flow's schedule and
// returns its sequence number and stamp. ok is false when the length,
// the fill or the CRC is wrong.
func (g *payloadGen) verify(b []byte) (seq uint64, stampNs int64, ok bool) {
	if len(b) < minPayload {
		return 0, 0, false
	}
	seq = binary.BigEndian.Uint64(b[0:8])
	stampNs = int64(binary.BigEndian.Uint64(b[8:16]))
	if len(b) != g.size(seq) {
		return seq, stampNs, false
	}
	end := len(b)
	if seq%crcEvery == 0 {
		end -= 4
		if crc32.Checksum(b[:end], castagnoli) != binary.BigEndian.Uint32(b[end:]) {
			return seq, stampNs, false
		}
	}
	return seq, stampNs, bytes.Equal(b[hdrLen:end], g.fillOf(seq, end-hdrLen))
}
