package packet

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Data: "data", Marker: "marker", Credit: "credit", Reset: "reset", Kind(9): "kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewDataDoesNotCopy(t *testing.T) {
	b := []byte{1, 2, 3}
	p := NewData(b)
	b[0] = 9
	if p.Payload[0] != 9 {
		t.Fatal("NewData copied the payload")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewData([]byte{1, 2, 3})
	p.ID = 7
	q := p.Clone()
	q.Payload[0] = 99
	if p.Payload[0] != 1 {
		t.Fatal("Clone shares payload storage")
	}
	if q.ID != 7 {
		t.Fatal("Clone dropped metadata")
	}
}

func TestWireLen(t *testing.T) {
	p := NewDataSized(100)
	if got := p.WireLen(8); got != 108 {
		t.Fatalf("WireLen = %d, want 108", got)
	}
}

func TestStringFormats(t *testing.T) {
	p := NewDataSized(10)
	p.ID = 3
	if s := p.String(); !strings.Contains(s, "id=3") || !strings.Contains(s, "len=10") {
		t.Fatalf("String() = %q", s)
	}
	p.Seq, p.HasSeq = 42, true
	if s := p.String(); !strings.Contains(s, "seq=42") {
		t.Fatalf("String() = %q", s)
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	check := func(ch uint32, round uint64, deficit int64, credits uint64, rng uint64) bool {
		m := MarkerBlock{Channel: ch, Round: round, Deficit: deficit, Credits: credits, RNG: rng}
		p := NewMarker(m)
		if p.Kind != Marker || len(p.Payload) != MarkerWireLen {
			return false
		}
		got, err := MarkerOf(p)
		return err == nil && got == m
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarkerNegativeDeficit(t *testing.T) {
	m := MarkerBlock{Channel: 1, Round: 5, Deficit: -12345}
	got, err := DecodeMarker(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Deficit != -12345 {
		t.Fatalf("Deficit = %d, want -12345", got.Deficit)
	}
}

func TestMarkerDecodeErrors(t *testing.T) {
	m := MarkerBlock{Channel: 2, Round: 9, Deficit: 100}
	enc := m.Encode(nil)

	if _, err := DecodeMarker(enc[:10]); err != ErrBadLength {
		t.Errorf("truncated: err = %v, want ErrBadLength", err)
	}

	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeMarker(bad); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), enc...)
	bad[12] ^= 0xff // corrupt the round field
	if _, err := DecodeMarker(bad); err != ErrChecksum {
		t.Errorf("corrupt body: err = %v, want ErrChecksum", err)
	}

	bad = append([]byte(nil), enc...)
	bad[MarkerWireLen-1] ^= 0x01 // corrupt the checksum itself
	if _, err := DecodeMarker(bad); err != ErrChecksum {
		t.Errorf("corrupt crc: err = %v, want ErrChecksum", err)
	}
}

func TestMarkerEncodeAppends(t *testing.T) {
	prefix := []byte("hdr")
	m := MarkerBlock{Channel: 3}
	out := m.Encode(prefix)
	if !bytes.HasPrefix(out, []byte("hdr")) {
		t.Fatal("Encode overwrote the prefix")
	}
	if _, err := DecodeMarker(out[3:]); err != nil {
		t.Fatal(err)
	}
}

func TestMarkerOfWrongKind(t *testing.T) {
	if _, err := MarkerOf(NewDataSized(40)); err == nil {
		t.Fatal("MarkerOf accepted a data packet")
	}
}

func TestCreditRoundTrip(t *testing.T) {
	check := func(ch uint32, grant uint64) bool {
		c := CreditBlock{Channel: ch, Grant: grant}
		p := NewCredit(c)
		if p.Kind != Credit || len(p.Payload) != CreditWireLen {
			return false
		}
		got, err := CreditOf(p)
		return err == nil && got == c
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreditDecodeErrors(t *testing.T) {
	c := CreditBlock{Channel: 1, Grant: 4096}
	enc := c.Encode(nil)
	if _, err := DecodeCredit(enc[:4]); err != ErrBadLength {
		t.Errorf("truncated: err = %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[1] = '?'
	if _, err := DecodeCredit(bad); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[9] ^= 0x80
	if _, err := DecodeCredit(bad); err != ErrChecksum {
		t.Errorf("corrupt: err = %v", err)
	}
	if _, err := CreditOf(NewDataSized(4)); err == nil {
		t.Error("CreditOf accepted a data packet")
	}
}

func BenchmarkMarkerEncode(b *testing.B) {
	m := MarkerBlock{Channel: 1, Round: 1 << 40, Deficit: -500}
	buf := make([]byte, 0, MarkerWireLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkMarkerDecode(b *testing.B) {
	m := MarkerBlock{Channel: 1, Round: 1 << 40, Deficit: -500}
	enc := m.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMarker(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// poolSheds reports whether the packet pool itself allocates in this
// process (sync.Pool drops a share of its Puts under -race), in which
// case no allocation count says anything about the code around it.
func poolSheds() bool {
	return testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			Get().Release()
		}
	}) != 0
}

// TestPoolNewIsOneAllocation: a packet born for a payload that fits
// inlineLen is one object — header and block together, the block
// directly behind the header — and the block holds every fixed-size
// control block, so building one into a pooled packet never grows it. A
// packet born for a larger payload is the header alone: the block would
// be dead weight behind it.
func TestPoolNewIsOneAllocation(t *testing.T) {
	var p *Packet
	for _, n := range []int{0, inlineLen} {
		if a := testing.AllocsPerRun(100, func() { p = alloc(n) }); a != 1 {
			t.Fatalf("alloc(%d): %v allocations, want 1", n, a)
		}
		if len(p.Payload) != 0 || cap(p.Payload) != inlineLen {
			t.Fatalf("alloc(%d): payload len %d cap %d, want 0 and %d", n, len(p.Payload), cap(p.Payload), inlineLen)
		}
		if off := uintptr(unsafe.Pointer(unsafe.SliceData(p.Payload))) - uintptr(unsafe.Pointer(p)); off != unsafe.Sizeof(*p) {
			t.Fatalf("alloc(%d): payload block lies %d bytes from the packet, want %d (directly behind the header)", n, off, unsafe.Sizeof(*p))
		}
	}
	if a := testing.AllocsPerRun(100, func() { p = alloc(inlineLen + 1) }); a != 1 || p.Payload != nil {
		t.Fatalf("alloc(%d): %v allocations, payload cap %d; want the header alone", inlineLen+1, a, cap(p.Payload))
	}
	for name, n := range map[string]int{"marker": MarkerWireLen, "credit": CreditWireLen, "member": MemberWireLen, "reset": 8} {
		if n > inlineLen {
			t.Errorf("%s block is %d bytes, over the %d inline", name, n, inlineLen)
		}
	}
	if poolSheds() {
		t.Skip("the packet pool itself allocates here (sync.Pool sheds under -race)")
	}
	mb, cb, ab := MarkerBlock{Channel: 1, Round: 9}, CreditBlock{Channel: 1, Grant: 9}, MemberBlock{Seq: 1, N: 4, Active: 15}
	if a := testing.AllocsPerRun(100, func() {
		NewMarker(mb).Release()
		NewCredit(cb).Release()
		NewMember(ab).Release()
	}); a != 0 {
		t.Errorf("building and releasing a marker, a credit and a member packet: %v allocations, want 0", a)
	}
}

// TestOutgrownPayloadIsKeptAcrossRelease: a payload that outgrows the
// inline block gets an array of its own, and the packet keeps that array
// across Release, so the same size again costs nothing.
func TestOutgrownPayloadIsKeptAcrossRelease(t *testing.T) {
	p := GetSized(1400)
	if len(p.Payload) != 1400 || p.Kind != Data {
		t.Fatalf("GetSized(1400) = %v with %d bytes", p.Kind, len(p.Payload))
	}
	p.ID, p.Seq, p.HasSeq = 7, 8, true
	p.Release()
	if p.ID != 0 || p.HasSeq || len(p.Payload) != 0 || cap(p.Payload) < 1400 {
		t.Fatalf("released packet is %v, payload len %d cap %d; want zeroed, the grown array kept", p, len(p.Payload), cap(p.Payload))
	}
	if poolSheds() {
		t.Skip("the packet pool itself allocates here (sync.Pool sheds under -race)")
	}
	if a := testing.AllocsPerRun(100, func() { GetSized(1400).Release() }); a != 0 {
		t.Errorf("GetSized(1400) after a release: %v allocations, want 0", a)
	}
}
