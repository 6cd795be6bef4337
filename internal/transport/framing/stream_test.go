package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
)

// fussyCodec carries a payload's bytes as they are and refuses a frame
// whose payload starts with 0xFF; as a SplitCodec the whole payload is
// the body on the way out. On the way in it places a partly arrived
// frame — all of it but a fussyHdr-byte header — into a scratch buffer
// of its own, unless the payload starts with 0xFE (or 0xFF): the input
// decides which frames are placed. A placed frame's payload is that
// buffer, header copied in, so it equals the frame decoded whole.
type fussyCodec struct {
	placed int // placements made
	held   int // placements neither finished nor dropped
}

const (
	fussyHdr    = 8
	fussyRefuse = 0xFE // first payload byte: assemble, but do not place
)

var errFussy = errors.New("fussyCodec: refused")

func (*fussyCodec) Encode(buf []byte, payload any) ([]byte, error) {
	return append(buf, payload.([]byte)...), nil
}

func (*fussyCodec) EncodeSplit(buf []byte, payload any) (head, body []byte, err error) {
	return buf, payload.([]byte), nil
}

func (*fussyCodec) Decode(data []byte) (any, error) {
	if len(data) > 0 && data[0] == 0xFF {
		return nil, errFussy
	}
	return append([]byte(nil), data...), nil
}

func (*fussyCodec) DecodeOwned(frame, data []byte) (any, error) {
	if len(data) > 0 && data[0] == 0xFF {
		return nil, errFussy
	}
	return data, nil
}

func (c *fussyCodec) Place(_, _ fabric.EndpointID, size int, head []byte) ([]byte, nic.Placement, int) {
	if len(head) > 0 && head[0] >= fussyRefuse {
		return nil, nil, 0
	}
	if len(head) < fussyHdr {
		return nil, nil, fussyHdr
	}
	p := &fussyPlacement{c: c, frame: make([]byte, size)}
	copy(p.frame, head[:fussyHdr])
	c.placed++
	c.held++
	return p.frame[fussyHdr:], p, 0
}

// fussyPlacement is one fussyCodec placement; releasing it twice is a
// broken pin.
type fussyPlacement struct {
	c     *fussyCodec
	frame []byte
	done  bool
}

func (p *fussyPlacement) Finish() any {
	p.release()
	return p.frame
}

func (p *fussyPlacement) Drop() { p.release() }

func (p *fussyPlacement) release() {
	if p.done {
		panic("fussyCodec: a placement was released twice")
	}
	p.done = true
	p.c.held--
}

// streamMax is the test streams' frame bound: above nic.MaxStaging, so
// that a frame can be legal and still too large to stage.
const streamMax = 4 * nic.MaxStaging

// appendFrame appends one wire frame.
func appendFrame(b []byte, dst, src fabric.EndpointID, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(HdrLen+len(payload)))
	b = binary.LittleEndian.AppendUint64(b, uint64(dst))
	b = binary.LittleEndian.AppendUint64(b, uint64(src))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// fed is what a stream made of its input: the packets each link
// received, in order, and the faults its transport heard of.
type fed struct {
	Packets [][]fabric.Packet
	Faults  []Fault
}

// feed runs data through a fresh stream with links at endpoints 0 and
// 1, in one piece when rng is nil, in ring cells of nic.BulkMin bytes
// when cells is set, and otherwise in random pieces; pieces are handed
// over through Write or through Target/Commit, as a transport would,
// and nothing more is fed after a fault that ends the stream. skip is
// the transport's answer to an unknown endpoint. Every placement the
// codec made must have been released exactly once by the time the
// stream is.
func feed(t *testing.T, data []byte, rng *rand.Rand, cells, skip bool) (fed, int) {
	t.Helper()
	tab := NewTable()
	codec := new(fussyCodec)
	tab.SetCodec(codec)
	links := []*Link{new(Link), new(Link)}
	for i, l := range links {
		if err := tab.Register(l, fabric.EndpointID(i)); err != nil {
			t.Fatal(err)
		}
	}
	var out fed
	dead := false
	var s Stream
	s.Init(tab, streamMax, func(f Fault) bool {
		out.Faults = append(out.Faults, f)
		if f.Kind == UnknownEndpoint && skip {
			return true
		}
		dead = true
		return false
	})
	for rest := data; len(rest) > 0 && !dead; {
		n := len(rest)
		switch {
		case cells:
			n = min(n, nic.BulkMin)
		case rng != nil:
			n = 1 + rng.Intn(min(n, 1+rng.Intn(9000)))
		}
		if rng == nil || rng.Intn(2) == 0 {
			s.Write(rest[:n])
		} else {
			for piece := rest[:n]; len(piece) > 0 && !dead; {
				c := copy(s.Target(1), piece)
				piece = piece[c:]
				s.Commit(c)
			}
		}
		rest = rest[n:]
		// A length prefix by itself must not be able to demand memory:
		// staging stays within the pool's classes, the receive buffer
		// within a small multiple of the bytes that really arrived.
		if len(s.asm.buf) > nic.MaxStaging {
			t.Fatalf("staging buffer of %d bytes", len(s.asm.buf))
		}
		if len(s.buf) > streamBufMin+4*len(data) {
			t.Fatalf("receive buffer grew to %d bytes on %d bytes of input", len(s.buf), len(data))
		}
	}
	s.Flush()
	for _, l := range links {
		out.Packets = append(out.Packets, l.DrainRQ(make([]fabric.Packet, 0, l.QueuedRQ())))
	}
	s.Release()
	if codec.held != 0 {
		t.Fatalf("%d of %d placements still held after the stream was released", codec.held, codec.placed)
	}
	return out, codec.placed
}

// streamSeeds are the fuzzer's starting points, also committed under
// testdata/fuzz/FuzzStream: every length-prefix class the parser tells
// apart, valid traffic, and frames the codec places — or will not.
func streamSeeds() map[string][]byte {
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	frame := func(dst, src fabric.EndpointID, payload []byte) []byte { return appendFrame(nil, dst, src, payload) }
	prefix := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	bulk := func(n int) []byte { return bytes.Repeat([]byte{0x5a}, n) }
	valid := join(frame(0, 1, []byte("first")), frame(1, 0, nil), frame(1, 0, []byte("third")), frame(0, 1, bulk(300)))
	// A frame that leaves the codec header of the next one half in the
	// first ring cell: 4 of its fussyHdr bytes before the cell boundary.
	straddle := frame(0, 1, bulk(nic.BulkMin-2*(4+HdrLen)-fussyHdr/2))
	return map[string][]byte{
		"empty":                   {},
		"length-zero":             join(prefix(0), valid),
		"length-below-hdr":        join(frame(0, 1, []byte("ok")), prefix(HdrLen-1)),
		"length-above-max":        join(frame(0, 1, []byte("ok")), prefix(streamMax+1)),
		"length-sentinel":         prefix(0xFFFFFFFF),
		"under-bulkmin":           join(valid, frame(0, 1, bulk(nic.BulkMin-HdrLen-1))),
		"over-bulkmin":            join(valid, frame(1, 0, bulk(nic.BulkMin))),
		"above-maxstaging":        join(valid, prefix(nic.MaxStaging+1), bulk(100)),
		"truncated-prefix":        join(valid, []byte{0x20, 0x00}),
		"truncated-header":        join(valid, frame(0, 1, []byte("cut"))[:4+HdrLen-3]),
		"unknown-endpoint":        join(frame(7777, 1, []byte("lost")), frame(0, 1, []byte("kept"))),
		"refused-payload":         join(frame(0, 1, []byte("ok")), frame(0, 1, []byte{0xFF, 1, 2})),
		"back-to-back":            valid,
		"placed-header-straddles": join(straddle, frame(1, 0, bulk(2*nic.BulkMin))),
		"placed-refused":          join(valid, frame(0, 1, append([]byte{fussyRefuse}, bulk(2*nic.BulkMin)...))),
		"placed-length-fault":     join(valid, frame(1, 0, bulk(2*nic.BulkMin)), prefix(HdrLen-1), bulk(nic.BulkMin)),
		"placed-back-to-back":     join(frame(0, 1, bulk(3*nic.BulkMin)), frame(1, 0, bulk(2*nic.BulkMin+5)), frame(0, 1, bulk(nic.BulkMin+1))),
		"placed-truncated":        join(valid, frame(0, 1, bulk(3*nic.BulkMin))[:2*nic.BulkMin]),
	}
}

// FuzzStream drives the one frame parser both byte transports use with
// whatever a peer may put on the wire, cut into whatever pieces a socket
// or a ring may deliver it in — ring cells when cuts is a multiple of 4.
// For any input: no panic; no staging buffer beyond nic.MaxStaging and
// no receive buffer beyond a small multiple of the input, every
// placement released exactly once (checked in feed); and the pieces
// deliver exactly the packets — the same bytes at the same offsets,
// whether a frame was placed, staged or parsed in place — and report
// exactly the faults that the same bytes in one piece do.
func FuzzStream(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed, uint64(1), true)
		f.Add(seed, uint64(2), false)
	}
	for _, name := range []string{"placed-header-straddles", "placed-length-fault", "placed-back-to-back"} {
		f.Add(streamSeeds()[name], uint64(4), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64, skip bool) {
		whole, _ := feed(t, data, nil, false, skip)
		pieces, _ := feed(t, data, rand.New(rand.NewSource(int64(cuts))), cuts%4 == 0, skip)
		if !reflect.DeepEqual(whole, pieces) {
			t.Fatalf("in one piece: %+v\nin pieces:    %+v", whole, pieces)
		}
	})
}

// TestStreamSeeds checks what the seeds were written to show, so that a
// parser change that turns one of them into something else is noticed:
// packets and faults in one piece, in random pieces and in ring cells,
// and how many frames were placed when the input came in ring cells.
func TestStreamSeeds(t *testing.T) {
	seeds := streamSeeds()
	for name, want := range map[string]struct {
		packets int
		faults  []FaultKind
		placed  int
	}{
		"empty":                   {0, nil, 0},
		"length-zero":             {0, []FaultKind{BadLength}, 0},
		"length-below-hdr":        {1, []FaultKind{BadLength}, 0},
		"length-above-max":        {1, []FaultKind{BadLength}, 0},
		"length-sentinel":         {0, []FaultKind{BadLength}, 0},
		"under-bulkmin":           {5, nil, 0},
		"over-bulkmin":            {5, nil, 1},
		"above-maxstaging":        {4, nil, 0},
		"truncated-prefix":        {4, nil, 0},
		"truncated-header":        {4, nil, 0},
		"unknown-endpoint":        {0, []FaultKind{UnknownEndpoint}, 0},
		"refused-payload":         {1, []FaultKind{BadPayload}, 0},
		"back-to-back":            {4, nil, 0},
		"placed-header-straddles": {2, nil, 1},
		"placed-refused":          {5, nil, 0},
		"placed-length-fault":     {5, []FaultKind{BadLength}, 1},
		"placed-back-to-back":     {3, nil, 3},
		"placed-truncated":        {4, nil, 1},
	} {
		for _, mode := range []struct {
			rng   *rand.Rand
			cells bool
		}{{nil, false}, {rand.New(rand.NewSource(3)), false}, {rand.New(rand.NewSource(3)), true}} {
			got, placed := feed(t, seeds[name], mode.rng, mode.cells, false)
			var kinds []FaultKind
			for _, f := range got.Faults {
				kinds = append(kinds, f.Kind)
			}
			if n := len(got.Packets[0]) + len(got.Packets[1]); n != want.packets || !reflect.DeepEqual(kinds, want.faults) {
				t.Errorf("%s: %d packets and faults %v, want %d and %v", name, n, kinds, want.packets, want.faults)
			}
			if mode.cells && placed != want.placed {
				t.Errorf("%s in ring cells: %d frames placed, want %d", name, placed, want.placed)
			}
		}
	}
	// The transport that skips an unknown endpoint gets the frame
	// behind it.
	if got, _ := feed(t, seeds["unknown-endpoint"], nil, false, true); len(got.Packets[0]) != 1 || string(got.Packets[0][0].Payload.([]byte)) != "kept" {
		t.Errorf("skipping an unknown endpoint delivered %+v", got.Packets)
	}
}

// TestStreamStagesLargeFrames: a frame of at least nic.BulkMin bytes
// that arrives in pieces is assembled — its body where the codec places
// it or, refused, the frame in a staging buffer the codec takes over;
// one that arrives whole, and any frame of a codec without the split
// side, is decoded out of the receive buffer.
func TestStreamStagesLargeFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		codec  nic.Codec
		lead   byte // the payload's first byte
		pieces int
		how    string // "placed", "staged" or "" (decoded in place)
	}{
		{"split codec, in pieces", new(fussyCodec), 7, 3, "placed"},
		{"split codec, placement refused", new(fussyCodec), fussyRefuse, 3, "staged"},
		{"split codec, whole", new(fussyCodec), 7, 1, ""},
		{"plain codec, in pieces", struct{ nic.Codec }{new(fussyCodec)}, 7, 3, ""},
	} {
		body := bytes.Repeat([]byte{7}, 3*nic.BulkMin)
		body[0] = tc.lead
		wire := appendFrame(nil, 0, 1, body)
		l := testLink(t, tc.codec, 0)
		var s Stream
		s.Init(l.tab, streamMax, func(f Fault) bool { t.Fatalf("%s: fault %v", tc.name, f); return false })
		how := ""
		for i, rest := 0, wire; i < tc.pieces; i++ {
			n := len(rest) / (tc.pieces - i)
			s.Write(rest[:n])
			rest = rest[n:]
			switch {
			case s.asm.placed != nil:
				how = "placed"
			case s.asm.Active():
				how = "staged"
			}
		}
		s.Flush()
		got := l.DrainRQ(make([]fabric.Packet, 0, 2))
		if len(got) != 1 || !bytes.Equal(got[0].Payload.([]byte), body) || got[0].Src != 1 || got[0].Bytes != len(body) {
			t.Fatalf("%s: delivered %d packets, or not the frame", tc.name, len(got))
		}
		if how != tc.how || !s.Idle() {
			t.Fatalf("%s: assembled %q, want %q; idle=%v", tc.name, how, tc.how, s.Idle())
		}
	}
}

// TestStreamAssemblyCounters: with a registry wired and enabled, the
// table's streams count every frame they place or stage, and nothing
// while the registry is disabled.
func TestStreamAssemblyCounters(t *testing.T) {
	reg := metrics.New()
	tab := NewTable()
	tab.SetCodec(new(fussyCodec))
	tab.UseMetrics(reg, "test")
	if err := tab.Register(new(Link), 0); err != nil {
		t.Fatal(err)
	}
	var s Stream
	s.Init(tab, streamMax, func(f Fault) bool { t.Fatalf("fault %v", f); return false })
	feedCells := func(payloads ...[]byte) {
		var wire []byte
		for _, p := range payloads {
			wire = appendFrame(wire, 0, 1, p)
		}
		for len(wire) > 0 {
			n := min(len(wire), nic.BulkMin)
			s.Write(wire[:n])
			wire = wire[n:]
		}
	}
	big := bytes.Repeat([]byte{1}, 2*nic.BulkMin)
	refused := append([]byte{fussyRefuse}, big...)
	feedCells(big, refused)
	reg.Enable()
	feedCells(big, big, refused, []byte("small"))
	snap := reg.Snapshot()
	if p, st := snap.Counter("test.rx.placed"), snap.Counter("test.rx.staged"); p != 2 || st != 1 {
		t.Fatalf("test.rx.placed %d, test.rx.staged %d; want 2 and 1", p, st)
	}
}

// TestStreamDeliveryRuns: consecutive frames for one link reach its
// receive queue in one push at Flush, a change of destination cuts the
// run, and the bound work counter sees every packet once — on top of
// the polling unit each link parks there from BindWork to Close.
func TestStreamDeliveryRuns(t *testing.T) {
	tab := NewTable()
	tab.SetCodec(new(fussyCodec))
	var work counter
	links := []*Link{new(Link), new(Link)}
	for i, l := range links {
		if err := tab.Register(l, fabric.EndpointID(i)); err != nil {
			t.Fatal(err)
		}
		l.BindWork(&work)
	}
	var wire []byte
	for _, dst := range []fabric.EndpointID{0, 0, 0, 1, 1, 0} {
		wire = appendFrame(wire, dst, 9, []byte{byte(dst)})
	}
	var s Stream
	s.Init(tab, streamMax, func(Fault) bool { return false })
	if n := s.Write(wire); n != 6 {
		t.Fatalf("Write queued %d frames, want 6", n)
	}
	if q0, q1 := links[0].QueuedRQ(), links[1].QueuedRQ(); q0 != 3 || q1 != 2 {
		t.Fatalf("before Flush the links hold %d and %d packets, want the two cut runs: 3 and 2", q0, q1)
	}
	s.Flush()
	if q0, q1 := links[0].QueuedRQ(), links[1].QueuedRQ(); q0 != 4 || q1 != 2 || work != 6+2 {
		t.Fatalf("after Flush: %d and %d packets, work %d; want 4, 2 and 6 beside the 2 polling units", q0, q1, work)
	}
	for _, l := range links {
		l.DrainRQ(make([]fabric.Packet, 0, 8))
		l.Close()
		l.Close() // the unit is released once
	}
	if work != 0 {
		t.Fatalf("work %d after every packet was drained and every link closed, want 0", work)
	}
}

// counter is a nic.WorkCounter for single-threaded tests.
type counter int

func (c *counter) Add(d int) { *c += counter(d) }
func (c *counter) Arrived()  {}

// TestStreamForeignSource: a stream bound to the rank on its other end
// (From) delivers that rank's frames, from any of its endpoints, and
// refuses — with a ForeignSource fault naming the source — a frame
// another rank's endpoint claims to have sent; the transport's answer
// decides whether the stream goes on.
func TestStreamForeignSource(t *testing.T) {
	const space = Space(4)
	for _, skip := range []bool{true, false} {
		tab := NewTable()
		tab.SetCodec(new(fussyCodec))
		l := new(Link)
		if err := tab.Register(l, space.EndpointOf(0, 0)); err != nil {
			t.Fatal(err)
		}
		var faults []Fault
		var s Stream
		s.Init(tab, streamMax, func(f Fault) bool { faults = append(faults, f); return skip })
		s.From(space, 1)
		var wire []byte
		for _, src := range []fabric.EndpointID{space.EndpointOf(1, 0), space.EndpointOf(2, 0), space.EndpointOf(1, 3)} {
			wire = appendFrame(wire, space.EndpointOf(0, 0), src, []byte{byte(src)})
		}
		s.Write(wire)
		s.Flush()
		pkts := l.DrainRQ(make([]fabric.Packet, 0, 4))
		want := []fabric.EndpointID{space.EndpointOf(1, 0)}
		if skip {
			want = append(want, space.EndpointOf(1, 3))
		}
		if len(pkts) != len(want) {
			t.Fatalf("skip=%v: %d frames delivered, want %d", skip, len(pkts), len(want))
		}
		for i, p := range pkts {
			if p.Src != want[i] {
				t.Fatalf("skip=%v: frame %d from ep %d, want %d", skip, i, p.Src, want[i])
			}
		}
		if len(faults) != 1 || faults[0].Kind != ForeignSource || faults[0].EP != space.EndpointOf(2, 0) {
			t.Fatalf("skip=%v: faults %v, want one ForeignSource from ep %d", skip, faults, space.EndpointOf(2, 0))
		}
	}
}

// TestStreamPlacedCopyBound: four back-to-back 64 KiB frames the codec
// places (a rendezvous chunk each), fed the way a socket reader feeds
// them — every read fills all of Target — cross the stream's own
// buffer only up to its size: once a frame's header is in, the codec
// places its body and the rest of the body is read straight into it.
// So assemble copies at most streamBufMin bytes of each body out of the
// buffer, however large the frame.
func TestStreamPlacedCopyBound(t *testing.T) {
	const frames, size = 4, 64 << 10
	l := testLink(t, new(fussyCodec), 0)
	codec := l.tab.codec.(*fussyCodec)
	var s Stream
	s.Init(l.tab, streamMax, func(f Fault) bool { t.Fatalf("fault %v", f); return false })
	var wire []byte
	for i := 0; i < frames; i++ {
		wire = appendFrame(wire, 0, 1, bytes.Repeat([]byte{byte(1 + i)}, size))
	}
	var copied []int
	for rest := wire; len(rest) > 0; {
		placed := codec.placed
		n := copy(s.Target(1), rest)
		rest = rest[n:]
		s.Commit(n)
		if codec.placed != placed {
			copied = append(copied, s.asm.got) // what Place took from the buffer
		}
	}
	s.Flush()
	got := l.DrainRQ(make([]fabric.Packet, 0, frames+1))
	if len(got) != frames || len(copied) != frames {
		t.Fatalf("%d frames delivered, %d placed; want %d of each", len(got), len(copied), frames)
	}
	for i, p := range got {
		if b := p.Payload.([]byte); len(b) != size || b[0] != byte(1+i) || b[size-1] != byte(1+i) {
			t.Fatalf("frame %d delivered wrong", i)
		}
	}
	for i, c := range copied {
		if c > streamBufMin {
			t.Errorf("frame %d: %d body bytes copied out of the receive buffer, want at most %d", i, c, streamBufMin)
		}
	}
}
