package nic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/timing"
)

// num is i as a []byte payload, the kind the endpoint's default codec
// carries; numOf reads it back out of a delivered packet.
func num(i int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(i)) }

func numOf(p fabric.Packet) int { return int(binary.LittleEndian.Uint32(p.Payload.([]byte))) }

// pollCQ and pollRQ drain up to max of l's queued entries (max <= 0:
// all of them) into a fresh slice, nil when there are none.
func pollCQ(l Link, max int) []CQE { return poll(max, l.QueuedCQ(), l.DrainCQ) }

func pollRQ(l Link, max int) []fabric.Packet { return poll(max, l.QueuedRQ(), l.DrainRQ) }

func poll[T any](max, queued int, drain func([]T) []T) []T {
	if max > 0 && max < queued {
		queued = max
	}
	if queued == 0 {
		return nil
	}
	if out := drain(make([]T, 0, queued)); len(out) > 0 {
		return out
	}
	return nil
}

func newPair(t *testing.T, cfg fabric.Config) (*timing.ManualClock, *fabric.Network, *Endpoint, *Endpoint) {
	t.Helper()
	mc := timing.NewManualClock()
	net := fabric.NewNetwork(mc, cfg)
	a := NewEndpoint(net, 0)
	b := NewEndpoint(net, 1)
	return mc, net, a, b
}

func TestInlineSendDelivery(t *testing.T) {
	mc, net, a, b := newPair(t, fabric.Config{Latency: 5 * time.Microsecond})
	a.PostSendInline(b.ID(), []byte("msg"), 32)
	if got := pollRQ(b, 0); got != nil {
		t.Fatal("nothing should have arrived yet")
	}
	net.RunUntil(time.Second)
	_ = mc
	pkts := pollRQ(b, 0)
	if len(pkts) != 1 || !bytes.Equal(pkts[0].Payload.([]byte), []byte("msg")) {
		t.Fatalf("pkts = %v", pkts)
	}
	if pkts[0].Src != a.ID() {
		t.Fatal("wrong source")
	}
	// Inline sends never post CQEs.
	if a.QueuedCQ() != 0 {
		t.Fatal("inline send should not signal completion")
	}
	sent, _, completed := a.Stats()
	if sent != 1 || completed != 0 {
		t.Fatalf("sent=%d completed=%d", sent, completed)
	}
}

func TestSignaledSendCompletion(t *testing.T) {
	_, net, a, b := newPair(t, fabric.Config{
		Latency:              10 * time.Microsecond,
		BandwidthBytesPerSec: 1e9, // 1000 bytes = 1us serialization
	})
	tok := &struct{ name string }{"req"}
	a.PostSend(b.ID(), []byte("data"), 1000, tok)
	net.RunUntil(500 * time.Nanosecond)
	if a.QueuedCQ() != 0 {
		t.Fatal("CQE before wire finished")
	}
	net.RunUntil(2 * time.Microsecond) // tx done at 1us
	cqes := pollCQ(a, 0)
	if len(cqes) != 1 || cqes[0].Token != tok {
		t.Fatalf("cqes = %v", cqes)
	}
	if cqes[0].At != time.Microsecond {
		t.Fatalf("completion at %v, want 1us", cqes[0].At)
	}
	// Arrival happens at txdone + latency = 11us.
	if b.QueuedRQ() != 0 {
		t.Fatal("arrived too early")
	}
	net.RunUntil(time.Second)
	if b.QueuedRQ() != 1 {
		t.Fatalf("queued RQ = %d", b.QueuedRQ())
	}
}

func TestTxSerializationBackToBack(t *testing.T) {
	// Two 1000-byte sends injected together: the second's completion is
	// delayed by the first's wire occupancy.
	_, net, a, b := newPair(t, fabric.Config{
		Latency:              time.Microsecond,
		BandwidthBytesPerSec: 1e9,
	})
	a.PostSend(b.ID(), []byte{}, 1000, 1)
	a.PostSend(b.ID(), []byte{}, 1000, 2)
	net.RunUntil(time.Second)
	cqes := pollCQ(a, 0)
	if len(cqes) != 2 {
		t.Fatalf("cqes = %v", cqes)
	}
	if cqes[0].At != time.Microsecond || cqes[1].At != 2*time.Microsecond {
		t.Fatalf("completion times %v, %v; want 1us, 2us", cqes[0].At, cqes[1].At)
	}
}

func TestPollMaxLimits(t *testing.T) {
	_, net, a, b := newPair(t, fabric.Config{Latency: time.Microsecond})
	for i := 0; i < 5; i++ {
		a.PostSend(b.ID(), num(i), 8, i)
	}
	net.RunUntil(time.Second)
	first := pollCQ(a, 2)
	if len(first) != 2 || first[0].Token != 0 || first[1].Token != 1 {
		t.Fatalf("first = %v", first)
	}
	rest := pollCQ(a, 0)
	if len(rest) != 3 || rest[0].Token != 2 {
		t.Fatalf("rest = %v", rest)
	}
	pk := pollRQ(b, 3)
	if len(pk) != 3 {
		t.Fatalf("rq first batch = %d", len(pk))
	}
	if got := len(pollRQ(b, 0)); got != 2 {
		t.Fatalf("rq rest = %d", got)
	}
}

func TestEmptyPollsCheap(t *testing.T) {
	_, _, a, _ := newPair(t, fabric.Config{})
	if pollCQ(a, 0) != nil || pollRQ(a, 0) != nil {
		t.Fatal("empty polls should return nil")
	}
}

func TestEndpointNodeAndNetwork(t *testing.T) {
	_, net, a, b := newPair(t, fabric.Config{})
	if a.Node() != 0 || b.Node() != 1 {
		t.Fatalf("nodes = %d,%d", a.Node(), b.Node())
	}
	if a.Network() != net {
		t.Fatal("network accessor broken")
	}
}

// Property: any sequence of sends from a to b arrives complete, in
// order, with matching payloads, and CQE count equals signaled sends.
func TestSendStreamProperty(t *testing.T) {
	f := func(sizes []uint16, inline []bool) bool {
		mc := timing.NewManualClock()
		net := fabric.NewNetwork(mc, fabric.Config{
			Latency: 2 * time.Microsecond, Jitter: 3 * time.Microsecond, Seed: 5,
		})
		a := NewEndpoint(net, 0)
		b := NewEndpoint(net, 1)
		n := len(sizes)
		if n > 64 {
			n = 64
		}
		signaled := 0
		for i := 0; i < n; i++ {
			inl := i < len(inline) && inline[i]
			if inl {
				a.PostSendInline(b.ID(), num(i), int(sizes[i]))
			} else {
				a.PostSend(b.ID(), num(i), int(sizes[i]), i)
				signaled++
			}
		}
		net.RunUntil(time.Minute)
		pkts := pollRQ(b, 0)
		if len(pkts) != n {
			return false
		}
		for i, p := range pkts {
			if numOf(p) != i {
				return false
			}
		}
		return len(pollCQ(a, 0)) == signaled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripOwnsItsBytes: what RoundTrip returns references nothing
// of the payload it was given — rewriting the payload afterwards does
// not show — whether the codec splits the body off (one frame the
// decoder takes over) or encodes it whole (a scratch encoding Decode
// copies out of), below and above nic.BulkMin. A payload the codec
// refuses is an error, and an endpoint posts nothing for it.
func TestRoundTripOwnsItsBytes(t *testing.T) {
	for _, c := range []Codec{bytesCodec{}, ByteCodec{}} { // split, whole
		for _, size := range []int{0, 8, BulkMin, 3 * BulkMin} {
			in := make([]byte, size)
			for i := range in {
				in[i] = byte(i)
			}
			out, err := RoundTrip(c, in)
			if err != nil {
				t.Fatalf("%T, %d bytes: %v", c, size, err)
			}
			for i := range in {
				in[i] = ^in[i]
			}
			got := out.([]byte)
			if len(got) != size {
				t.Fatalf("%T: %d bytes came back, want %d", c, len(got), size)
			}
			for i, b := range got {
				if b != byte(i) {
					t.Fatalf("%T, %d bytes: byte %d reads %#x after the payload was rewritten, want %#x", c, size, i, b, byte(i))
				}
			}
		}
	}
	if _, err := RoundTrip(ByteCodec{}, 42); err == nil {
		t.Fatal("ByteCodec encoded an int")
	}
	_, _, a, b := newPair(t, fabric.Config{})
	if err := a.PostSendInline(b.ID(), 42, 8); err == nil {
		t.Fatal("the endpoint posted a payload its codec refused")
	}
	if sent, _, _ := a.Stats(); sent != 0 {
		t.Fatalf("sent = %d after a refused post", sent)
	}
}

// TestPostSendCompletionAllocs: a signaled send's completion costs no
// garbage of its own. The completion handler is bound once per
// endpoint and the token rides in the scheduled event, so PostSend
// plus its CQ drain allocates no more than PostSendInline plus its RQ
// drain — both pay the codec's round trip and the clock's advance.
func TestPostSendCompletionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random; the gate runs in non-race passes")
	}
	mc, _, a, b := newPair(t, fabric.Config{})
	payload := []byte("8 bytes!")
	rq, cq := make([]fabric.Packet, 0, 4), make([]CQE, 0, 4)
	tok := &struct{}{}
	deliver := func() {
		mc.Advance(time.Millisecond)
		if rq = b.DrainRQ(rq); len(rq) != 1 {
			t.Fatalf("drained %d packets, want 1", len(rq))
		}
	}
	inline := func() {
		if err := a.PostSendInline(b.ID(), payload, len(payload)); err != nil {
			t.Fatal(err)
		}
		deliver()
	}
	signaled := func() {
		if err := a.PostSend(b.ID(), payload, len(payload), tok); err != nil {
			t.Fatal(err)
		}
		deliver()
		if cq = a.DrainCQ(cq); len(cq) != 1 || cq[0].Token != tok {
			t.Fatalf("drained %v, want one completion of the token", cq)
		}
	}
	const runs = 1000
	base := testing.AllocsPerRun(runs, inline)
	got := testing.AllocsPerRun(runs, signaled)
	if got > base {
		t.Fatalf("PostSend plus its CQ drain allocates %v objects, PostSendInline plus its RQ drain %v: the completion costs %v", got, base, got-base)
	}
	t.Logf("PostSend %v, PostSendInline %v allocations per message", got, base)
}

// TestPostSendConcurrent: endpoints posting from their own goroutines
// schedule their completions into the heap the dispatch goroutine pops
// (real clock). Each sender's CQ gets every token once, in post order.
func TestPostSendConcurrent(t *testing.T) {
	const senders, perSender = 4, 300
	net := fabric.NewNetwork(nil, fabric.Config{})
	defer net.Stop()
	dst := NewEndpoint(net, 0)
	eps := make([]*Endpoint, senders)
	for i := range eps {
		eps[i] = NewEndpoint(net, 1)
	}
	tokens := make([]int, perSender)
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			cq := make([]CQE, 0, 16)
			for i, got := 0, 0; got < perSender; {
				if i < perSender {
					if err := ep.PostSend(dst.ID(), num(i), 8, &tokens[i]); err != nil {
						t.Error(err)
						return
					}
					i++
				}
				for _, e := range ep.DrainCQ(cq) {
					if e.Token != &tokens[got] {
						t.Errorf("completion %d carries the wrong token", got)
						return
					}
					got++
				}
				runtime.Gosched()
			}
		}(ep)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for received := 0; received < senders*perSender; {
		received += len(pollRQ(dst, 0))
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", received, senders*perSender)
		}
		runtime.Gosched()
	}
}
