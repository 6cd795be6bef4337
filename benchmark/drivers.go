package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/coll"
	"gompix/internal/datatype"
	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/reduceop"
	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
	"gompix/mpix"
)

// Layer drivers call one layer's public API directly, bypassing the
// layers above it, so a per-layer figure moves only when that layer
// does. They run in every traced run, whatever the workload, on worlds
// and links of their own; each measurement gets the same small budget.

// driverSet collects the per-layer figures and the operation accounting
// of the drivers that verify payloads.
type driverSet struct {
	out       map[string]float64
	budget    time.Duration
	seed      uint64
	scratch   string
	attempted int64
	failed    int64
	notes     []string
}

// timed runs batch until the budget is used up (three times at least)
// and returns the median nanoseconds per operation; batch returns the
// operations it performed and the time they took.
func timed(budget time.Duration, batch func() (ops int, d time.Duration)) float64 {
	var per []float64
	var used time.Duration
	for len(per) < 3 || used < budget {
		ops, d := batch()
		used += d
		per = append(per, float64(d)/float64(ops))
	}
	return median(per)
}

func runDrivers(budget time.Duration, seed uint64, scratch string) (*driverSet, error) {
	ds := &driverSet{out: make(map[string]float64), budget: budget, seed: seed, scratch: scratch}
	ds.harness()
	ds.core()
	ds.kernels()
	ds.collSchedules()
	ds.fabric()
	for _, f := range []func() error{ds.simLink, ds.tcpLink, ds.shmLinks, ds.mpiJobs} {
		if err := f(); err != nil {
			return ds, err
		}
	}
	return ds, nil
}

func (ds *driverSet) harness() {
	ds.out["harness.timer_ns"] = timed(ds.budget/4, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			_ = time.Now()
		}
		return 1000, time.Since(t0)
	})
}

// core drives internal/core through a one-rank world whose NULL stream
// carries every hook the MPI runtime registers.
func (ds *driverSet) core() {
	w := mpix.NewWorld(mpix.WithRanks(1))
	w.Run(func(p *mpix.Proc) {
		s := p.NullStream()
		passNs := func() float64 {
			return timed(ds.budget/2, func() (int, time.Duration) {
				t0 := time.Now()
				for i := 0; i < 2000; i++ {
					p.Progress()
				}
				return 2000, time.Since(t0)
			})
		}
		ds.out["core.empty_pass_ns"] = passNs()

		// Slope of the pass over pending tasks that never progress.
		var release atomic.Bool
		pending := func(mpix.Thing) mpix.PollOutcome {
			if release.Load() {
				return mpix.Done
			}
			return mpix.NoProgress
		}
		p.AsyncStart(pending, nil, nil)
		one := passNs()
		for i := 1; i < 256; i++ {
			p.AsyncStart(pending, nil, nil)
		}
		many := passNs()
		release.Store(true)
		for s.PendingAsync() > 0 {
			p.Progress()
		}
		ds.out["core.pass_ns_per_task"] = (many - one) / 255

		done := func(mpix.Thing) mpix.PollOutcome { return mpix.Done }
		ds.out["core.async_start_ns"] = timed(ds.budget/2, func() (int, time.Duration) {
			t0 := time.Now()
			for i := 0; i < 64; i++ {
				p.AsyncStart(done, nil, nil)
			}
			d := time.Since(t0)
			for s.PendingAsync() > 0 {
				p.Progress()
			}
			return 64, d
		})

		ran := 0
		cb := func() { ran++ }
		ds.out["core.defer_run_ns"] = timed(ds.budget/2, func() (int, time.Duration) {
			ran = 0
			t0 := time.Now()
			for i := 0; i < 64; i++ {
				s.Defer(cb)
			}
			for ran < 64 {
				p.Progress()
			}
			return 64, time.Since(t0)
		})

		// Registration cost of a continuation: receives from self that
		// cannot complete yet, one Continue each.
		const n = 64
		cr := p.ContinueInit()
		comm := p.CommWorld()
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, small)
		}
		msg := make([]byte, small)
		fired := 0
		onDone := func(mpix.Status) { fired++ }
		ds.out["mpi.continue_register_ns"] = timed(ds.budget/2, func() (int, time.Duration) {
			reqs := make([]*mpix.Request, n)
			for i := range reqs {
				reqs[i] = comm.IrecvBytes(bufs[i], 0, 9)
			}
			fired = 0
			t0 := time.Now()
			for _, r := range reqs {
				cr.Continue(r, onDone)
			}
			cr.Start()
			d := time.Since(t0)
			for i := 0; i < n; i++ {
				comm.SendBytes(msg, 0, 9)
			}
			cr.Wait()
			cr.Reset()
			ds.attempted += n
			ds.failed += int64(n - fired)
			return n, d
		})
	})
}

// kernels times the reduction and pack kernels on 256 KiB, the
// coll-2x2 large size.
func (ds *driverSet) kernels() {
	const count = reduce / 8
	a, b := make([]byte, reduce), make([]byte, reduce)
	fillReduce(a, ds.seed, 0)
	fillReduce(b, ds.seed, 1)
	gbps := func(bytes int, f func()) float64 {
		ns := timed(ds.budget/2, func() (int, time.Duration) {
			t0 := time.Now()
			for i := 0; i < 8; i++ {
				f()
			}
			return 8, time.Since(t0)
		})
		return float64(bytes) / ns // bytes per ns = GB/s
	}
	ds.out["reduceop.sum_f64_GBps"] = gbps(reduce, func() { reduceop.Apply(reduceop.Sum, datatype.Float64, a, b, count) })
	// count × Byte is the shape IsendBytes hands to the pack engine.
	ds.out["datatype.pack_contig_GBps"] = gbps(reduce, func() { datatype.Pack(b, a, reduce, datatype.Byte) })
	// Every other float64: half the span is payload.
	vec := datatype.Vector(count/2, 1, 2, datatype.Float64)
	ds.out["datatype.pack_vector_GBps"] = gbps(reduce/2, func() { datatype.Pack(b, a, 1, vec) })
}

// instantNet is an in-harness coll.Transport: a send is delivered the
// moment it is issued, so polling four schedules to completion costs
// only what internal/coll itself spends.
type instantNet struct {
	boxes map[[3]int][][]byte // (src, dst, tag) → FIFO
}

type instantRank struct {
	net        *instantNet
	rank, size int
}

type instantReq struct {
	net *instantNet
	key [3]int
	buf []byte
	ok  bool
}

func (r *instantReq) IsComplete() bool {
	if r.ok {
		return true
	}
	q := r.net.boxes[r.key]
	if len(q) == 0 {
		return false
	}
	copy(r.buf, q[0])
	r.net.boxes[r.key] = q[1:]
	r.ok = true
	return true
}

func (t *instantRank) Rank() int { return t.rank }
func (t *instantRank) Size() int { return t.size }

func (t *instantRank) Isend(data []byte, dst, tag int) coll.Completable {
	k := [3]int{t.rank, dst, tag}
	t.net.boxes[k] = append(t.net.boxes[k], append([]byte(nil), data...))
	return &instantReq{ok: true}
}

func (t *instantRank) Irecv(buf []byte, src, tag int) coll.Completable {
	return &instantReq{net: t.net, key: [3]int{src, t.rank, tag}, buf: buf}
}

// collSchedules polls the 8-byte allreduce schedules of four ranks to
// completion on one thread: the scheduling cost of one collective.
func (ds *driverSet) collSchedules() {
	const p = 4
	nodeOf := []int{0, 0, 1, 1}
	sum := func(inout, in []byte) { reduceop.Apply(reduceop.Sum, datatype.Float64, inout, in, len(in)/8) }
	measure := func(mk func(tr coll.Transport, buf []byte) *coll.Schedule) float64 {
		ns := timed(ds.budget/2, func() (int, time.Duration) {
			const rounds = 50
			t0 := time.Now()
			for r := 0; r < rounds; r++ {
				net := &instantNet{boxes: make(map[[3]int][][]byte)}
				bufs := make([][]byte, p)
				scheds := make([]*coll.Schedule, p)
				for i := range scheds {
					bufs[i] = make([]byte, 8)
					putF64(bufs[i], 0, float64(i+r))
					scheds[i] = mk(&instantRank{net, i, p}, bufs[i])
				}
				for left := p; left > 0; {
					left = 0
					for _, s := range scheds {
						s.Poll()
						if !s.IsComplete() {
							left++
						}
					}
				}
				ds.attempted += p
				for i := range bufs {
					if getF64(bufs[i], 0) != float64(p*r+p*(p-1)/2) {
						ds.failed++
					}
				}
			}
			return rounds, time.Since(t0)
		})
		return ns / 1e3
	}
	ds.out["coll.sched_overhead_us"] = measure(func(tr coll.Transport, buf []byte) *coll.Schedule {
		return coll.HierAllreduce(tr, buf, sum, 0, nodeOf)
	})
	ds.out["coll.sched_recdbl_us"] = measure(func(tr coll.Transport, buf []byte) *coll.Schedule {
		return coll.AllreduceRecDbl(tr, buf, sum, 0)
	})
}

// fabric measures what the simulated interconnect adds on top of the
// time its own model asks for: Transmit → deliver, minus flight and
// serialization.
func (ds *driverSet) fabric() {
	net := fabric.NewNetwork(nil, fabric.Config{Seed: int64(ds.seed | 1)})
	defer net.Stop()
	var arrived atomic.Int64
	clock := net.Clock()
	a := net.Attach(0, func(fabric.Packet) {})
	b := net.Attach(1, func(fabric.Packet) { arrived.Store(int64(clock.Now())) })
	model := net.FlightTime(a, b) + net.SerializationTime(small)
	var over []float64
	deadline := time.Now().Add(ds.budget)
	for len(over) < 100 || time.Now().Before(deadline) {
		arrived.Store(0)
		sent := clock.Now()
		if err := net.Transmit(fabric.Packet{Src: a, Dst: b, Bytes: small}, sent+net.SerializationTime(small)); err != nil {
			ds.notes = append(ds.notes, "fabric driver: "+err.Error())
			return
		}
		for arrived.Load() == 0 {
			runtime.Gosched()
		}
		over = append(over, float64(time.Duration(arrived.Load())-sent-model))
	}
	ds.out["fabric.dispatch_overhead_us"] = median(over) / 1e3
}

// ringCodec is the byte codec of the raw-link drivers: payloads are
// []byte, and a decoded payload is copied into the next buffer of a
// ring, one copy out of the transport and no garbage. A consumer must
// be done with a payload before the ring comes round.
type ringCodec struct {
	mu   sync.Mutex
	ring [64][]byte
	next int
}

func (*ringCodec) Encode(buf []byte, payload any) ([]byte, error) {
	b, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("ringCodec: payload is %T", payload)
	}
	return append(buf, b...), nil
}

func (c *ringCodec) Decode(data []byte) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := &c.ring[c.next%len(c.ring)]
	c.next++
	*slot = append((*slot)[:0], data...)
	return *slot, nil
}

// rawEnd is one side of a raw link pair, progressed by its own
// goroutine exactly as a rank's progress pass would: flush, poll the
// receive side, drain both queues.
type rawEnd struct {
	link  nic.Link
	peer  fabric.EndpointID
	flush nic.Flusher
	poll  nic.RxPoller
	rq    []fabric.Packet
	cq    []nic.CQE
}

func newRawEnd(l nic.Link, peer fabric.EndpointID) *rawEnd {
	e := &rawEnd{link: l, peer: peer, rq: make([]fabric.Packet, 0, 64), cq: make([]nic.CQE, 0, 64)}
	e.flush, _ = l.(nic.Flusher)
	e.poll, _ = l.(nic.RxPoller)
	return e
}

func (e *rawEnd) progress() {
	if e.flush != nil {
		e.flush.Flush()
	}
	if e.poll != nil {
		e.poll.PollRecv()
	}
}

// send posts one message the way the MPI layer would: inline up to
// EagerInline, signaled above.
func (e *rawEnd) send(b []byte) error {
	if len(b) <= 256 {
		return e.link.PostSendInline(e.peer, b, len(b))
	}
	return e.link.PostSend(e.peer, b, len(b), nil)
}

// recvN progresses until n messages have arrived and calls fn on each.
// It gives up at the deadline and reports how many arrived.
func (e *rawEnd) recvN(n int, deadline time.Time, fn func([]byte)) int {
	got := 0
	for spins := 0; got < n; spins++ {
		e.progress()
		e.cq = e.link.DrainCQ(e.cq)
		pkts := e.link.DrainRQ(e.rq)
		for _, p := range pkts {
			b, _ := p.Payload.([]byte)
			fn(b)
			got++
		}
		if len(pkts) == 0 {
			// An empty pass yields: the transports' watcher goroutines
			// need a processor to flag readiness.
			runtime.Gosched()
		}
		if spins&1023 == 1023 && time.Now().After(deadline) {
			break
		}
	}
	return got
}

// linkPingPong returns the median half round trip of size-byte messages
// between the two ends, in microseconds. The first payload byte tells
// the echo side whether this is the last round, so the loop needs no
// other control channel.
func (ds *driverSet) linkPingPong(a, b *rawEnd, size int) float64 {
	deadline := time.Now().Add(ds.budget + 10*time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echo := make([]byte, size)
		for last := false; !last; {
			if b.recvN(1, deadline, func(m []byte) { last = len(m) != size || m[0] == 1; copy(echo, m) }) == 0 {
				return
			}
			if b.send(echo) != nil {
				return
			}
		}
		// Let the final echo leave before the goroutine stops progressing.
		for i := 0; i < 64; i++ {
			b.progress()
		}
	}()
	msg := make([]byte, size)
	var samples []int64
	stop := time.Now().Add(ds.budget)
	var seq uint32
	for last := false; !last; {
		seq++
		last = time.Now().After(stop) && len(samples) >= 100
		stamp(msg, ds.seed, seq)
		msg[0] = 0
		if last {
			msg[0] = 1
		}
		t0 := time.Now()
		ds.attempted++
		ok := a.send(msg) == nil && a.recvN(1, deadline, func(m []byte) {
			if len(m) != size || string(m[1:]) != string(msg[1:]) {
				ds.failed++
			}
		}) == 1
		if !ok {
			ds.failed++
			break
		}
		samples = append(samples, int64(time.Since(t0))/2)
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return p50(samples) / 1e3
}

// linkStream returns the payload bandwidth, in 10^6 B/s, of windows of
// `window` size-byte messages from a to b, each window acknowledged by
// one small message.
func (ds *driverSet) linkStream(a, b *rawEnd, size, window int) float64 {
	deadline := time.Now().Add(ds.budget + 10*time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ack := make([]byte, small)
		for last := false; !last; {
			if b.recvN(window, deadline, func(m []byte) { last = len(m) != size || m[0] == 1 }) < window {
				return
			}
			if b.send(ack) != nil {
				return
			}
		}
		for i := 0; i < 64; i++ {
			b.progress()
		}
	}()
	bufs := make([][]byte, window)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	stop := time.Now().Add(ds.budget)
	windows := 0
	t0 := time.Now()
	for last := false; !last; {
		last = time.Now().After(stop) && windows >= 3
		for _, m := range bufs {
			m[0] = 0
			if last {
				m[0] = 1
			}
			ds.attempted++
			if a.send(m) != nil {
				ds.failed++
			}
		}
		if a.recvN(1, deadline, func([]byte) {}) != 1 {
			ds.failed += int64(window)
			break
		}
		windows++
	}
	d := time.Since(t0)
	wg.Wait()
	return float64(windows*window*size) / d.Seconds() / 1e6
}

// simLink is the ping-pong on two links of the default transport: the
// simulated NIC and fabric without the MPI layer.
func (ds *driverSet) simLink() error {
	net := fabric.NewNetwork(nil, fabric.Config{Seed: int64(ds.seed | 1)})
	sim := transport.NewSim(net, func(rank int) int { return rank })
	defer sim.Close()
	la, err := sim.AddLink(0, 0)
	if err != nil {
		return err
	}
	lb, err := sim.AddLink(1, 0)
	if err != nil {
		return err
	}
	ds.out["nic.sim_link_lat_us"] = ds.linkPingPong(newRawEnd(la, lb.ID()), newRawEnd(lb, la.ID()), small)
	return nil
}

// tcpPair builds two raw tcp networks with one link each.
func tcpPair() (nets [2]*tcp.Network, links [2]nic.Link, err error) {
	addrs := make([]string, 2)
	epoch := nextEpoch()
	for r := range nets {
		if nets[r], err = tcp.New(tcp.Config{Rank: r, WorldSize: 2, Epoch: epoch}); err != nil {
			return nets, links, err
		}
		nets[r].SetCodec(&ringCodec{})
		addrs[r] = nets[r].Addr()
	}
	for r, n := range nets {
		n.SetPeerAddrs(addrs)
		if links[r], err = n.AddLink(r, 0); err != nil {
			return nets, links, err
		}
		if err = n.Start(); err != nil {
			return nets, links, err
		}
	}
	return nets, links, nil
}

func (ds *driverSet) tcpLink() error {
	// Time to the first delivered frame: bind, accept loop, lazy dial.
	var dial []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		nets, links, err := tcpPair()
		if err != nil {
			return err
		}
		a, b := newRawEnd(links[0], links[1].ID()), newRawEnd(links[1], links[0].ID())
		ds.attempted++
		if a.send(make([]byte, small)) != nil || b.recvNWith(a, 1) != 1 {
			ds.failed++
		}
		dial = append(dial, time.Since(t0).Seconds())
		if i == 2 {
			ds.out["tcp.link_lat_us"] = ds.linkPingPong(a, b, small)
			ds.out["tcp.link_bw_MBps"] = ds.linkStream(a, b, eager, 16)
		}
		nets[0].Close()
		nets[1].Close()
	}
	ds.out["tcp.dial_s"] = median(dial)
	return nil
}

// recvNWith is recvN for a single thread driving both ends.
func (e *rawEnd) recvNWith(other *rawEnd, n int) int {
	deadline := time.Now().Add(10 * time.Second)
	got := 0
	for got < n && time.Now().Before(deadline) {
		other.progress()
		e.progress()
		got += len(e.link.DrainRQ(e.rq))
	}
	return got
}

// shmPair builds two raw shm networks over one directory; with comp set
// each is wrapped in the composite router with both ranks on one node,
// so every frame still rides the shm leg.
func (ds *driverSet) shmPair(comp bool) (closers []func() error, links [2]nic.Link, err error) {
	epoch := nextEpoch()
	var tcps [2]*tcp.Network
	addrs := make([]string, 2)
	starts := make([]func() error, 2)
	for r := 0; r < 2; r++ {
		sn, err := shm.New(shm.Config{Rank: r, WorldSize: 2, Epoch: epoch, Dir: ds.scratch})
		if err != nil {
			return closers, links, err
		}
		if !comp {
			sn.SetCodec(&ringCodec{})
			closers = append(closers, sn.Close)
			starts[r] = sn.Start
			if links[r], err = sn.AddLink(r, 0); err != nil {
				return closers, links, err
			}
			continue
		}
		if tcps[r], err = tcp.New(tcp.Config{Rank: r, WorldSize: 2, Epoch: epoch}); err != nil {
			return closers, links, err
		}
		addrs[r] = tcps[r].Addr()
		cn, err := composite.New(composite.Config{Rank: r, WorldSize: 2, NodeOf: []int{0, 0}}, sn, tcps[r])
		if err != nil {
			return closers, links, err
		}
		cn.SetCodec(&ringCodec{})
		closers = append(closers, cn.Close)
		starts[r] = cn.Start
		if links[r], err = cn.AddLink(r, 0); err != nil {
			return closers, links, err
		}
	}
	for r := 0; r < 2; r++ {
		if comp {
			tcps[r].SetPeerAddrs(addrs)
		}
		if err := starts[r](); err != nil {
			return closers, links, err
		}
	}
	return closers, links, nil
}

func (ds *driverSet) shmLinks() error {
	var setup []float64
	var raw float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		closers, links, err := ds.shmPair(false)
		if err == nil {
			setup = append(setup, time.Since(t0).Seconds())
			if i == 2 {
				a, b := newRawEnd(links[0], links[1].ID()), newRawEnd(links[1], links[0].ID())
				raw = ds.linkPingPong(a, b, small)
				ds.out["shm.link_lat_us"] = raw
				ds.out["shm.link_bw_MBps"] = ds.linkStream(a, b, eager, 16)
			}
		}
		for _, c := range closers {
			c()
		}
		if err != nil {
			return err
		}
	}
	ds.out["shm.segment_setup_s"] = median(setup)

	closers, links, err := ds.shmPair(true)
	if err == nil {
		a, b := newRawEnd(links[0], links[1].ID()), newRawEnd(links[1], links[0].ID())
		ds.out["composite.overhead_ns"] = (ds.linkPingPong(a, b, small) - raw) * 1e3
	}
	for _, c := range closers {
		c()
	}
	return err
}

// mpiJobs runs the references that need whole worlds of their own,
// through the same phase engine as the workloads, three short blocks
// each.
func (ds *driverSet) mpiJobs() error {
	pp := phasePlan{warm: ds.budget, block: ds.budget, ref: 3}
	run := func(b backend, ranks int, specs ...phaseSpec) ([]*phaseResult, error) {
		pps := make([]phasePlan, len(specs))
		for i := range pps {
			pps[i] = pp
		}
		j := newJob(specs, pps, ds.seed, make([]int64, len(specs)))
		if err := j.run(b, ranks, ds.scratch); err != nil {
			return nil, err
		}
		ds.attempted += j.attempted.Load()
		ds.failed += j.failed()
		ds.notes = append(ds.notes, j.firstBad...)
		return j.phases, nil
	}

	res, err := run(backendSim, 2,
		phaseSpec{name: "contpoll", kind: kindContPoll, size: small, window: 64},
		phaseSpec{name: "stream-1vci", kind: kindStreamVCI, size: small, window: 64, vcis: 1},
		phaseSpec{name: "stream-4vci", kind: kindStreamVCI, size: small, window: 64, vcis: 4})
	if err != nil {
		return err
	}
	ds.out["mpi.contpoll_rate_mmsg_s"] = res[0].RateOpsS / 1e6
	if res[1].RateOpsS > 0 {
		ds.out["mpi.rate_4vci_ratio"] = res[2].RateOpsS / res[1].RateOpsS
	}

	// The legacy in-process rings: both ranks on one simulated node.
	if res, err = run(backendSimNode, 2, phaseSpec{name: "shmem-pingpong", kind: kindPingPong, size: small}); err != nil {
		return err
	}
	ds.out["shmem.pingpong_p50_us"] = res[0].P50ns / 1e3

	// Flat four-rank allreduces: what the hierarchy of coll-2x2 is
	// measured against.
	flat := phaseSpec{name: "allreduce-flat", kind: kindAllreduce, size: 8}
	if res, err = run(backendTCP, 4, flat); err != nil {
		return err
	}
	ds.out["coll.flat_tcp_small_p50_us"] = res[0].P50ns / 1e3
	if res, err = run(backendShm, 4, flat); err != nil {
		return err
	}
	ds.out["coll.flat_shm_small_p50_us"] = res[0].P50ns / 1e3
	return nil
}
