package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestProtocolFuzz drives randomized traffic across every protocol
// regime (lightweight/eager/rendezvous/pipeline, same-node and
// inter-node hops),
// random posting orders, wildcard receives, and random progress
// interleavings, and verifies every byte. This is the integrity net
// over the whole messaging stack.
func TestProtocolFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			fuzzOnce(t, seed)
		})
	}
}

func fuzzOnce(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	procs := 2 + rng.Intn(3)       // 2..4
	perNode := 1 + rng.Intn(procs) // mixes same-node and inter-node hops
	const msgsPerPair = 12
	sizes := []int{0, 1, 64, 300, 2048, 70 * 1024, 150 * 1024}

	// Pre-plan the traffic so every rank agrees: plan[src][dst] is the
	// ordered list of message sizes from src to dst.
	plan := make([][][]int, procs)
	for s := range plan {
		plan[s] = make([][]int, procs)
		for d := range plan[s] {
			for m := 0; m < msgsPerPair; m++ {
				plan[s][d] = append(plan[s][d], sizes[rng.Intn(len(sizes))])
			}
		}
	}

	cfg := Config{Procs: procs, ProcsPerNode: perNode, Fabric: fastFabric()}
	run2(t, cfg, func(p *Proc) {
		comm := p.CommWorld()
		me := p.Rank()
		localRng := rand.New(rand.NewSource(seed*1000 + int64(me)))

		// Launch all sends (nonblocking, random order across dsts).
		type plannedSend struct{ dst, idx int }
		var sendsPlan []plannedSend
		for d := 0; d < procs; d++ {
			for i := range plan[me][d] {
				sendsPlan = append(sendsPlan, plannedSend{d, i})
			}
		}
		// Shuffle only across destinations while keeping per-dst order
		// (MPI non-overtaking applies per (src,dst,tag) stream; we use
		// distinct tags so full shuffling would also be legal, but
		// per-dst order lets the receiver use wildcard tags too).
		localRng.Shuffle(len(sendsPlan), func(i, j int) {
			sendsPlan[i], sendsPlan[j] = sendsPlan[j], sendsPlan[i]
		})
		// Restore per-destination order.
		nextIdx := make([]int, procs)
		var sendReqs []*Request
		for _, ps := range sendsPlan {
			idx := nextIdx[ps.dst]
			nextIdx[ps.dst]++
			size := plan[me][ps.dst][idx]
			tag := idx // per-pair sequence as tag
			data := fuzzPayload(me, ps.dst, idx, size)
			sendReqs = append(sendReqs, comm.IsendBytes(data, ps.dst, tag))
			// Occasionally progress mid-initiation.
			if localRng.Intn(3) == 0 {
				p.Progress()
			}
		}

		// Receive everything, with a random mix of eager posting and
		// late (unexpected) posting.
		var recvReqs []*Request
		var checks []func() error
		for s := 0; s < procs; s++ {
			for i, size := range plan[s][me] {
				s, i, size := s, i, size
				buf := make([]byte, size)
				if localRng.Intn(2) == 0 {
					// Let some messages arrive unexpected.
					for spin := 0; spin < localRng.Intn(50); spin++ {
						p.Progress()
					}
				}
				req := comm.IrecvBytes(buf, s, i)
				recvReqs = append(recvReqs, req)
				checks = append(checks, func() error {
					st := req.Status()
					if st.Err != nil {
						return fmt.Errorf("recv %d<-%d msg %d: %v", me, s, i, st.Err)
					}
					if st.Bytes != size || st.Source != s || st.Tag != i {
						return fmt.Errorf("recv %d<-%d msg %d: status %+v", me, s, i, st)
					}
					if !bytes.Equal(buf, fuzzPayload(s, me, i, size)) {
						return fmt.Errorf("recv %d<-%d msg %d: payload mismatch", me, s, i)
					}
					return nil
				})
			}
		}
		WaitAll(sendReqs...)
		WaitAll(recvReqs...)
		for _, check := range checks {
			if err := check(); err != nil {
				t.Error(err)
			}
		}
	})
}

// fuzzPayload generates the deterministic content of one message.
func fuzzPayload(src, dst, idx, size int) []byte {
	out := make([]byte, size)
	seed := byte(src*31 + dst*17 + idx*7)
	for i := range out {
		out[i] = seed + byte(i)
	}
	return out
}

// TestProtocolFuzzWithProgressThreads repeats a smaller fuzz with
// background progress threads on every rank, stressing the concurrent
// arrival/post paths.
func TestProtocolFuzzWithProgressThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const procs = 3
	const msgs = 8
	plan := make([][]int, procs)
	for s := range plan {
		for m := 0; m < msgs; m++ {
			plan[s] = append(plan[s], []int{0, 64, 4096, 100 * 1024}[rng.Intn(4)])
		}
	}
	cfg := Config{Procs: procs, ProcsPerNode: 1, Fabric: fastFabric()}
	run2(t, cfg, func(p *Proc) {
		comm := p.CommWorld()
		stop := p.ProgressThread(nil)
		defer stop()
		me := p.Rank()
		next := (me + 1) % procs
		prev := (me - 1 + procs) % procs
		var reqs []*Request
		bufs := make([][]byte, msgs)
		for i, size := range plan[prev] {
			bufs[i] = make([]byte, size)
			reqs = append(reqs, comm.IrecvBytes(bufs[i], prev, i))
		}
		for i, size := range plan[me] {
			reqs = append(reqs, comm.IsendBytes(fuzzPayload(me, next, i, size), next, i))
		}
		WaitAll(reqs...)
		for i, size := range plan[prev] {
			if !bytes.Equal(bufs[i], fuzzPayload(prev, me, i, size)) {
				t.Errorf("rank %d msg %d mismatch", me, i)
			}
		}
	})
}
