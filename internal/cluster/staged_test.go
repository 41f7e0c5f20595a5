package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// stagedWorkload drives a fixed multi-round workload through mb from a single
// goroutine: every worker sends `per` messages per round with deterministic
// destinations and sizes. The message value encodes (sender, round, seq).
func stagedWorkload(mb *Mailboxes[int64], workers, rounds, per int) {
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i++ {
				mb.Outbox(w).Send((w+i)%workers, int64(w)<<40|int64(r)<<20|int64(i))
			}
		}
		mb.Exchange()
	}
}

// workloadSize gives each message a deterministic, non-uniform wire size so
// the metering tests exercise byte accounting beyond flat sizes. All sizes
// are multiples of 4 so products with dyadic link costs are exact in float64
// and the staged batched cost sum is bit-identical to the per-message sum.
func workloadSize(m int64) int64 { return 8 + (m%7)*4 }

// dyadicCosts are exactly-representable link costs, so weighted-cost
// accumulation is exact regardless of summation order.
var dyadicCosts = []float64{1, 0.5, 0.25, 2}

func dyadicCost(i, j int) float64 { return dyadicCosts[(i+j)%len(dyadicCosts)] }

// dyadicTopology installs dyadicCost on every cross-worker link.
func dyadicTopology(net *Network) {
	for i := 0; i < net.NumWorkers(); i++ {
		for j := 0; j < net.NumWorkers(); j++ {
			if i != j {
				net.SetLinkCost(i, j, dyadicCost(i, j))
			}
		}
	}
}

// workloadTotals computes by hand what the network must meter for
// stagedWorkload: whole-run Stats, the per-link byte and message matrices,
// and one RoundStats per round. Every message counts once; sender-local
// messages count only as LocalMessages.
func workloadTotals(workers, rounds, per int) (Stats, [][]int64, [][]int64, []RoundStats) {
	var st Stats
	bytes := make([][]int64, workers)
	msgs := make([][]int64, workers)
	for w := range bytes {
		bytes[w] = make([]int64, workers)
		msgs[w] = make([]int64, workers)
	}
	hist := make([]RoundStats, rounds)
	for r := 0; r < rounds; r++ {
		rs := &hist[r]
		rs.Round = r
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i++ {
				to := (w + i) % workers
				if to == w {
					rs.LocalMessages++
					continue
				}
				sz := workloadSize(int64(w)<<40 | int64(r)<<20 | int64(i))
				rs.Messages++
				rs.Bytes += sz
				rs.WeightedCost += float64(sz) * dyadicCost(w, to)
				bytes[w][to] += sz
				msgs[w][to]++
			}
		}
		rs.Attempts = rs.Messages
		st.Messages += rs.Messages
		st.Bytes += rs.Bytes
		st.LocalMessages += rs.LocalMessages
		st.WeightedCost += rs.WeightedCost
	}
	st.Attempts = st.Messages
	st.Rounds = int64(rounds)
	return st, bytes, msgs, hist
}

// TestStagedStatsMatchWorkload: the staged substrate's deferred batch
// metering must account exactly the Stats the workload implies — logical
// messages, attempts, wire bytes, weighted cost, rounds, local deliveries.
func TestStagedStatsMatchWorkload(t *testing.T) {
	const workers, rounds, per = 4, 5, 100
	net := NewNetwork(workers)
	dyadicTopology(net)
	stagedWorkload(NewMailboxes[int64](net, workloadSize), workers, rounds, per)
	want, _, _, _ := workloadTotals(workers, rounds, per)
	if got := net.Stats(); got != want {
		t.Fatalf("staged accounting diverges from the workload:\ngot:  %+v\nwant: %+v", got, want)
	}
	if want.Messages == 0 || want.LocalMessages == 0 || want.WeightedCost == 0 {
		t.Fatalf("degenerate workload: %+v", want)
	}
}

// TestStagedTraceEquivalence: per-link matrices and per-round series must
// also match the workload's hand-computed totals.
func TestStagedTraceEquivalence(t *testing.T) {
	const workers, rounds, per = 4, 3, 50
	net := NewNetwork(workers)
	net.EnableTrace()
	dyadicTopology(net)
	stagedWorkload(NewMailboxes[int64](net, workloadSize), workers, rounds, per)
	_, wantBytes, wantMsgs, wantHist := workloadTotals(workers, rounds, per)
	gotBytes, gotMsgs := net.TrafficMatrix()
	if !reflect.DeepEqual(gotBytes, wantBytes) || !reflect.DeepEqual(gotMsgs, wantMsgs) {
		t.Fatalf("traffic matrices diverge:\ngot bytes %v msgs %v\nwant bytes %v msgs %v", gotBytes, gotMsgs, wantBytes, wantMsgs)
	}
	if got := net.RoundHistory(); !reflect.DeepEqual(got, wantHist) {
		t.Fatalf("round series diverge:\ngot  %+v\nwant %+v", got, wantHist)
	}
}

// TestStagedDeterministicInboxOrder: with concurrent senders, inbox contents
// after Exchange must be byte-identical across runs at every worker count —
// the sender-rank merge makes delivery order independent of scheduling.
func TestStagedDeterministicInboxOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func() [][]int64 {
				net := NewNetwork(workers)
				mb := NewMailboxes[int64](net, nil)
				c := New(workers)
				for r := 0; r < 3; r++ {
					c.Run(func(w int) {
						ob := mb.Outbox(w)
						for i := 0; i < 200; i++ {
							ob.Send((w+i)%workers, int64(w)<<32|int64(r)<<16|int64(i))
						}
					})
					mb.Exchange()
				}
				out := make([][]int64, workers)
				for w := 0; w < workers; w++ {
					out[w] = append([]int64(nil), mb.Receive(w)...)
				}
				return out
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatal("inbox order differs between identical runs")
			}
			// canonical order: ascending sender rank, send order within sender
			for w := 0; w < workers; w++ {
				for i := 1; i < len(a[w]); i++ {
					prevSender, curSender := a[w][i-1]>>32, a[w][i]>>32
					if curSender < prevSender {
						t.Fatalf("inbox %d not in sender-rank order at %d: %x after %x", w, i, a[w][i], a[w][i-1])
					}
					if curSender == prevSender && a[w][i]&0xffff <= a[w][i-1]&0xffff {
						t.Fatalf("inbox %d lost send order at %d", w, i)
					}
				}
			}
		})
	}
}

// TestStagedConcurrentSendersRace exercises the staged Send path from
// concurrent sender goroutines at several worker counts (run with -race).
func TestStagedConcurrentSendersRace(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		net := NewNetwork(workers)
		mb := NewMailboxes[int64](net, nil)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ob := mb.Outbox(w)
				for i := 0; i < 500; i++ {
					ob.Send((w+i)%workers, int64(i))
				}
			}(w)
		}
		wg.Wait()
		if got := mb.Exchange(); got != int64(workers*500) {
			t.Fatalf("workers=%d: delivered %d, want %d", workers, got, workers*500)
		}
	}
}

// TestExchangeReturnsLogicalDeliveries: under a lossy FaultPlan, Exchange
// reports delivered payloads, not transmissions — retries are visible only
// as Stats.Attempts − Stats.Messages, which must equal the injector's
// dropped-message count.
func TestExchangeReturnsLogicalDeliveries(t *testing.T) {
	net := NewNetwork(2)
	fi := NewFaultInjector(FaultPlan{DropProb: 0.5, DropSeed: 9})
	net.setFaults(fi)
	mb := NewMailboxes[int](net, nil)
	const sends = 300
	for i := 0; i < sends; i++ {
		mb.Outbox(0).Send(1, i)
	}
	if got := mb.Exchange(); got != sends {
		t.Fatalf("Exchange returned %d, want %d logical deliveries", got, sends)
	}
	s := net.Stats()
	if s.Messages != sends {
		t.Fatalf("messages %d, want %d", s.Messages, sends)
	}
	dropped := fi.Stats().DroppedMessages
	if dropped == 0 {
		t.Fatalf("p=0.5 never dropped over %d sends", sends)
	}
	if s.Attempts-s.Messages != dropped {
		t.Fatalf("attempts %d − messages %d ≠ dropped %d", s.Attempts, s.Messages, dropped)
	}
	if len(mb.Receive(1)) != sends {
		t.Fatalf("%d payloads delivered, want %d", len(mb.Receive(1)), sends)
	}
}

// TestStatsSnapshotConsistent: Stats() must be an atomic snapshot — under a
// concurrent stream of uniform 8-byte transfers, every snapshot must satisfy
// Bytes == 8·Attempts and Attempts == Messages exactly. The seed's
// independent atomic loads could tear between the fields mid-Account.
func TestStatsSnapshotConsistent(t *testing.T) {
	net := NewNetwork(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			net.Account(0, 1, 8)
		}
	}()
	for {
		s := net.Stats()
		if s.Bytes != 8*s.Attempts || s.Attempts != s.Messages {
			t.Fatalf("torn snapshot: %+v", s)
		}
		select {
		case <-done:
			s := net.Stats()
			if s.Messages != 20000 || s.Bytes != 160000 {
				t.Fatalf("final stats wrong: %+v", s)
			}
			return
		default:
		}
	}
}

type kv struct{ k, v int64 }

// TestCombinerHoistedIntoMailboxes: the substrate-level combiner must merge
// same-key messages in the sender's staging buffer — metering and delivering
// only the combined messages, in first-occurrence order.
func TestCombinerHoistedIntoMailboxes(t *testing.T) {
	net := NewNetwork(2)
	mb := NewMailboxes[kv](net, nil)
	mb.SetCombiner(
		func(m kv) int64 { return m.k },
		func(a, b kv) kv { return kv{a.k, a.v + b.v} },
	)
	ob := mb.Outbox(0)
	for i := 0; i < 100; i++ {
		ob.Send(1, kv{int64(i % 10), 1})
	}
	if got := mb.Exchange(); got != 10 {
		t.Fatalf("delivered %d combined messages, want 10", got)
	}
	in := mb.Receive(1)
	if len(in) != 10 {
		t.Fatalf("inbox has %d messages, want 10", len(in))
	}
	for i, m := range in {
		if m.k != int64(i) || m.v != 10 {
			t.Fatalf("combined message %d = %+v, want key %d sum 10", i, m, i)
		}
	}
	if s := net.Stats(); s.Messages != 10 || s.Bytes != 80 {
		t.Fatalf("combining must meter post-combine traffic: %+v", s)
	}
	// combining state resets between rounds: a second round re-combines fresh
	ob.Send(1, kv{3, 7})
	ob.Send(1, kv{3, 5})
	if got := mb.Exchange(); got != 1 {
		t.Fatalf("second round delivered %d, want 1", got)
	}
	if in := mb.Receive(1); len(in) != 1 || in[0].v != 12 {
		t.Fatalf("second round inbox %+v, want one message with sum 12", in)
	}
}

// TestStagedDropsDrawnAtFlush: drops on the staged path are drawn at flush
// time, but the accounted totals match per-message Network.Account calls for
// the same workload (same seed, same per-message draw count and sizes).
func TestStagedDropsDrawnAtFlush(t *testing.T) {
	plan := FaultPlan{DropProb: 0.4, DropSeed: 21}
	const sends = 500
	staged := NewNetwork(2)
	staged.setFaults(NewFaultInjector(plan))
	mb := NewMailboxes[int64](staged, nil)
	for i := 0; i < sends; i++ {
		mb.Outbox(0).Send(1, int64(i))
	}
	mb.Exchange()
	direct := NewNetwork(2)
	direct.setFaults(NewFaultInjector(plan))
	for i := 0; i < sends; i++ {
		direct.Account(0, 1, 8)
	}
	direct.AccountRound()
	// identical rng seed and draw count with uniform sizes ⇒ identical totals
	if s, d := staged.Stats(), direct.Stats(); s != d {
		t.Fatalf("fault accounting diverges:\nstaged %+v\ndirect %+v", s, d)
	}
	if s := staged.Stats(); s.Attempts <= s.Messages {
		t.Fatalf("no retries drawn at p=0.4: %+v", s)
	}
}
