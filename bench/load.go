package main

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opScore    opKind = iota // POST /score
	opFeedback               // POST /feedback with a truth-labelled verdict
)

// op is one scheduled operation of an open-loop workload.
type op struct {
	due    time.Duration // offset from the start of the load
	kind   opKind
	item   int // index into the pool of pre-encoded bodies for kind
	tenant int // tenant index on routed-tenants, else 0
}

// outcome is what the generator recorded for one operation, as offsets
// from the start of the load. For closed loops due equals sent.
type outcome struct {
	id              int // op index, or the closed loop's request sequence number
	due, sent, done time.Duration
	kind            opKind
	rows            int
	ok              bool
}

// latency is the operation's time from when it was due, which counts
// the wait a stalled server imposes on the requests queued behind it.
func (o outcome) latency() time.Duration { return o.done - o.due }

// late is how far behind its schedule the generator sent the operation.
func (o outcome) late() time.Duration { return o.sent - o.due }

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// arrivals returns round(rate·d) Poisson arrival offsets in [0, d), in
// order. Given how many arrivals fall in an interval, a Poisson
// process places them independently and uniformly, so this is a Poisson
// process conditioned on its count: every seed offers exactly the same
// load, and only the spacing of the requests varies.
func arrivals(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(d)))
	}
	slices.Sort(out)
	return out
}

// zipf draws ranks in [0, n) with P(k) proportional to (k+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}

// openLoop sends every op at its due time, start + op.due, from at most
// workers concurrent senders; an op whose senders are all busy goes out
// late and its latency still counts from when it was due. It returns one
// outcome per op, in op order; ops not sent before ctx ends stay zero.
func openLoop(ctx context.Context, start time.Time, ops []op, workers int, send func(w, i int) (rows int, ok bool)) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				if d := time.Until(start.Add(ops[i].due)); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Since(start)
				rows, ok := send(w, i)
				out[i] = outcome{id: i, due: ops[i].due, sent: sent, done: time.Since(start), kind: ops[i].kind, rows: rows, ok: ok}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop keeps workers senders busy back to back until end (an
// offset from start): each sends its next request as soon as the last
// one returns. seq numbers the requests in the order they start.
func closedLoop(ctx context.Context, start time.Time, end time.Duration, workers int, send func(w, seq int) (rows int, ok bool)) []outcome {
	per := make([][]outcome, workers)
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				sent := time.Since(start)
				if sent >= end {
					return
				}
				id := int(seq.Add(1) - 1)
				rows, ok := send(w, id)
				per[w] = append(per[w], outcome{id: id, due: sent, sent: sent, done: time.Since(start), rows: rows, ok: ok})
			}
		}(w)
	}
	wg.Wait()
	var out []outcome
	for _, o := range per {
		out = append(out, o...)
	}
	return out
}
