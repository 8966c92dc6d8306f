package main

import (
	"context"
	"slices"
	"testing"
	"time"
)

func TestArrivalsDeterministicForSeed(t *testing.T) {
	const d = 10 * time.Second
	a := arrivals(newRand(7, 2), 300, d)
	b := arrivals(newRand(7, 2), 300, d)
	c := arrivals(newRand(8, 2), 300, d)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 3000 {
		t.Fatalf("%d arrivals at 300/s over 10 s, want exactly 3000", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= d {
		t.Fatal("arrivals are not sorted offsets inside the interval")
	}
	// Poisson gaps are exponential: their mean is 1/rate and about 1/e
	// of them exceed it.
	var long int
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > d/3000 {
			long++
		}
	}
	if share := float64(long) / float64(len(a)-1); share < 0.33 || share > 0.41 {
		t.Fatalf("%.3f of gaps exceed the mean gap, want about 0.37", share)
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	z := newZipf(12, 1.3)
	draw := func(seed int64) []int {
		r := newRand(seed, 2)
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.draw(r)
		}
		return out
	}
	a, b := draw(3), draw(3)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different tenant sequences")
	}
	var count [12]int
	for _, k := range a {
		count[k]++
	}
	if !(count[0] > count[1] && count[1] > count[2] && count[2] > count[11]) {
		t.Fatalf("rank counts %v do not fall with rank", count)
	}
	// P(rank 0) = 1 / sum_k k^-1.3 over ranks 1..12, about 0.422.
	if share := float64(count[0]) / float64(len(a)); share < 0.40 || share > 0.44 {
		t.Fatalf("rank 0 share %.3f, want about 0.422", share)
	}
}

// TestOpenLoopTimesLatencyFromDueTime drives one sender whose requests
// take 20 ms with three ops due 5 ms apart: the second and third go out
// late, and their latency counts the wait from when they were due.
func TestOpenLoopTimesLatencyFromDueTime(t *testing.T) {
	ops := []op{{due: 0}, {due: 5 * time.Millisecond}, {due: 10 * time.Millisecond}}
	send := func(w, i int) (int, bool) {
		time.Sleep(20 * time.Millisecond)
		return 1, true
	}
	out := openLoop(context.Background(), time.Now(), ops, 1, send)
	for i, o := range out {
		if o.id != i || !o.ok {
			t.Fatalf("outcome %d: %+v", i, o)
		}
		if o.done-o.sent < 20*time.Millisecond {
			t.Fatalf("op %d took %v, less than the send", i, o.done-o.sent)
		}
		if o.latency() != o.done-o.due {
			t.Fatalf("op %d latency %v is not counted from its due time", i, o.latency())
		}
	}
	if late := out[2].late(); late < 30*time.Millisecond {
		t.Fatalf("third op sent %v after it was due, want at least 30ms behind two 20ms sends", late)
	}
	if out[2].latency() < 50*time.Millisecond {
		t.Fatalf("third op latency %v, want at least its 30ms wait plus its 20ms send", out[2].latency())
	}
}

func TestClosedLoopStopsAtEnd(t *testing.T) {
	send := func(w, seq int) (int, bool) {
		time.Sleep(2 * time.Millisecond)
		return 4, true
	}
	out := closedLoop(context.Background(), time.Now(), 30*time.Millisecond, 2, send)
	if len(out) < 4 {
		t.Fatalf("%d requests in 30ms from two senders, want several", len(out))
	}
	seen := map[int]bool{}
	for _, o := range out {
		if o.sent >= 30*time.Millisecond || o.due != o.sent || seen[o.id] {
			t.Fatalf("bad closed-loop outcome %+v", o)
		}
		seen[o.id] = true
	}
}
