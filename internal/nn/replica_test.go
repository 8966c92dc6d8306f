package nn

import (
	"math"
	"sync"
	"testing"

	"targad/internal/mat"
	"targad/internal/rng"
)

// replicaTestNet builds the same network for every call with one seed;
// the 40-wide input is wide enough to reach the blocked GEMM kernels.
func replicaTestNet(t *testing.T) *MLP {
	t.Helper()
	m, err := NewMLP(MLPConfig{Dims: []int{40, 24, 12, 7}, Hidden: ReLU, Output: Identity, Init: HeNormal}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// gradPass is one forward/backward pass: its input batch and the
// dL/d(output) fed back for it.
type gradPass struct{ x, g *mat.Matrix }

// replicaTestPasses returns three passes of different batch sizes. In
// every pass input feature 0 is zero and output column 2 of the loss
// gradient is −0, so the gradient elements they feed are sums of signed
// zeros; the comparisons below are on bit patterns, so the sign of
// each zero must match too, not just its value.
func replicaTestPasses() []gradPass {
	var ps []gradPass
	for i, rows := range []int{33, 5, 17} {
		x := shareTestBatch(rows, 40, int64(20+i))
		g := shareTestBatch(rows, 7, int64(30+i))
		for r := 0; r < rows; r++ {
			x.Set(r, 0, 0)
			g.Set(r, 2, math.Copysign(0, -1))
		}
		ps = append(ps, gradPass{x, g})
	}
	return ps
}

// run feeds one pass through net with the given backward.
func (p gradPass) run(net *MLP, paramsOnly bool) {
	net.Forward(p.x)
	g := p.g.Clone() // Backward may overwrite its argument
	if paramsOnly {
		net.BackwardParams(g)
	} else {
		net.Backward(g)
	}
}

// gradBits snapshots every parameter gradient as raw bit patterns.
func gradBits(net *MLP) [][]uint64 {
	var out [][]uint64
	for _, p := range net.Params() {
		b := make([]uint64, len(p.Grad))
		for i, v := range p.Grad {
			b[i] = math.Float64bits(v)
		}
		out = append(out, b)
	}
	return out
}

func assertSameBits(t *testing.T, what string, got, want [][]uint64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: param %d grad[%d] = %v, want %v", what, i, j,
					math.Float64frombits(got[i][j]), math.Float64frombits(want[i][j]))
			}
		}
	}
}

// TestBackwardParamsMatchesBackward: the training backward skips only
// the first layer's input gradient, so every parameter gradient,
// accumulated over several passes, is bitwise the one Backward gives.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	passes := replicaTestPasses()
	full, train := replicaTestNet(t), replicaTestNet(t)
	full.ZeroGrad()
	train.ZeroGrad()
	for _, p := range passes {
		p.run(full, false)
		p.run(train, true)
	}
	assertSameBits(t, "BackwardParams", gradBits(train), gradBits(full))
}

// TestReplicaGradsSumLikeSerial: passes run concurrently, each on its
// own training replica, then folded into the owner in pass order with
// AddGrads, give bitwise the gradients of accumulating the passes one
// after another on the owner — the classifier step's contract.
func TestReplicaGradsSumLikeSerial(t *testing.T) {
	passes := replicaTestPasses()
	serial := replicaTestNet(t)
	serial.ZeroGrad()
	for _, p := range passes {
		p.run(serial, true)
	}
	want := gradBits(serial)

	owner := replicaTestNet(t)
	nets := []*MLP{owner, owner.TrainReplica(), owner.TrainReplica()}
	var wg sync.WaitGroup
	for i, p := range passes {
		nets[i].ZeroGrad()
		wg.Add(1)
		go func(net *MLP, p gradPass) {
			defer wg.Done()
			p.run(net, true)
		}(nets[i], p)
	}
	wg.Wait()
	for _, r := range nets[1:] {
		owner.AddGrads(r)
	}
	assertSameBits(t, "replica sum", gradBits(owner), want)

	// The replicas share the owner's values: a step on the owner is
	// what the next pass on a replica reads.
	for i, p := range owner.Params() {
		rp := nets[1].Params()[i]
		if &rp.Data[0] != &p.Data[0] {
			t.Fatalf("param %d: replica does not share the owner's values", i)
		}
		if &rp.Grad[0] == &p.Grad[0] {
			t.Fatalf("param %d: replica shares the owner's gradient buffer", i)
		}
	}
}
