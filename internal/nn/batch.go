package nn

import (
	"targad/internal/mat"
	"targad/internal/rng"
)

// Batcher yields shuffled mini-batch index slices over n instances.
type Batcher struct {
	N, BatchSize int

	r    *rng.RNG
	perm []int
	pos  int
}

// NewBatcher returns a Batcher over n instances with the given batch
// size (clamped to [1,n]).
func NewBatcher(n, batchSize int, r *rng.RNG) *Batcher {
	if batchSize < 1 {
		batchSize = 1
	}
	if batchSize > n && n > 0 {
		batchSize = n
	}
	return &Batcher{N: n, BatchSize: batchSize, r: r}
}

// Next returns the next batch of indices, reshuffling at every epoch
// boundary. The final batch of an epoch may be short. It returns nil
// when N == 0.
func (b *Batcher) Next() []int {
	if b.N == 0 {
		return nil
	}
	if b.perm == nil || b.pos >= b.N {
		b.perm = b.r.PermInto(b.perm, b.N)
		b.pos = 0
	}
	end := b.pos + b.BatchSize
	if end > b.N {
		end = b.N
	}
	out := b.perm[b.pos:end]
	b.pos = end
	return out
}

// BatchesPerEpoch returns how many Next calls constitute one pass.
func (b *Batcher) BatchesPerEpoch() int {
	if b.N == 0 {
		return 0
	}
	return (b.N + b.BatchSize - 1) / b.BatchSize
}

// Gather copies the given rows of src into a new matrix, preserving
// order.
func Gather(src *mat.Matrix, rows []int) *mat.Matrix {
	return GatherInto(nil, src, rows)
}

// GatherInto copies the given rows of src into dst, preserving order.
// dst is grown (or allocated when nil) via mat.Ensure and returned;
// training loops pass the previous batch's matrix to reuse its storage.
func GatherInto(dst *mat.Matrix, src *mat.Matrix, rows []int) *mat.Matrix {
	return GatherSubsetInto(dst, src, nil, rows)
}

// GatherSubsetInto is GatherInto through an index list: row i of dst is
// src row subset[idx[i]], or src row idx[i] when subset is nil. Training
// loops batch a subset of a pool this way without first copying the
// subset out of it.
func GatherSubsetInto(dst, src *mat.Matrix, subset, idx []int) *mat.Matrix {
	dst = mat.Ensure(dst, len(idx), src.Cols)
	for i, r := range idx {
		if subset != nil {
			r = subset[r]
		}
		copy(dst.Row(i), src.Row(r))
	}
	return dst
}

// GatherVec copies the given positions of src into a new slice.
func GatherVec(src []float64, idx []int) []float64 {
	return GatherVecInto(nil, src, idx)
}

// GatherVecInto copies the given positions of src into dst, reusing
// dst's backing array when capacity allows, and returns the (possibly
// regrown) slice.
func GatherVecInto(dst, src []float64, idx []int) []float64 {
	if cap(dst) < len(idx) {
		dst = make([]float64, len(idx))
	}
	dst = dst[:len(idx)]
	for i, p := range idx {
		dst[i] = src[p]
	}
	return dst
}

// ForEachBatch walks the rows of src that rows lists — every row of src
// when rows is nil — in consecutive batches of at most size rows, and
// calls fn with each batch and the batch's first position in the walk.
// Listed rows are gathered into buf (grown or allocated via GatherInto
// and returned for reuse); consecutive rows are passed through one view
// header over src, cleared when the walk ends so that a layer keeping
// the last batch as its backward operand holds no reference into src
// afterwards. No batch allocates. A whole-set forward pass run this way
// keeps the network's workspaces batch-sized, and since every kernel
// computes each row independently of the rest of its batch, its outputs
// are bitwise those of one pass over the whole set.
func ForEachBatch(buf, src *mat.Matrix, rows []int, size int, fn func(lo int, batch *mat.Matrix)) *mat.Matrix {
	n := src.Rows
	if rows != nil {
		n = len(rows)
	}
	size = max(size, 1)
	var view mat.Matrix
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		batch := &view
		if rows != nil {
			buf = GatherInto(buf, src, rows[lo:hi])
			batch = buf
		} else {
			view = mat.Matrix{Rows: hi - lo, Cols: src.Cols, Data: src.Data[lo*src.Cols : hi*src.Cols]}
		}
		fn(lo, batch)
	}
	view = mat.Matrix{}
	return buf
}
