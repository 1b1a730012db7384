package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"fedclust/internal/sched"
)

// parallelThreshold is the minimum number of multiply-adds in a matmul
// before the work is split across the shared executor. Small products
// stay on the calling goroutine to avoid scheduling overhead.
const parallelThreshold = 64 * 1024

// MatMul returns a(m×k) · b(k×n) as a new m×n tensor, parallelizing over
// row blocks when the product is large enough.
func MatMul[T Float](a, b *TensorOf[T]) *TensorOf[T] {
	out := NewOf[T](a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// The three matmul entry points below are the dtype boundary of the
// package: everything else is written once over Float, but products
// dispatch to per-dtype kernels. float64 runs the scalar kernels in this
// file, whose skip-zero summation order the golden fingerprints pin;
// float32 runs the SIMD kernels of matmul32.go and kernels32.go. The
// type switch resolves per instantiation and allocates nothing.

// MatMulInto computes dst = a · b for rank-2 tensors. dst must not alias
// a or b and must have shape (a.rows, b.cols).
func MatMulInto[T Float](dst, a, b *TensorOf[T]) {
	switch d := any(dst).(type) {
	case *Tensor:
		matMulInto64(d, any(a).(*Tensor), any(b).(*Tensor))
	case *Tensor32:
		MatMul32Into(d, any(a).(*Tensor32), any(b).(*Tensor32))
	}
}

// MatMulTransBInto computes dst = a · bᵀ for rank-2 tensors without
// materializing the transpose: a is (m, k), b is (n, k), dst is (m, n)
// and must not alias a or b.
func MatMulTransBInto[T Float](dst, a, b *TensorOf[T]) {
	switch d := any(dst).(type) {
	case *Tensor:
		matMulTransBInto64(d, any(a).(*Tensor), any(b).(*Tensor))
	case *Tensor32:
		MatMulTransB32Into(d, any(a).(*Tensor32), any(b).(*Tensor32))
	}
}

// MatMulTransAInto computes dst = aᵀ · b for rank-2 tensors without
// materializing the transpose: a is (k, m), b is (k, n), dst is (m, n)
// and must not alias a or b.
func MatMulTransAInto[T Float](dst, a, b *TensorOf[T]) {
	switch d := any(dst).(type) {
	case *Tensor:
		matMulTransAInto64(d, any(a).(*Tensor), any(b).(*Tensor))
	case *Tensor32:
		MatMulTransA32Into(d, any(a).(*Tensor32), any(b).(*Tensor32))
	}
}

// matMulInto64 is MatMulInto's float64 kernel.
func matMulInto64(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !splitRows(m, m*n*k, parallelThreshold) || !par64.rows(m, matmulRows, dst, a, b) {
		matmulRows(dst, a, b, 0, m)
		return
	}
}

// cachedProcs caches runtime.GOMAXPROCS(0) so the splitRows gate — on
// the hot path of every matmul, parallel or not — costs one atomic load
// instead of a runtime call. refreshProcs re-reads the live value inside
// parRegion.rows after a successful executor acquire (off the per-call hot
// path), so a mid-process GOMAXPROCS change is picked up at the next
// parallel region; the lag is harmless because the partitioning never
// affects results, only which path computes them.
var cachedProcs atomic.Int32

// procsHint returns the cached GOMAXPROCS value, reading the runtime
// only on first use.
func procsHint() int {
	if p := cachedProcs.Load(); p > 0 {
		return int(p)
	}
	return refreshProcs()
}

// refreshProcs re-reads GOMAXPROCS from the runtime and updates the cache.
func refreshProcs() int {
	p := runtime.GOMAXPROCS(0)
	cachedProcs.Store(int32(p))
	return p
}

// splitRows reports whether an m-row product of `work` multiply-adds is
// worth spreading across the executor, given the dtype's threshold.
// Small products — the per-batch products inside a training step — stay
// on the serial kernels, which perform no scheduling work and no
// allocations.
func splitRows(m, work, threshold int) bool {
	return work >= threshold && procsHint() >= 2 && m >= 2
}

// rowsKernel computes rows [lo, hi) of one matmul variant. The serial
// kernels of both dtypes all have this shape, so the parallel dispatch
// is a plain function value — no per-call closure.
type rowsKernel[T Float] func(dst, a, b *TensorOf[T], lo, hi int)

// parRegion is the operand slot of the in-flight parallel region, one
// per dtype. It is guarded by the executor claim: only the goroutine
// that holds sched.Default()'s claim writes it, and it is cleared before
// the claim is released, so the executor's single-region discipline
// makes the whole dispatch closure-free and allocation-free.
type parRegion[T Float] struct {
	kernel    rowsKernel[T]
	dst, a, b *TensorOf[T]
	chunk, m  int
	// block is the persistent task executor workers run: block i covers
	// rows [i*chunk, min((i+1)*chunk, m)).
	block func(_, blk int)
}

var (
	par64 = newParRegion[float64]()
	par32 = newParRegion[float32]()
)

func newParRegion[T Float]() *parRegion[T] {
	d := &parRegion[T]{}
	d.block = func(_, blk int) {
		lo := blk * d.chunk
		d.kernel(d.dst, d.a, d.b, lo, min(lo+d.chunk, d.m))
	}
	return d
}

// rows runs kernel over contiguous row blocks of [0, m) on the shared
// executor and reports whether it ran. It refuses — returning false,
// caller must run the serial kernel — when the executor is unavailable:
// the call is nested inside a running region (a kernel invoked from a
// client task of the round engine, or from an Env pinned to a private
// pool) or racing a concurrent region. That refusal is what eliminates
// nested oversubscription. The partitioning never affects results: every
// output element is produced by exactly one block with a fixed
// per-element summation order, so parallel and serial runs are
// bit-identical.
func (d *parRegion[T]) rows(m int, kernel rowsKernel[T], dst, a, b *TensorOf[T]) bool {
	if sched.Busy() {
		return false
	}
	p := sched.Default()
	if !p.TryAcquire() {
		return false
	}
	defer p.Release()
	width := min(refreshProcs(), m)
	chunk := (m + width - 1) / width
	blocks := (m + chunk - 1) / chunk
	d.kernel, d.dst, d.a, d.b = kernel, dst, a, b
	d.chunk, d.m = chunk, m
	p.RunAcquired(blocks, width, d.block)
	d.kernel, d.dst, d.a, d.b = nil, nil, nil, nil
	return true
}

// matMulTransBInto64 is MatMulTransBInto's float64 kernel. Each output
// element is the dot product of an a-row with a b-row, summed over p in
// increasing order with the same skip-zero rule as matmulRows, so the
// result is bit-identical to MatMul(a, Transpose(b)).
func matMulTransBInto64(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransB requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v · %vᵀ", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !splitRows(m, m*n*k, parallelThreshold) || !par64.rows(m, matmulTransBRows, dst, a, b) {
		matmulTransBRows(dst, a, b, 0, m)
		return
	}
}

// matmulTransBRows computes rows [lo,hi) of dst = a·bᵀ as dot products of
// contiguous a-rows and b-rows, four b-rows at a time. The blocking only
// adds independent accumulator chains (ILP); each output element is still
// summed over p in increasing order with the skip-zero rule, so results
// are bit-identical to the unblocked form.
//
// The unrolled 3/2/1 remainder cases are load-bearing, not residue: for
// small-n operands (a convolution with few output channels, e.g.
// LeNet-5's first conv) the remainder IS the whole computation, and the
// multi-chain unrolls are what keep it latency-hidden — a single-chain
// scalar remainder measured ~1.7× slower end to end on LeNet forward.
// When touching the summation rule (p order, skip-zero), update ALL
// four bodies identically; the golden-fingerprint suite enforces it.
func matmulTransBRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		outRow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			outRow[j], outRow[j+1], outRow[j+2], outRow[j+3] = s0, s1, s2, s3
		}
		switch n - j {
		case 3:
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			var s0, s1, s2 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
			}
			outRow[j], outRow[j+1], outRow[j+2] = s0, s1, s2
		case 2:
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			var s0, s1 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
			}
			outRow[j], outRow[j+1] = s0, s1
		case 1:
			b0 := b.Data[j*k : (j+1)*k]
			var s0 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
			}
			outRow[j] = s0
		}
	}
}

// matMulTransAInto64 is MatMulTransAInto's float64 kernel. Row i of dst
// accumulates a's column i against b's rows over p in increasing order
// with the same skip-zero rule as matmulRows, so the result is
// bit-identical to MatMul(Transpose(a), b).
func matMulTransAInto64(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransA requires rank-2 tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !splitRows(m, m*n*k, parallelThreshold) || !par64.rows(m, matmulTransARows, dst, a, b) {
		matmulTransARows(dst, a, b, 0, m)
		return
	}
}

// matmulTransARows computes rows [lo,hi) of dst = aᵀ·b, streaming a's
// column i against b's rows.
func matmulTransARows(dst, a, b *Tensor, lo, hi int) {
	k, m, n := a.Shape[0], a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		for p := 0; p < k; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			bRow := b.Data[p*n : (p+1)*n]
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// matmulRows computes rows [lo,hi) of dst = a·b using an ikj loop order
// that streams b rows sequentially (cache-friendly without explicit tiling).
func matmulRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		aRow := a.Data[i*k : (i+1)*k]
		for p, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b.Data[p*n : (p+1)*n]
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j*m+i] = v
		}
	}
	return out
}

// MatVec returns a(m×k) · x(k) as a new length-m vector tensor.
func MatVec(a, x *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(x.Shape) != 1 {
		panic("tensor: MatVec requires a rank-2 matrix and rank-1 vector")
	}
	m, k := a.Shape[0], a.Shape[1]
	if x.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v · %v", a.Shape, x.Shape))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.Data[i*k : (i+1)*k]
		var s float64
		for j, v := range row {
			s += v * x.Data[j]
		}
		out.Data[i] = s
	}
	return out
}

// OuterInto accumulates dst += x ⊗ y for vectors x (m) and y (n) into the
// m×n matrix dst.
func OuterInto(dst, x, y *Tensor) {
	if len(dst.Shape) != 2 || len(x.Shape) != 1 || len(y.Shape) != 1 {
		panic("tensor: OuterInto requires matrix dst and vector x, y")
	}
	m, n := dst.Shape[0], dst.Shape[1]
	if x.Shape[0] != m || y.Shape[0] != n {
		panic(fmt.Sprintf("tensor: OuterInto shape mismatch dst %v, x %v, y %v", dst.Shape, x.Shape, y.Shape))
	}
	for i := 0; i < m; i++ {
		xv := x.Data[i]
		if xv == 0 {
			continue
		}
		row := dst.Data[i*n : (i+1)*n]
		for j, yv := range y.Data {
			row[j] += xv * yv
		}
	}
}
