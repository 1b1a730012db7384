package tensor

import "fmt"

// parallelThreshold32 is the float32 analogue of parallelThreshold. The
// float32 kernels move twice the elements per cache line and (on AVX2
// hosts) eight per instruction, so a product must be several times
// larger before the executor handoff pays for itself.
const parallelThreshold32 = 4 * parallelThreshold

// MatMul32Into computes dst = a · b for rank-2 float32 tensors. dst must
// not alias a or b and must have shape (a.rows, b.cols).
//
// Unlike the float64 kernels there is no skip-zero rule: the float32
// path exists for dense data where zero tests cost more than they save
// and would break the 4-wide axpy blocking. Each output element is still
// summed in a fixed order determined only by the operand shapes, so
// parallel and serial runs are bit-identical.
func MatMul32Into(dst, a, b *Tensor32) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMul32 requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul32 inner dimension mismatch %v · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul32 dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !splitRows(m, m*n*k, parallelThreshold32) || !par32.rows(m, matmul32Rows, dst, a, b) {
		matmul32Rows(dst, a, b, 0, m)
		return
	}
}

// matmul32Rows computes rows [lo,hi) of dst = a·b: zero the output row,
// then accumulate four b-rows at a time through the 4-wide axpy kernel
// (one dst pass per four p values), with a single-row axpy remainder.
func matmul32Rows(dst, a, b *Tensor32, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		aRow := a.Data[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy432(outRow,
				b.Data[p*n:(p+1)*n],
				b.Data[(p+1)*n:(p+2)*n],
				b.Data[(p+2)*n:(p+3)*n],
				b.Data[(p+3)*n:(p+4)*n],
				aRow[p], aRow[p+1], aRow[p+2], aRow[p+3])
		}
		for ; p < k; p++ {
			axpy32(outRow, b.Data[p*n:(p+1)*n], aRow[p])
		}
	}
}

// MatMulTransB32Into computes dst = a · bᵀ for rank-2 float32 tensors
// without materializing the transpose: a is (m, k), b is (n, k), dst is
// (m, n) and must not alias a or b. Four b-rows are processed per dot
// kernel call, sharing the a-row loads.
func MatMulTransB32Into(dst, a, b *Tensor32) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransB32 requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB32 inner dimension mismatch %v · %vᵀ", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB32 dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !splitRows(m, m*n*k, parallelThreshold32) || !par32.rows(m, matmulTransB32Rows, dst, a, b) {
		matmulTransB32Rows(dst, a, b, 0, m)
		return
	}
}

// matmulTransB32Rows computes rows [lo,hi) of dst = a·bᵀ, four output
// columns at a time through the 4-wide dot kernel with a single-dot
// remainder.
func matmulTransB32Rows(dst, a, b *Tensor32, lo, hi int) {
	k, n := a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		outRow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			outRow[j], outRow[j+1], outRow[j+2], outRow[j+3] = dot432(aRow,
				b.Data[j*k:(j+1)*k],
				b.Data[(j+1)*k:(j+2)*k],
				b.Data[(j+2)*k:(j+3)*k],
				b.Data[(j+3)*k:(j+4)*k])
		}
		for ; j < n; j++ {
			outRow[j] = dot32(aRow, b.Data[j*k:(j+1)*k])
		}
	}
}

// MatMulTransA32Into computes dst = aᵀ · b for rank-2 float32 tensors
// without materializing the transpose: a is (k, m), b is (k, n), dst is
// (m, n) and must not alias a or b.
func MatMulTransA32Into(dst, a, b *Tensor32) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransA32 requires rank-2 tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA32 inner dimension mismatch %vᵀ · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA32 dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !splitRows(m, m*n*k, parallelThreshold32) || !par32.rows(m, matmulTransA32Rows, dst, a, b) {
		matmulTransA32Rows(dst, a, b, 0, m)
		return
	}
}

// matmulTransA32Rows computes rows [lo,hi) of dst = aᵀ·b: zero the
// output row, then stream a's column i against b's rows four at a time
// through the 4-wide axpy kernel.
func matmulTransA32Rows(dst, a, b *Tensor32, lo, hi int) {
	k, m, n := a.Shape[0], a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy432(outRow,
				b.Data[p*n:(p+1)*n],
				b.Data[(p+1)*n:(p+2)*n],
				b.Data[(p+2)*n:(p+3)*n],
				b.Data[(p+3)*n:(p+4)*n],
				a.Data[p*m+i], a.Data[(p+1)*m+i], a.Data[(p+2)*m+i], a.Data[(p+3)*m+i])
		}
		for ; p < k; p++ {
			axpy32(outRow, b.Data[p*n:(p+1)*n], a.Data[p*m+i])
		}
	}
}
