package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution over CHW images.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate panics if the geometry is degenerate.
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv stride/pad %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// Im2Col unrolls a single CHW image (flat slice of length InC*InH*InW) into
// a (OutH*OutW) × (InC*KH*KW) matrix written into cols. Each row of the
// result is the receptive field of one output pixel, so convolution becomes
// cols · Wᵀ. cols must have exactly that shape.
func Im2Col[T Float](img []T, g ConvGeom, cols *TensorOf[T]) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if cols.Shape[0] != outH*outW || cols.Shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Im2Col cols shape %v, want [%d %d]", cols.Shape, outH*outW, rowLen))
	}
	Im2ColInto(img, g, cols.Data)
}

// Im2ColInto is Im2Col writing into a flat destination slice of length
// exactly OutH*OutW × InC*KH*KW — the allocation-free form layers use to
// unroll each image of a batch into its slice of a shared workspace.
// It is pure data movement, so both element types share this one body.
func Im2ColInto[T Float](img []T, g ConvGeom, dst []T) {
	g.Validate()
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(dst) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), outH*outW*rowLen))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			dst := dst[(oy*outW+ox)*rowLen:][:rowLen]
			di := 0
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							dst[di] = 0
						} else {
							dst[di] = img[chanBase+iy*g.InW+ix]
						}
						di++
					}
				}
			}
		}
	}
}

// Col2Im scatters the columns gradient back into image space: the adjoint
// of Im2Col. grad has shape (OutH*OutW) × (InC*KH*KW); the result is
// accumulated into img (which must be pre-zeroed by the caller if a fresh
// gradient is wanted).
func Col2Im[T Float](grad *TensorOf[T], g ConvGeom, img []T) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if grad.Shape[0] != outH*outW || grad.Shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2Im grad shape %v, want [%d %d]", grad.Shape, outH*outW, rowLen))
	}
	Col2ImInto(grad.Data, g, img)
}

// Col2ImInto is Col2Im reading from a flat gradient slice of length
// exactly OutH*OutW × InC*KH*KW — the allocation-free adjoint layers use
// per image of a batched workspace. img accumulates and must be
// pre-zeroed by the caller if a fresh gradient is wanted. Each image
// pixel receives its sums in (oy, ox)-major then (ky, kx) order for
// either element type.
func Col2ImInto[T Float](grad []T, g ConvGeom, img []T) {
	g.Validate()
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(grad) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Col2Im grad length %d, want %d", len(grad), outH*outW*rowLen))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			src := grad[(oy*outW+ox)*rowLen:][:rowLen]
			si := 0
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[chanBase+iy*g.InW+ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

// Im2Col32Into is Im2ColInto on float32 slices.
func Im2Col32Into(img []float32, g ConvGeom, dst []float32) { Im2ColInto(img, g, dst) }

// Col2Im32Into is Col2ImInto on float32 slices.
func Col2Im32Into(grad []float32, g ConvGeom, img []float32) { Col2ImInto(grad, g, img) }
