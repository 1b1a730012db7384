// Package data provides the dataset substrate of the reproduction: a
// compact in-memory labeled dataset type with batching, and synthetic
// class-conditional image generators standing in for CIFAR-10, Fashion-
// MNIST, and SVHN (see DESIGN.md §2 for why the substitution preserves the
// clustered-FL behaviour the paper studies).
package data

import (
	"fmt"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Dataset is an in-memory labeled dataset of flattened CHW images.
//
// A Dataset (including its cached batchers) may be used by one goroutine
// at a time; the simulator's per-client ownership — each client is
// processed by exactly one executor worker per phase — provides that
// naturally.
type Dataset struct {
	Name    string
	X       *tensor.Tensor // (n, C*H*W)
	Y       []int          // length n, values in [0, Classes)
	Classes int
	C, H, W int

	// batchers caches one *BatcherOf[T] per (element type, batch size)
	// seen — a dataset sees at most a couple of sizes: the training batch
	// and the evaluation batch.
	batchers []any

	// x32 is the lazily built float32 copy of X behind the float32
	// batchers; single-goroutine ownership makes the lazy fill safe
	// without synchronization.
	x32 []float32
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the flattened feature width.
func (d *Dataset) Dim() int { return d.C * d.H * d.W }

// Validate panics if the dataset is internally inconsistent.
func (d *Dataset) Validate() {
	if d.X.Shape[0] != len(d.Y) {
		panic(fmt.Sprintf("data: %s has %d rows but %d labels", d.Name, d.X.Shape[0], len(d.Y)))
	}
	if d.X.Shape[1] != d.Dim() {
		panic(fmt.Sprintf("data: %s feature width %d != C*H*W %d", d.Name, d.X.Shape[1], d.Dim()))
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			panic(fmt.Sprintf("data: %s label %d at row %d out of range", d.Name, y, i))
		}
	}
}

// Subset returns a new dataset containing the given rows (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:    d.Name,
		X:       tensor.New(len(idx), d.Dim()),
		Y:       make([]int, len(idx)),
		Classes: d.Classes,
		C:       d.C, H: d.H, W: d.W,
	}
	for i, src := range idx {
		copy(out.X.Row(i), d.X.Row(src))
		out.Y[i] = d.Y[src]
	}
	return out
}

// LabelHistogram returns the per-class example counts.
func (d *Dataset) LabelHistogram() []int {
	h := make([]int, d.Classes)
	for _, y := range d.Y {
		h[y]++
	}
	return h
}

// LabelDistribution returns the per-class proportions (sums to 1 for
// non-empty datasets).
func (d *Dataset) LabelDistribution() []float64 {
	h := d.LabelHistogram()
	p := make([]float64, len(h))
	if d.Len() == 0 {
		return p
	}
	inv := 1 / float64(d.Len())
	for i, c := range h {
		p[i] = float64(c) * inv
	}
	return p
}

// BatchOf is one minibatch: inputs plus labels.
type BatchOf[T tensor.Float] struct {
	X *tensor.TensorOf[T]
	Y []int
}

// Batch is a float64 minibatch.
type Batch = BatchOf[float64]

// Batches splits the dataset into shuffled minibatches of at most size
// examples. The final partial batch is included. A nil rng disables
// shuffling (deterministic order).
func (d *Dataset) Batches(size int, r *rng.Rng) []Batch {
	if size <= 0 {
		panic(fmt.Sprintf("data: batch size must be positive, got %d", size))
	}
	n := d.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if r != nil {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var out []Batch
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		b := Batch{X: tensor.New(hi-lo, d.Dim()), Y: make([]int, hi-lo)}
		for i := lo; i < hi; i++ {
			copy(b.X.Row(i-lo), d.X.Row(order[i]))
			b.Y[i-lo] = d.Y[order[i]]
		}
		out = append(out, b)
	}
	return out
}

// BatcherOf is the reusable-view counterpart of Batches: it cuts the
// dataset into the same shuffled minibatches but copies each batch into
// one persistent backing buffer instead of materializing every batch of
// every epoch. Next therefore yields views — a returned batch is valid
// only until the next Next or Reset call — and a warm epoch performs no
// heap allocations. A float32 batcher reads the dataset's float32 copy
// of X and consumes the same shuffle draws, so both element types see
// identical batch composition for the same epoch RNG.
type BatcherOf[T tensor.Float] struct {
	d     *Dataset
	x     []T // the dataset's features as T
	size  int
	order []int
	pos   int
	full  *tensor.TensorOf[T] // (size, dim) view over the backing buffer
	tail  *tensor.TensorOf[T] // (n%size, dim) view over its prefix; nil if n%size == 0
	y     []int
}

// Batcher is the float64 batcher.
type Batcher = BatcherOf[float64]

// Batcher returns the dataset's cached float64 batcher for the given
// size (see BatcherFor).
func (d *Dataset) Batcher(size int) *Batcher { return BatcherFor[float64](d, size) }

// BatcherFor returns d's cached batcher over element type T for the
// given size, building it on first use. The cache keeps one batcher per
// distinct (type, size), so alternating training and evaluation passes
// all stay warm.
func BatcherFor[T tensor.Float](d *Dataset, size int) *BatcherOf[T] {
	for _, c := range d.batchers {
		if b, ok := c.(*BatcherOf[T]); ok && b.size == size {
			return b
		}
	}
	b := newBatcher[T](d, size)
	d.batchers = append(d.batchers, b)
	return b
}

// features returns d's feature matrix as T: X itself for float64, and
// for float32 a copy built on first use (one rounding per scalar; the
// float64 X stays canonical).
func features[T tensor.Float](d *Dataset) []T {
	if x, ok := any(d.X.Data).([]T); ok {
		return x
	}
	if d.x32 == nil {
		d.x32 = make([]float32, len(d.X.Data))
		for i, v := range d.X.Data {
			d.x32[i] = float32(v)
		}
	}
	return any(d.x32).([]T)
}

// newBatcher sizes the backing buffer and batch views for the dataset.
func newBatcher[T tensor.Float](d *Dataset, size int) *BatcherOf[T] {
	if size <= 0 {
		panic(fmt.Sprintf("data: batch size must be positive, got %d", size))
	}
	n, dim := d.Len(), d.Dim()
	rows := size
	if n < size {
		rows = n
	}
	b := &BatcherOf[T]{
		d: d, x: features[T](d), size: size,
		order: make([]int, n),
		pos:   n, // exhausted until the first Reset
		y:     make([]int, rows),
	}
	buf := make([]T, rows*dim)
	if n >= size {
		b.full = tensor.FromSlice(buf, size, dim)
	}
	if rem := n % size; rem != 0 {
		b.tail = tensor.FromSlice(buf[:rem*dim], rem, dim)
	}
	return b
}

// Reset rewinds the batcher for a new epoch, reshuffling with r exactly
// as Batches does (each epoch shuffles the identity order, so the stream
// consumption — and therefore the batch composition — is identical). A
// nil rng yields deterministic order.
func (b *BatcherOf[T]) Reset(r *rng.Rng) {
	b.pos = 0
	for i := range b.order {
		b.order[i] = i
	}
	if r != nil {
		r.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	}
}

// Next copies the next minibatch into the reused view and returns it,
// or ok=false when the epoch is exhausted. The final partial batch is
// included, as a smaller view over the same buffer.
func (b *BatcherOf[T]) Next() (batch BatchOf[T], ok bool) {
	n := b.d.Len()
	if b.pos >= n {
		return BatchOf[T]{}, false
	}
	dim := b.d.Dim()
	hi := b.pos + b.size
	x := b.full
	if hi > n {
		hi = n
		x = b.tail
	}
	count := hi - b.pos
	for i := 0; i < count; i++ {
		src := b.order[b.pos+i]
		copy(x.Row(i), b.x[src*dim:(src+1)*dim])
		b.y[i] = b.d.Y[src]
	}
	b.pos = hi
	return BatchOf[T]{X: x, Y: b.y[:count]}, true
}

// Split partitions the dataset into two disjoint parts with the first
// receiving ceil(frac*n) shuffled examples — used for train/validation
// splits inside clients.
func (d *Dataset) Split(frac float64, r *rng.Rng) (*Dataset, *Dataset) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("data: split fraction %v out of [0,1]", frac))
	}
	n := d.Len()
	order := r.Perm(n)
	cut := int(frac*float64(n) + 0.999999)
	if cut > n {
		cut = n
	}
	return d.Subset(order[:cut]), d.Subset(order[cut:])
}

// Merge concatenates datasets with identical geometry into one.
func Merge(parts ...*Dataset) *Dataset {
	if len(parts) == 0 {
		panic("data: Merge of nothing")
	}
	first := parts[0]
	total := 0
	for _, p := range parts {
		if p.Dim() != first.Dim() || p.Classes != first.Classes {
			panic("data: Merge with mismatched geometry")
		}
		total += p.Len()
	}
	out := &Dataset{
		Name:    first.Name,
		X:       tensor.New(total, first.Dim()),
		Y:       make([]int, total),
		Classes: first.Classes,
		C:       first.C, H: first.H, W: first.W,
	}
	row := 0
	for _, p := range parts {
		for i := 0; i < p.Len(); i++ {
			copy(out.X.Row(row), p.X.Row(i))
			out.Y[row] = p.Y[i]
			row++
		}
	}
	return out
}

// FilterClasses returns the subset of d whose labels are in keep.
func (d *Dataset) FilterClasses(keep []int) *Dataset {
	set := make(map[int]bool, len(keep))
	for _, k := range keep {
		set[k] = true
	}
	var idx []int
	for i, y := range d.Y {
		if set[y] {
			idx = append(idx, i)
		}
	}
	return d.Subset(idx)
}
