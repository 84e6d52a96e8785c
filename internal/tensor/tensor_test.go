package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(3, 4, 5)
	if a.Len() != 60 {
		t.Fatalf("Len = %d, want 60", a.Len())
	}
	if a.Rank() != 3 || a.Dim(0) != 3 || a.Dim(2) != 5 {
		t.Fatalf("bad shape: %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestFullOnes(t *testing.T) {
	a := Full(2.5, 2, 2)
	for _, v := range a.Data {
		if v != 2.5 {
			t.Fatalf("Full element = %v", v)
		}
	}
	b := Ones(4)
	if Sum(b) != 4 {
		t.Fatalf("Ones sum = %v", Sum(b))
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[0] = 9
	if a.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	a := New(4, 6)
	b := a.Reshape(2, -1)
	if b.Shape[1] != 12 {
		t.Fatalf("inferred dim = %d, want 12", b.Shape[1])
	}
	b.Data[0] = 7
	if a.Data[0] != 7 {
		t.Fatal("Reshape must share data")
	}
}

func TestReshapePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Reshape(3)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3)
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Fatal("At/Set round trip failed")
	}
	if a.Data[1*3+2] != 5 {
		t.Fatal("row-major offset wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Row must be a view")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{4, 3, 2, 1}, 4)
	if got := Add(a, b); got.Data[0] != 5 || got.Data[3] != 5 {
		t.Fatalf("Add = %v", got.Data)
	}
	if got := Sub(a, b); got.Data[0] != -3 || got.Data[3] != 3 {
		t.Fatalf("Sub = %v", got.Data)
	}
	if got := Mul(a, b); got.Data[1] != 6 {
		t.Fatalf("Mul = %v", got.Data)
	}
	if got := Div(a, b); got.Data[3] != 4 {
		t.Fatalf("Div = %v", got.Data)
	}
	if got := Scale(a, 2); got.Data[2] != 6 {
		t.Fatalf("Scale = %v", got.Data)
	}
	if got := Neg(a); got.Data[0] != -1 {
		t.Fatalf("Neg = %v", got.Data)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AddInPlace(a, b)
	if a.Data[1] != 22 {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 5.5 {
		t.Fatalf("ScaleInPlace = %v", a.Data)
	}
	AXPY(2, b, a)
	if a.Data[0] != 25.5 {
		t.Fatalf("AXPY = %v", a.Data)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, 0}, 4)
	if Sum(a) != 2 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Mean(a) != 0.5 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	if Dot(a, a) != 14 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
	if math.Abs(float64(Norm2(a))-math.Sqrt(14)) > 1e-6 {
		t.Fatalf("Norm2 = %v", Norm2(a))
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgMaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

// transpose returns aᵀ for a rank-2 a: the oracle of the a@bᵀ and aᵀ@b
// tests.
func transpose(a *Tensor) *Tensor {
	r, c := a.Shape[0], a.Shape[1]
	out := New(c, r)
	transposeInto(out.Data, r, a.Data, c, r, c)
	return out
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("Transpose shape %v", at.Shape)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", at.Data)
	}
}

func TestTransposeLargeRoundTrip(t *testing.T) {
	r := NewRNG(1)
	a := Randn(r, 1, 67, 129)
	b := transpose(transpose(a))
	if !a.AllClose(b, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestSumRowsSumCols(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	sr := SumRows(a)
	if sr.Data[0] != 5 || sr.Data[1] != 7 || sr.Data[2] != 9 {
		t.Fatalf("SumRows = %v", sr.Data)
	}
	sc := SumCols(a)
	if sc.Data[0] != 6 || sc.Data[1] != 15 {
		t.Fatalf("SumCols = %v", sc.Data)
	}
}

func TestAddMulRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float32{10, 20}, 2)
	AddRowVector(a, v)
	if a.At(0, 0) != 11 || a.At(1, 1) != 24 {
		t.Fatalf("AddRowVector = %v", a.Data)
	}
	AddRowVector(a, v)
	if a.At(0, 1) != 42 {
		t.Fatalf("AddRowVector twice = %v", a.Data)
	}
}

func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				sum += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(sum), i, j)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := NewRNG(42)
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {33, 65, 17}, {64, 64, 64}} {
		a := Randn(r, 1, dims[0], dims[1])
		b := Randn(r, 1, dims[1], dims[2])
		got := MatMul(a, b)
		want := matmulNaive(a, b)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

// The into-form overwrites whatever the caller's storage held.
func TestMatMulIntoReusesStorage(t *testing.T) {
	r := NewRNG(7)
	a := Randn(r, 1, 8, 8)
	b := Randn(r, 1, 8, 8)
	out := Full(99, 8, 8)
	GroupedMatMulInto(out, a, []int{0, 8}, []*Tensor{b})
	bitwiseEq(t, "GroupedMatMulInto into used storage", out.Data, MatMul(a, b).Data)
}

func TestMatMulTransB(t *testing.T) {
	r := NewRNG(3)
	a := Randn(r, 1, 9, 5)
	b := Randn(r, 1, 7, 5)
	got := MatMulTransB(a, b)
	want := MatMul(a, transpose(b))
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	r := NewRNG(4)
	a := Randn(r, 1, 6, 9)
	b := Randn(r, 1, 6, 4)
	got := MatMulTransA(a, b)
	want := MatMul(transpose(a), b)
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTransA mismatch")
	}
}

// A matrix-vector product is MatMul against a one-column b.
func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{1, 1}, 2, 1)
	got := MatMul(a, x)
	if got.Data[0] != 3 || got.Data[1] != 7 {
		t.Fatalf("MatMul(a, x) = %v", got.Data)
	}
}

func TestBatchMatMul(t *testing.T) {
	r := NewRNG(5)
	a := Randn(r, 1, 3, 4, 5)
	b := Randn(r, 1, 3, 5, 6)
	got := BatchMatMul(a, b)
	for bi := 0; bi < 3; bi++ {
		as := FromSlice(a.Data[bi*20:(bi+1)*20], 4, 5)
		bs := FromSlice(b.Data[bi*30:(bi+1)*30], 5, 6)
		want := MatMul(as, bs)
		gs := FromSlice(got.Data[bi*24:(bi+1)*24], 4, 6)
		if !gs.AllClose(want, 1e-4) {
			t.Fatalf("BatchMatMul batch %d mismatch", bi)
		}
	}
}

func TestBatchMatMulTransB(t *testing.T) {
	r := NewRNG(6)
	a := Randn(r, 1, 2, 4, 5)
	b := Randn(r, 1, 2, 3, 5)
	got := BatchMatMulTransB(a, b)
	for bi := 0; bi < 2; bi++ {
		as := FromSlice(a.Data[bi*20:(bi+1)*20], 4, 5)
		bs := FromSlice(b.Data[bi*15:(bi+1)*15], 3, 5)
		want := MatMulTransB(as, bs)
		gs := FromSlice(got.Data[bi*12:(bi+1)*12], 4, 3)
		if !gs.AllClose(want, 1e-4) {
			t.Fatalf("BatchMatMulTransB batch %d mismatch", bi)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s := SoftmaxRows(a)
	for i := 0; i < 2; i++ {
		var sum float32
		for j := 0; j < 3; j++ {
			sum += s.At(i, j)
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Large-value row must be stable (no NaN) and uniform.
	if math.Abs(float64(s.At(1, 0))-1.0/3) > 1e-5 {
		t.Fatalf("softmax of constant row = %v", s.Row(1))
	}
	if s.At(0, 2) <= s.At(0, 1) {
		t.Fatal("softmax not monotone")
	}
}

func TestLayerNormRows(t *testing.T) {
	r := NewRNG(9)
	a := Randn(r, 3, 4, 64)
	gamma := Ones(64)
	beta := Zeros(64)
	out := LayerNormRows(a, gamma, beta, 1e-5)
	for i := 0; i < 4; i++ {
		row := out.Row(i)
		var mean, varsum float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= 64
		for _, v := range row {
			d := float64(v) - mean
			varsum += d * d
		}
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean = %v", i, mean)
		}
		if math.Abs(varsum/64-1) > 1e-2 {
			t.Fatalf("row %d var = %v", i, varsum/64)
		}
	}
}

func TestLayerNormGammaBeta(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	gamma := Full(2, 4)
	beta := Full(1, 4)
	out := LayerNormRows(a, gamma, beta, 1e-5)
	// gamma scales, beta shifts: mean of out must be beta (1).
	if math.Abs(float64(Mean(out))-1) > 1e-4 {
		t.Fatalf("mean = %v, want 1", Mean(out))
	}
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float32{-2, 0, 2}, 3)
	relu := ReLU(a)
	if relu.Data[0] != 0 || relu.Data[2] != 2 {
		t.Fatalf("ReLU = %v", relu.Data)
	}
	g := GELU(a)
	if g.Data[1] != 0 {
		t.Fatalf("GELU(0) = %v", g.Data[1])
	}
	if g.Data[2] < 1.9 || g.Data[2] > 2 {
		t.Fatalf("GELU(2) = %v", g.Data[2])
	}
	if g.Data[0] > 0 || g.Data[0] < -0.1 {
		t.Fatalf("GELU(-2) = %v", g.Data[0])
	}
	sg := Sigmoid(Zeros(1))
	if sg.Data[0] != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", sg.Data[0])
	}
	th := Tanh(Zeros(1))
	if th.Data[0] != 0 {
		t.Fatalf("Tanh(0) = %v", th.Data[0])
	}
}

func TestGELUGradNumerically(t *testing.T) {
	xs := FromSlice([]float32{-3, -1, -0.1, 0, 0.1, 1, 3}, 7)
	grad := GELUGrad(xs)
	const h = 1e-3
	for i, x := range xs.Data {
		fp := geluScalar(x + h)
		fm := geluScalar(x - h)
		num := (fp - fm) / (2 * h)
		if math.Abs(float64(num-grad.Data[i])) > 1e-2 {
			t.Fatalf("GELUGrad(%v) = %v, numeric %v", x, grad.Data[i], num)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	if NewRNG(123).Uint64() == c.Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(99)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split streams identical")
	}
}

func TestRandnMoments(t *testing.T) {
	r := NewRNG(11)
	a := Randn(r, 2, 10000)
	m := float64(Mean(a))
	if math.Abs(m) > 0.1 {
		t.Fatalf("mean = %v", m)
	}
	var varsum float64
	for _, v := range a.Data {
		varsum += float64(v-float32(m)) * float64(v-float32(m))
	}
	varsum /= float64(a.Len())
	if math.Abs(varsum-4) > 0.3 {
		t.Fatalf("var = %v, want ~4", varsum)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(12)
	a := Uniform(r, -2, 3, 1000)
	if slices.Min(a.Data) < -2 || slices.Max(a.Data) >= 3 {
		t.Fatalf("Uniform out of range: [%v, %v]", slices.Min(a.Data), slices.Max(a.Data))
	}
}

func TestXavierKaimingRanges(t *testing.T) {
	r := NewRNG(13)
	x := XavierInit(r, 100, 100, 100, 100)
	limit := float32(math.Sqrt(6.0 / 200))
	if slices.Max(x.Data) > limit || slices.Min(x.Data) < -limit {
		t.Fatal("Xavier init out of range")
	}
}

func TestParallelCoversRange(t *testing.T) {
	n := 10000
	hit := make([]bool, n)
	Parallel(n, func(s, e int) {
		for i := s; i < e; i++ {
			if hit[i] {
				t.Error("index visited twice")
			}
			hit[i] = true
		}
	})
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	n := 37
	var total int64
	counts := make([]int32, n)
	ParallelRows(n, func(s, e int) {
		for i := s; i < e; i++ {
			counts[i]++
		}
	})
	for _, c := range counts {
		total += int64(c)
		if c != 1 {
			t.Fatalf("row visited %d times", c)
		}
	}
	if total != int64(n) {
		t.Fatalf("total = %d", total)
	}
}

// ParallelWork decides on rows × cols, so a wide matrix of few rows
// fans out where the bare row count would not, and the row-wise
// kernels built on it return the same bits however they are chunked.
func TestParallelWorkDecidesOnTotal(t *testing.T) {
	prev := setMaxWorkers(4)
	defer setMaxWorkers(prev)
	chunks := func(run func(fn func(s, e int))) int32 {
		var n atomic.Int32
		run(func(s, e int) { n.Add(1) })
		return n.Load()
	}
	if n := chunks(func(fn func(s, e int)) { ParallelWork(8, minParallel/8-1, fn) }); n != 1 {
		t.Fatalf("below the threshold ran in %d chunks", n)
	}
	if n := chunks(func(fn func(s, e int)) { ParallelWork(8, minParallel/8, fn) }); n != 4 {
		t.Fatalf("8 rows of %d ran in %d chunks, want 4", minParallel/8, n)
	}
	if n := chunks(func(fn func(s, e int)) { ParallelWork(1, 1<<20, fn) }); n != 1 {
		t.Fatalf("one row ran in %d chunks", n)
	}

	r := NewRNG(33)
	a, g, b := Randn(r, 1, 9, 600), Randn(r, 1, 600), Randn(r, 1, 600)
	kernels := []func() []float32{
		func() []float32 { return LayerNormRows(a, g, b, 1e-5).Data },
		func() []float32 { return SoftmaxRows(a).Data },
		func() []float32 { return SumCols(a).Data },
		func() []float32 { c := a.Clone(); AddRowVector(c, g); AddRowVector(c, b); return c.Data },
		func() []float32 {
			var idx []float32
			for _, i := range ArgMaxRows(a) {
				idx = append(idx, float32(i))
			}
			return idx
		},
	}
	for i, k := range kernels {
		setMaxWorkers(4)
		fanned := k()
		setMaxWorkers(1)
		bitwiseEq(t, fmt.Sprintf("row-wise kernel %d", i), fanned, k())
	}
}

// setMaxWorkers bounds the number of goroutines parallel kernels use;
// n < 1 resets it to GOMAXPROCS. It returns the previous bound.
func setMaxWorkers(n int) int {
	workerMu.Lock()
	defer workerMu.Unlock()
	prev := maxWorkers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
	return prev
}

func TestSetMaxWorkers(t *testing.T) {
	prev := setMaxWorkers(1)
	defer setMaxWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("Workers = %d", Workers())
	}
	// Serial execution must still be correct.
	r := NewRNG(21)
	a := Randn(r, 1, 16, 16)
	b := Randn(r, 1, 16, 16)
	got := MatMul(a, b)
	setMaxWorkers(8)
	want := MatMul(a, b)
	if !got.AllClose(want, 1e-6) {
		t.Fatal("worker count changed result")
	}
}

// Property: (a+b)-b == a within float tolerance.
func TestPropAddSubInverse(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v > 1e15 || v < -1e15 {
				vals[i] = 1
			}
		}
		a := FromSlice(vals, len(vals))
		b := Full(3.5, len(vals))
		back := Sub(Add(a, b), b)
		for i := range back.Data {
			diff := math.Abs(float64(back.Data[i] - a.Data[i]))
			scale := math.Max(1, math.Abs(float64(a.Data[i])))
			if diff/scale > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any
// finite input row.
func TestPropSoftmaxDistribution(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				vals[i] = 0
			}
		}
		a := FromSlice(vals, 1, len(vals))
		s := SoftmaxRows(a)
		var sum float64
		for _, v := range s.Data {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: (a+b)@c == a@c + b@c.
func TestPropMatMulDistributive(t *testing.T) {
	r := NewRNG(31)
	for trial := 0; trial < 20; trial++ {
		m := 1 + r.Intn(16)
		k := 1 + r.Intn(16)
		n := 1 + r.Intn(16)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, m, k)
		c := Randn(r, 1, k, n)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		if !left.AllClose(right, 1e-3) {
			t.Fatalf("distributivity failed at m=%d k=%d n=%d", m, k, n)
		}
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 256, 256)
	y := Randn(r, 1, 256, 256)
	b.SetBytes(int64(256 * 256 * 256 * 2 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	r := NewRNG(2)
	x := Randn(r, 1, 512, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x)
	}
}

func TestMatMulTiledMatchesNaive(t *testing.T) {
	r := NewRNG(100)
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {63, 65, 67},
		{64, 128, 64}, {100, 70, 130}, {129, 1, 5},
	} {
		a := Randn(r, 1, dims[0], dims[1])
		b := Randn(r, 1, dims[1], dims[2])
		got := MatMulTiled(a, b)
		want := matmulNaive(a, b)
		if !got.AllClose(want, 1e-2) {
			t.Fatalf("MatMulTiled mismatch at dims %v", dims)
		}
	}
}

func TestMatMulTiledMatchesMatMul(t *testing.T) {
	r := NewRNG(101)
	a := Randn(r, 1, 200, 150)
	b := Randn(r, 1, 150, 180)
	x := MatMul(a, b)
	y := MatMulTiled(a, b)
	if !x.AllClose(y, 1e-2) {
		t.Fatal("tiled and streaming kernels disagree")
	}
}

func BenchmarkMatMulStreaming512(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 512, 512)
	y := Randn(r, 1, 512, 512)
	b.SetBytes(int64(512 * 512 * 512 * 2 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulTiled512(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 512, 512)
	y := Randn(r, 1, 512, 512)
	b.SetBytes(int64(512 * 512 * 512 * 2 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTiled(x, y)
	}
}

// Property: AXPY is linear: AXPY(a+b, x, y) == AXPY(a,x,·) then
// AXPY(b,x,·).
func TestPropAXPYLinear(t *testing.T) {
	f := func(a, b float32, seed uint64) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.Abs(float64(a)) > 100 || math.Abs(float64(b)) > 100 {
			return true
		}
		r := NewRNG(seed)
		x := Randn(r, 1, 16)
		y1 := Randn(r, 1, 16)
		y2 := y1.Clone()
		AXPY(a+b, x, y1)
		AXPY(a, x, y2)
		AXPY(b, x, y2)
		return y1.AllClose(y2, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ.
func TestPropMatMulTransposeIdentity(t *testing.T) {
	r := NewRNG(200)
	for trial := 0; trial < 15; trial++ {
		m := 1 + r.Intn(12)
		k := 1 + r.Intn(12)
		n := 1 + r.Intn(12)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		left := transpose(MatMul(a, b))
		right := MatMul(transpose(b), transpose(a))
		if !left.AllClose(right, 1e-3) {
			t.Fatalf("(AB)^T != B^T A^T at %dx%dx%d", m, k, n)
		}
	}
}

// Property: LayerNorm output is invariant to input shift and scale
// (for gamma=1, beta=0): LN(a*x + c) == LN(x).
func TestPropLayerNormInvariance(t *testing.T) {
	r := NewRNG(201)
	gamma := Ones(32)
	beta := Zeros(32)
	for trial := 0; trial < 10; trial++ {
		x := Randn(r, 1, 4, 32)
		scale := 0.5 + r.Float32()*5
		shift := r.Float32()*10 - 5
		y := Apply(Scale(x, scale), func(v float32) float32 { return v + shift })
		a := LayerNormRows(x, gamma, beta, 1e-6)
		b := LayerNormRows(y, gamma, beta, 1e-6)
		if !a.AllClose(b, 1e-2) {
			t.Fatalf("LayerNorm not shift/scale invariant (scale %v shift %v)", scale, shift)
		}
	}
}

// Property: softmax is shift-invariant: softmax(x + c) == softmax(x).
func TestPropSoftmaxShiftInvariant(t *testing.T) {
	r := NewRNG(202)
	for trial := 0; trial < 20; trial++ {
		x := Randn(r, 2, 3, 9)
		c := r.Float32()*20 - 10
		a := SoftmaxRows(x)
		b := SoftmaxRows(Apply(x, func(v float32) float32 { return v + c }))
		if !a.AllClose(b, 1e-4) {
			t.Fatalf("softmax not shift invariant at c=%v", c)
		}
	}
}
