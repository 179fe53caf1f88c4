package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := New(rng, 4, 8, 3)
	if len(net.Layers) != 2 {
		t.Fatalf("layers = %d", len(net.Layers))
	}
	params := 0
	for _, l := range net.Layers {
		params += len(l.W) + len(l.B)
	}
	if want := 4*8 + 8 + 8*3 + 3; params != want {
		t.Fatalf("trainable parameters = %d, want %d", params, want)
	}
	out := net.Forward([]float64{1, 2, 3, 4})
	if len(out) != 3 {
		t.Fatalf("output size = %d", len(out))
	}
}

func TestNewPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with one size should panic")
		}
	}()
	New(rand.New(rand.NewSource(1)), 4)
}

func TestForwardPanicsOnWrongInput(t *testing.T) {
	net := New(rand.New(rand.NewSource(1)), 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size should panic")
		}
	}()
	net.Forward([]float64{1, 2})
}

// Gradient check: analytic gradients via Backward must match numerical
// finite differences of the loss 0.5·(out[target]-y)² with respect to every
// parameter. SGD (beta1=beta2=0 degenerate Adam) complicates comparison, so
// we extract gradients by observing the parameter delta of a single
// plain-gradient step; instead we verify via the loss decrease direction AND
// a direct numerical check using a fresh copy per parameter.
func TestGradientNumericalCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func() *Network {
		r := rand.New(rand.NewSource(7))
		n := New(r, 3, 5, 2)
		return n
	}
	x := []float64{0.3, -0.8, 1.2}
	target := 1
	y := 0.75

	loss := func(n *Network) float64 {
		out := n.Forward(x)
		d := out[target] - y
		return 0.5 * d * d
	}

	// Analytic gradient of the first-layer weights, computed by hand from
	// the backward pass structure: perturb one weight numerically and
	// compare against the directional change predicted by backprop. To get
	// raw gradients out of the Adam optimizer, run one Backward step with a
	// tiny learning rate and infer the sign from the parameter movement.
	base := mk()
	out := base.Forward(x)
	grad := make([]float64, 2)
	grad[target] = out[target] - y
	before := append([]float64(nil), base.Layers[0].W...)
	base.LR = 1e-6
	base.Backward(grad)
	after := base.Layers[0].W

	const eps = 1e-5
	checked := 0
	for i := range before {
		move := after[i] - before[i]
		// Numerical gradient for this weight on a fresh network.
		net := mk()
		net.Layers[0].W[i] += eps
		lp := loss(net)
		net = mk()
		net.Layers[0].W[i] -= eps
		lm := loss(net)
		g := (lp - lm) / (2 * eps)
		if math.Abs(g) < 1e-8 {
			continue // dead ReLU path: no constraint on movement
		}
		// Adam moves against the gradient.
		if g > 0 && move > 0 || g < 0 && move < 0 {
			t.Fatalf("weight %d moved with the gradient: g=%v move=%v", i, g, move)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("gradient check exercised only %d weights", checked)
	}
	_ = rng
}

// The network must be able to fit a simple nonlinear function (XOR-ish),
// demonstrating that backprop + Adam actually learn.
func TestLearnsXor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New(rng, 2, 16, 1)
	net.LR = 5e-3
	data := [][3]float64{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0},
	}
	for epoch := 0; epoch < 4000; epoch++ {
		d := data[rng.Intn(len(data))]
		out := net.Forward([]float64{d[0], d[1]})
		net.Backward([]float64{out[0] - d[2]})
	}
	for _, d := range data {
		out := net.Forward([]float64{d[0], d[1]})
		if math.Abs(out[0]-d[2]) > 0.25 {
			t.Fatalf("XOR(%v,%v) = %v, want %v", d[0], d[1], out[0], d[2])
		}
	}
}

func TestCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(rng, 3, 4, 2)
	b := New(rng, 3, 4, 2)
	b.CopyFrom(a)
	x := []float64{1, -1, 0.5}
	oa, ob := a.Forward(x), b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("outputs differ after CopyFrom: %v vs %v", oa, ob)
		}
	}
	// Training b must not change a.
	b.Backward([]float64{1, 1})
	oa2 := a.Forward(x)
	for i := range oa {
		if oa[i] != oa2[i] {
			t.Fatal("training the copy mutated the source")
		}
	}
}

func TestCopyFromPanicsOnMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(rng, 3, 4, 2)
	b := New(rng, 3, 5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("architecture mismatch should panic")
		}
	}()
	b.CopyFrom(a)
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := New(rand.New(rand.NewSource(9)), 4, 6, 2)
	b := New(rand.New(rand.NewSource(9)), 4, 6, 2)
	x := []float64{0.1, 0.2, 0.3, 0.4}
	oa, ob := a.Forward(x), b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed should initialize identical networks")
		}
	}
}
