// Package nn implements a small dense feed-forward neural network with ReLU
// activations and an Adam optimizer, in pure standard-library Go. It exists
// to support the "No DBA" deep Q-learning baseline (Section 7.2.2), which
// the paper adapts to CPU-only training with a 3×96 fully-connected network.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one dense layer: y = act(W·x + b).
type Layer struct {
	In, Out int
	W       []float64 // row-major Out×In
	B       []float64
	ReLU    bool

	// Adam state.
	mW, vW, mB, vB []float64

	// Scratch from the last Forward, consumed by Backward.
	lastIn  []float64
	lastPre []float64 // pre-activation
}

// Network is a stack of dense layers.
type Network struct {
	Layers []*Layer

	// Adam hyperparameters.
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	step    int
	// bias1 and bias2 are Adam's bias corrections 1 − β₁^step and
	// 1 − β₂^step, computed once per step by Backward.
	bias1, bias2 float64
}

// New builds a network with the given layer sizes; all hidden layers use
// ReLU and the output layer is linear. sizes must contain at least an input
// and an output size.
func New(rng *rand.Rand, sizes ...int) *Network {
	if len(sizes) < 2 {
		// invariant: layer sizes are compile-time constants of the DQN agent
		// (input width, hidden, 1), never user input.
		panic(fmt.Sprintf("nn: need at least 2 layer sizes, got %d", len(sizes)))
	}
	net := &Network{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		l := &Layer{
			In: in, Out: out,
			W:    make([]float64, in*out),
			B:    make([]float64, out),
			ReLU: i+2 < len(sizes),
			mW:   make([]float64, in*out),
			vW:   make([]float64, in*out),
			mB:   make([]float64, out),
			vB:   make([]float64, out),
		}
		// He initialization for ReLU layers.
		scale := math.Sqrt(2 / float64(in))
		for j := range l.W {
			l.W[j] = rng.NormFloat64() * scale
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}

// Forward runs the network on x and returns the output activations. The
// input slice is not retained.
func (n *Network) Forward(x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		cur = l.forward(cur)
	}
	return cur
}

func (l *Layer) forward(x []float64) []float64 {
	if len(x) != l.In {
		// invariant: the caller always feeds the feature vector the network
		// was constructed for; a mismatch is a programming error in dqn.
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", l.In, len(x)))
	}
	l.lastIn = append(l.lastIn[:0], x...)
	if cap(l.lastPre) < l.Out {
		l.lastPre = make([]float64, l.Out)
	}
	l.lastPre = l.lastPre[:l.Out]
	out := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		s := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		l.lastPre[o] = s
		if l.ReLU && s < 0 {
			s = 0
		}
		out[o] = s
	}
	return out
}

// Backward propagates the gradient of the loss with respect to the network
// output (dLoss/dOut for the most recent Forward) and applies one Adam step.
func (n *Network) Backward(gradOut []float64) {
	n.step++
	n.bias1 = 1 - math.Pow(n.Beta1, float64(n.step))
	n.bias2 = 1 - math.Pow(n.Beta2, float64(n.step))
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		grad = n.Layers[li].backward(grad, n)
	}
}

func (l *Layer) backward(gradOut []float64, n *Network) []float64 {
	gradIn := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := gradOut[o]
		if l.ReLU && l.lastPre[o] <= 0 {
			continue
		}
		row := l.W[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			gradIn[i] += row[i] * g
		}
		// Adam update for this row and bias.
		for i := 0; i < l.In; i++ {
			gw := g * l.lastIn[i]
			idx := o*l.In + i
			l.mW[idx] = n.Beta1*l.mW[idx] + (1-n.Beta1)*gw
			l.vW[idx] = n.Beta2*l.vW[idx] + (1-n.Beta2)*gw*gw
			l.W[idx] -= n.adamDelta(l.mW[idx], l.vW[idx])
		}
		l.mB[o] = n.Beta1*l.mB[o] + (1-n.Beta1)*g
		l.vB[o] = n.Beta2*l.vB[o] + (1-n.Beta2)*g*g
		l.B[o] -= n.adamDelta(l.mB[o], l.vB[o])
	}
	return gradIn
}

func (n *Network) adamDelta(m, v float64) float64 {
	mh := m / n.bias1
	vh := v / n.bias2
	return n.LR * mh / (math.Sqrt(vh) + n.Epsilon)
}

// CopyFrom copies all weights and biases from src (same architecture);
// optimizer state is not copied. Used for DQN target networks.
func (n *Network) CopyFrom(src *Network) {
	if len(n.Layers) != len(src.Layers) {
		// invariant: target networks are built with the same sizes as the
		// online network they mirror.
		panic("nn: architecture mismatch in CopyFrom")
	}
	for i, l := range n.Layers {
		s := src.Layers[i]
		if l.In != s.In || l.Out != s.Out {
			// invariant: see above — identical construction implies identical
			// per-layer shapes.
			panic("nn: layer shape mismatch in CopyFrom")
		}
		copy(l.W, s.W)
		copy(l.B, s.B)
	}
}
