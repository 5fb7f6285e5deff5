package dqbatch

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestExactSumIsCorrectlyRounded checks exactSum against big.Float over
// shuffled score sets: the result is the exact sum rounded once, whatever
// the order of the additions or the split into merged partial sums.
func TestExactSumIsCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(2000))
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = 1
			case 1:
				xs[i] = 0.8
			default:
				xs[i] = rng.Float64()
			}
		}
		exact := new(big.Float).SetPrec(4096)
		for _, x := range xs {
			exact.Add(exact, big.NewFloat(x))
		}
		want, _ := exact.Float64()

		var whole exactSum
		for _, x := range xs {
			whole.add(x)
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		var a, b exactSum
		cut := rng.Intn(len(xs) + 1)
		for _, x := range xs[:cut] {
			a.add(x)
		}
		for _, x := range xs[cut:] {
			b.add(x)
		}
		a.merge(&b)
		if got := whole.value(); got != want {
			t.Fatalf("trial %d: sum %v, want %v", trial, got, want)
		}
		if got := a.value(); got != want {
			t.Fatalf("trial %d: shuffled and merged sum %v, want %v", trial, got, want)
		}
	}
	var tiny exactSum
	for _, x := range []float64{1e16, 1, -1e16, 0.1, 0.2} {
		tiny.add(x)
	}
	if got := tiny.value(); got != 1.3 {
		t.Fatalf("sum with cancellation = %v, want 1.3", got)
	}
}
