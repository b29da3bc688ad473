package platform

import (
	"math"
	"reflect"
	"testing"
)

func TestSpeedFactorsBounded(t *testing.T) {
	const jitter = 0.05
	f := SpeedFactors(50, jitter, 3)
	if len(f) != 50 {
		t.Fatalf("got %d factors, want 50", len(f))
	}
	for i, s := range f {
		if s < 1-3*jitter || s > 1+3*jitter {
			t.Errorf("node %d speed %v outside ±3·jitter clamp", i, s)
		}
	}
	if g := SpeedFactors(50, jitter, 3); !reflect.DeepEqual(f, g) {
		t.Error("same seed drew different factors")
	}
	// A jitter wide enough that the lower clamp crosses zero still leaves
	// every node a positive speed.
	for i, s := range SpeedFactors(200, 1, 5) {
		if s <= 0 {
			t.Errorf("node %d speed %v not positive", i, s)
		}
	}
}

func TestSpeedFactorsPanics(t *testing.T) {
	for _, c := range []struct {
		n      int
		jitter float64
	}{{0, 0.05}, {3, -0.1}, {3, math.NaN()}, {3, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpeedFactors(%d, %v): expected panic", c.n, c.jitter)
				}
			}()
			SpeedFactors(c.n, c.jitter, 1)
		}()
	}
}
