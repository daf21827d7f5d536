package core

import (
	"errors"
	"math"
	"testing"
)

func TestDiscreteValidate(t *testing.T) {
	tests := []struct {
		name    string
		class   Class
		p       Discrete
		wantErr error
	}{
		{
			name:  "random valid",
			class: DiscreteRandom,
			p:     NewRandom([]int64{1, 2, 3}),
		},
		{
			name:    "empty domain",
			class:   DiscreteRandom,
			p:       Discrete{},
			wantErr: ErrEmptyDomain,
		},
		{
			name:    "duplicate value",
			class:   DiscreteRandom,
			p:       Discrete{Domain: []int64{1, 2, 1}},
			wantErr: ErrDuplicateValue,
		},
		{
			name:    "sequential needs transitions",
			class:   DiscreteSequentialNonLinear,
			p:       Discrete{Domain: []int64{1, 2}},
			wantErr: ErrMissingTransitions,
		},
		{
			name:  "sequential valid",
			class: DiscreteSequentialNonLinear,
			p:     Discrete{Domain: []int64{1, 2}, Trans: map[int64][]int64{1: {2}, 2: {1}}},
		},
		{
			name:    "transition source outside domain",
			class:   DiscreteSequentialNonLinear,
			p:       Discrete{Domain: []int64{1, 2}, Trans: map[int64][]int64{3: {1}}},
			wantErr: ErrTransitionSource,
		},
		{
			name:    "transition target outside domain",
			class:   DiscreteSequentialNonLinear,
			p:       Discrete{Domain: []int64{1, 2}, Trans: map[int64][]int64{1: {9}}},
			wantErr: ErrTransitionTarget,
		},
		{
			name:    "continuous class rejected",
			class:   ContinuousRandom,
			p:       NewRandom([]int64{1}),
			wantErr: ErrClassMismatch,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate(tt.class)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewLinear(t *testing.T) {
	t.Run("cyclic no stay", func(t *testing.T) {
		p := NewLinear([]int64{0, 1, 2}, true, false)
		wantTrans := map[int64][]int64{0: {1}, 1: {2}, 2: {0}}
		for src, want := range wantTrans {
			got := p.Trans[src]
			if len(got) != len(want) || got[0] != want[0] {
				t.Errorf("T(%d) = %v, want %v", src, got, want)
			}
		}
	})
	t.Run("acyclic with stay", func(t *testing.T) {
		p := NewLinear([]int64{5, 7}, false, true)
		if !p.allows(5, 7) || !p.allows(5, 5) || !p.allows(7, 7) {
			t.Error("expected successor and self transitions to be allowed")
		}
		if p.allows(7, 5) {
			t.Error("reverse transition must not be allowed")
		}
		// The last value of an acyclic chain has no successor.
		if p.allows(7, 5) || len(p.Trans[7]) != 1 {
			t.Errorf("T(7) = %v, want only {7}", p.Trans[7])
		}
	})
	t.Run("validates as linear", func(t *testing.T) {
		p := NewLinear([]int64{0, 1, 2, 3}, true, false)
		if err := p.Validate(DiscreteSequentialLinear); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	})
}

func TestDiscreteContainsAllows(t *testing.T) {
	p := NewLinear([]int64{10, 20, 30}, true, false)
	if !p.contains(20) || p.contains(21) {
		t.Error("Contains misclassifies domain membership")
	}
	if !p.allows(10, 20) || p.allows(10, 30) || p.allows(99, 10) {
		t.Error("Allows misclassifies transitions")
	}
}

// TestDiscreteIndexInt64Edges pins the dense index at the ends of the
// int64 range, where v-lo overflows: a value far below a span near
// MaxInt64 must not wrap into it, and a span covering the whole range
// wraps its width to zero and keeps the literal scan.
func TestDiscreteIndexInt64Edges(t *testing.T) {
	for _, domain := range [][]int64{
		{math.MaxInt64 - 1, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + 63},
		{math.MinInt64, math.MaxInt64},
		{-1, 62},
	} {
		p := NewLinear(domain, true, true)
		if p.dense != spanFits(domain) {
			t.Errorf("%v: dense index %v, want %v", domain, p.dense, spanFits(domain))
		}
		probes := append([]int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1, 63}, domain...)
		for _, a := range probes {
			if got, want := p.contains(a), defContains(p, a); got != want {
				t.Errorf("%v: Contains(%d) = %v, want %v", domain, a, got, want)
			}
			for _, b := range probes {
				if got, want := p.allows(a, b), defAllows(p, a, b); got != want {
					t.Errorf("%v: Allows(%d, %d) = %v, want %v", domain, a, b, got, want)
				}
			}
		}
	}
}

func TestDiscreteStringDeterministic(t *testing.T) {
	p := Discrete{
		Domain: []int64{2, 1},
		Trans:  map[int64][]int64{2: {1}, 1: {2}},
	}
	want := "Pdisc{D=[2 1] T(1)=[2] T(2)=[1]}"
	for i := 0; i < 10; i++ {
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestNewRandomCopiesDomain(t *testing.T) {
	domain := []int64{1, 2, 3}
	p := NewRandom(domain)
	domain[0] = 99
	if !p.contains(1) || p.contains(99) {
		t.Error("NewRandom must copy the domain slice")
	}
}
