package core

import (
	"errors"
	"testing"
)

// Table 1 of the paper: parameter constraints for the continuous
// signal classes.
func TestContinuousValidateTable1(t *testing.T) {
	tests := []struct {
		name    string
		class   Class
		p       Continuous
		wantErr error
	}{
		// Row "All": smax > smin.
		{
			name:    "bounds inverted",
			class:   ContinuousRandom,
			p:       Continuous{Min: 10, Max: 10, Incr: Rate{0, 1}, Decr: Rate{0, 1}},
			wantErr: ErrBadBounds,
		},
		{
			name:    "negative rate",
			class:   ContinuousRandom,
			p:       Continuous{Min: 0, Max: 10, Incr: Rate{-1, 1}, Decr: Rate{0, 1}},
			wantErr: ErrNegativeRate,
		},
		{
			name:    "rate order inverted",
			class:   ContinuousRandom,
			p:       Continuous{Min: 0, Max: 10, Incr: Rate{5, 2}, Decr: Rate{0, 1}},
			wantErr: ErrRateOrder,
		},
		// Static monotonic: one direction zero, the other fixed > 0.
		{
			name:  "static increasing",
			class: ContinuousMonotonicStatic,
			p:     Continuous{Min: 0, Max: 100, Incr: Rate{4, 4}},
		},
		{
			name:  "static decreasing",
			class: ContinuousMonotonicStatic,
			p:     Continuous{Min: 0, Max: 100, Decr: Rate{2, 2}},
		},
		{
			name:    "static with ranging rate",
			class:   ContinuousMonotonicStatic,
			p:       Continuous{Min: 0, Max: 100, Incr: Rate{1, 4}},
			wantErr: ErrNotStatic,
		},
		{
			name:    "static with both directions",
			class:   ContinuousMonotonicStatic,
			p:       Continuous{Min: 0, Max: 100, Incr: Rate{4, 4}, Decr: Rate{1, 1}},
			wantErr: ErrNotStatic,
		},
		{
			name:    "static with zero rate",
			class:   ContinuousMonotonicStatic,
			p:       Continuous{Min: 0, Max: 100},
			wantErr: ErrNotStatic,
		},
		// Dynamic monotonic: one direction zero, the other ranging.
		{
			name:  "dynamic increasing",
			class: ContinuousMonotonicDynamic,
			p:     Continuous{Min: 0, Max: 100, Incr: Rate{0, 4}},
		},
		{
			name:  "dynamic decreasing with positive min",
			class: ContinuousMonotonicDynamic,
			p:     Continuous{Min: 0, Max: 100, Decr: Rate{1, 4}},
		},
		{
			name:    "dynamic with fixed rate",
			class:   ContinuousMonotonicDynamic,
			p:       Continuous{Min: 0, Max: 100, Incr: Rate{4, 4}},
			wantErr: ErrNotDynamic,
		},
		{
			name:    "dynamic with both directions",
			class:   ContinuousMonotonicDynamic,
			p:       Continuous{Min: 0, Max: 100, Incr: Rate{0, 4}, Decr: Rate{0, 4}},
			wantErr: ErrNotDynamic,
		},
		// Random: both directions open.
		{
			name:  "random symmetric",
			class: ContinuousRandom,
			p:     Continuous{Min: 0, Max: 100, Incr: Rate{0, 4}, Decr: Rate{0, 4}},
		},
		{
			name:  "random with positive minimum rates both ways",
			class: ContinuousRandom,
			p:     Continuous{Min: 0, Max: 100, Incr: Rate{1, 4}, Decr: Rate{1, 4}},
		},
		{
			name:    "random with forbidden increase",
			class:   ContinuousRandom,
			p:       Continuous{Min: 0, Max: 100, Decr: Rate{0, 4}},
			wantErr: ErrNotRandom,
		},
		{
			name:    "not a continuous class",
			class:   DiscreteRandom,
			p:       Continuous{Min: 0, Max: 100, Incr: Rate{0, 4}, Decr: Rate{0, 4}},
			wantErr: ErrClassMismatch,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate(tt.class)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate(%v) = %v, want nil", tt.class, err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate(%v) = %v, want %v", tt.class, err, tt.wantErr)
			}
		})
	}
}

func TestContinuousClassify(t *testing.T) {
	tests := []struct {
		name string
		p    Continuous
		want Class
	}{
		{"static", Continuous{Min: 0, Max: 10, Incr: Rate{1, 1}}, ContinuousMonotonicStatic},
		{"dynamic", Continuous{Min: 0, Max: 10, Incr: Rate{0, 3}}, ContinuousMonotonicDynamic},
		{"random", Continuous{Min: 0, Max: 10, Incr: Rate{0, 3}, Decr: Rate{0, 3}}, ContinuousRandom},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.p.Classify()
			if err != nil {
				t.Fatalf("Classify: %v", err)
			}
			if got != tt.want {
				t.Errorf("Classify() = %v, want %v", got, tt.want)
			}
		})
	}
	bad := Continuous{Min: 5, Max: 5}
	if _, err := bad.Classify(); err == nil {
		t.Error("Classify with inverted bounds: expected error")
	}
}

func TestContinuousHelpers(t *testing.T) {
	p := Continuous{Min: -10, Max: 30, Incr: Rate{0, 5}, Decr: Rate{0, 5}}
	for _, tt := range []struct{ in, want int64 }{{-20, -10}, {-10, -10}, {0, 0}, {30, 30}, {31, 30}} {
		if got := p.Clamp(tt.in); got != tt.want {
			t.Errorf("Clamp(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestContinuousString(t *testing.T) {
	p := Continuous{Min: 0, Max: 9, Incr: Rate{1, 2}, Decr: Rate{3, 4}, Wrap: true}
	want := "Pcont{[0,9] incr[1,2] decr[3,4] wrap}"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
