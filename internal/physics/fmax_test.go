package physics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultForceTableValid(t *testing.T) {
	if err := DefaultForceTable().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForceTableValidate(t *testing.T) {
	good := DefaultForceTable()
	tests := []struct {
		name    string
		mutate  func(*ForceTable)
		wantErr error
	}{
		{"too few masses", func(f *ForceTable) { f.Masses = f.Masses[:1] }, ErrTableShape},
		{"row count mismatch", func(f *ForceTable) { f.FmaxN = f.FmaxN[:2] }, ErrTableShape},
		{"column count mismatch", func(f *ForceTable) { f.FmaxN[1] = f.FmaxN[1][:2] }, ErrTableShape},
		{"unsorted masses", func(f *ForceTable) { f.Masses[0], f.Masses[1] = f.Masses[1], f.Masses[0] }, ErrTableOrder},
		{"duplicate velocity", func(f *ForceTable) { f.Velocities[1] = f.Velocities[0] }, ErrTableOrder},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := good
			f.Masses = append([]float64(nil), good.Masses...)
			f.Velocities = append([]float64(nil), good.Velocities...)
			f.FmaxN = make([][]float64, len(good.FmaxN))
			for i := range good.FmaxN {
				f.FmaxN[i] = append([]float64(nil), good.FmaxN[i]...)
			}
			tt.mutate(&f)
			if err := f.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestFmaxExactAtGridPoints(t *testing.T) {
	f := DefaultForceTable()
	for i, m := range f.Masses {
		for j, v := range f.Velocities {
			got := f.Fmax(m, v)
			if math.Abs(got-f.FmaxN[i][j]) > 1e-6 {
				t.Errorf("Fmax(%g, %g) = %g, want grid value %g", m, v, got, f.FmaxN[i][j])
			}
		}
	}
}

func TestFmaxBilinearMidpoint(t *testing.T) {
	f := ForceTable{
		Masses:     []float64{0, 10},
		Velocities: []float64{0, 10},
		FmaxN:      [][]float64{{0, 10}, {20, 30}},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.Fmax(5, 5); math.Abs(got-15) > 1e-9 {
		t.Errorf("midpoint = %g, want 15", got)
	}
	if got := f.Fmax(5, 0); math.Abs(got-10) > 1e-9 {
		t.Errorf("mass midpoint = %g, want 10", got)
	}
}

func TestFmaxExtrapolation(t *testing.T) {
	f := ForceTable{
		Masses:     []float64{0, 10},
		Velocities: []float64{0, 10},
		FmaxN:      [][]float64{{0, 10}, {20, 30}},
	}
	// Linear extrapolation continues the edge slope.
	if got := f.Fmax(20, 0); math.Abs(got-40) > 1e-9 {
		t.Errorf("mass extrapolation = %g, want 40", got)
	}
	if got := f.Fmax(0, -10); math.Abs(got-(-10)) > 1e-9 {
		t.Errorf("velocity extrapolation = %g, want -10", got)
	}
}

// The default table decreases with velocity and increases with mass —
// structural limits must derate with speed.
func TestQuickFmaxMonotonicity(t *testing.T) {
	f := DefaultForceTable()
	prop := func(mRaw, vRaw uint16) bool {
		m := 8000 + float64(mRaw%12000)
		v := 40 + float64(vRaw%30)
		fm := f.Fmax(m, v)
		return f.Fmax(m+500, v) >= fm && f.Fmax(m, v+2) <= fm
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// The nominal controller command (about v²/(2·290 m) of deceleration)
// stays well under the default Fmax over the whole paper grid.
func TestDefaultTableNominalMargin(t *testing.T) {
	f := DefaultForceTable()
	for _, tc := range Grid(5) {
		nominal := tc.MassKg * tc.VelocityMS * tc.VelocityMS / (2 * 290)
		fmax := f.Fmax(tc.MassKg, tc.VelocityMS)
		if fmax < nominal*1.4 {
			t.Errorf("case %+v: Fmax %.0f too close to nominal force %.0f", tc, fmax, nominal)
		}
	}
}
