package inject

import (
	"fmt"
	"testing"

	"easig/internal/memory"
	"easig/internal/target"
)

// TestBuildE1Table6 verifies the error-set distribution of the paper's
// Table 6: 16 errors per signal, 112 in total, numbered S1..S112 in
// signal-major order.
func TestBuildE1Table6(t *testing.T) {
	errors := BuildE1()
	if len(errors) != 112 {
		t.Fatalf("E1 has %d errors, want 112", len(errors))
	}
	perSignal := map[string]int{}
	for i, e := range errors {
		perSignal[e.Signal]++
		if want := fmt.Sprintf("S%d", i+1); e.ID != want {
			t.Errorf("error %d has ID %q, want %q", i, e.ID, want)
		}
		if e.Region != target.RegionRAM {
			t.Errorf("%s targets region %q", e.ID, e.Region)
		}
		if e.SignalIdx != i/16 {
			t.Errorf("%s has signal index %d, want %d", e.ID, e.SignalIdx, i/16)
		}
	}
	for _, name := range target.SignalNames() {
		if perSignal[name] != 16 {
			t.Errorf("signal %s has %d errors, want 16", name, perSignal[name])
		}
	}
}

// Each signal's 16 errors cover all 16 bit positions of its word
// exactly once.
func TestBuildE1CoversEveryBit(t *testing.T) {
	mem, err := memory.New(memory.RegionSpec{Name: target.RegionRAM, Base: target.RAMBase, Size: target.RAMSize})
	if err != nil {
		t.Fatal(err)
	}
	for sigIdx := 0; sigIdx < target.NumEAs; sigIdx++ {
		word := memory.MustBind(mem, "sig", uint16(target.RAMBase+2*sigIdx))
		seen := map[uint16]bool{}
		for _, e := range BuildE1()[sigIdx*16 : sigIdx*16+16] {
			word.Set(0)
			if err := e.Apply(mem); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			w := word.Get()
			if w == 0 || w&(w-1) != 0 {
				t.Fatalf("%s did not flip exactly one bit of its word (%#x)", e.ID, w)
			}
			if seen[w] {
				t.Fatalf("%s repeats bit pattern %#x", e.ID, w)
			}
			seen[w] = true
		}
		if len(seen) != 16 {
			t.Fatalf("signal %d covers %d distinct bits", sigIdx, len(seen))
		}
	}
}

func TestBuildE2(t *testing.T) {
	spec := DefaultE2Spec()
	if spec.RAM != 150 || spec.Stack != 50 {
		t.Fatalf("default spec = %+v, want the paper's 150+50", spec)
	}
	errors := BuildE2(spec, 42)
	if len(errors) != 200 {
		t.Fatalf("E2 has %d errors", len(errors))
	}
	var ram, stack int
	for _, e := range errors {
		switch e.Region {
		case target.RegionRAM:
			ram++
			if e.Addr < target.RAMBase || int(e.Addr) >= target.RAMBase+target.RAMSize {
				t.Errorf("%s outside RAM: 0x%04x", e.ID, e.Addr)
			}
		case target.RegionStack:
			stack++
			if e.Addr < target.StackBase || int(e.Addr) >= target.StackBase+target.StackSize {
				t.Errorf("%s outside stack: 0x%04x", e.ID, e.Addr)
			}
		default:
			t.Errorf("%s in unknown region %q", e.ID, e.Region)
		}
		if e.Bit > 7 {
			t.Errorf("%s has bit %d", e.ID, e.Bit)
		}
		if e.SignalIdx != -1 || e.Signal != "" {
			t.Errorf("%s carries signal metadata", e.ID)
		}
	}
	if ram != 150 || stack != 50 {
		t.Errorf("distribution = %d RAM + %d stack", ram, stack)
	}
}

func TestBuildE2Deterministic(t *testing.T) {
	a := BuildE2(DefaultE2Spec(), 7)
	b := BuildE2(DefaultE2Spec(), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("error %d differs between equal seeds", i)
		}
	}
	c := BuildE2(DefaultE2Spec(), 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical sample")
	}
}

func TestErrorString(t *testing.T) {
	e1 := BuildE1()[0]
	if got := e1.String(); got == "" || got[0] != 'S' {
		t.Errorf("E1 String = %q", got)
	}
	e2 := Error{ID: "R1", SignalIdx: -1, Region: "ram", Addr: 0x10, Bit: 3}
	want := "R1: ram byte 0x0010 bit 3"
	if got := e2.String(); got != want {
		t.Errorf("E2 String = %q, want %q", got, want)
	}
}
