package memory

import (
	"testing"
	"testing/quick"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	m, err := New(RegionSpec{Name: "ram", Base: 0x100, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBind(t *testing.T) {
	m := testMemory(t)
	v, err := Bind(m, "x", 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if v.w == nil || v.Addr() != 0x100 {
		t.Fatalf("bound var = %+v", v)
	}
	if _, err := Bind(m, "oob", 0x00); err == nil {
		t.Error("binding outside regions accepted")
	}
	if _, err := Bind(m, "cross", 0x100+63); err == nil {
		t.Error("binding across region end accepted")
	}
}

func TestMustBindPanics(t *testing.T) {
	m := testMemory(t)
	defer func() {
		if recover() == nil {
			t.Error("MustBind with bad address did not panic")
		}
	}()
	MustBind(m, "bad", 0)
}

func TestVar16GetSet(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "x", 0x102)
	v.Set(0xA55A)
	if got := v.Get(); got != 0xA55A {
		t.Fatalf("Get = %#x", got)
	}
	// The memory view agrees (big-endian).
	if w := MustBind(m, "y", 0x102).Get(); w != 0xA55A {
		t.Fatalf("memory word = %#x", w)
	}
	// A bit-flip through the memory API is visible through the Var16.
	m.FlipBit(0x102, 7)
	if got := v.Get(); got != 0x255A {
		t.Fatalf("after flip Get = %#x, want 0x255A", got)
	}
}

func TestVar16Add(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "c", 0x106)
	v.Set(0xFFFF)
	if got := v.Add(1); got != 0 {
		t.Fatalf("Add wrap = %d, want 0", got)
	}
	v.Set(100)
	if got := v.Add(23); got != 123 {
		t.Fatalf("Add = %d, want 123", got)
	}
}

// Get/Set round-trips for every value.
func TestQuickVar16RoundTrip(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "q", 0x108)
	f := func(x uint16) bool {
		v.Set(x)
		return v.Get() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
