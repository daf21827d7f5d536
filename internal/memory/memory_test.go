package memory

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func twoRegions(t *testing.T) *Memory {
	t.Helper()
	m, err := New(
		RegionSpec{Name: "ram", Base: 0x0000, Size: 417},
		RegionSpec{Name: "stack", Base: 0x4000, Size: 1008},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// byteAt reads the byte at addr, which must be mapped, without
// reporting the read to the access sink.
func byteAt(m *Memory, addr uint16) byte {
	off := m.offset(addr, 1)
	if off < 0 {
		panic(errRange(addr, 1))
	}
	return m.data[off]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("no regions accepted")
	}
	if _, err := New(RegionSpec{Name: "z", Base: 0, Size: 0}); !errors.Is(err, ErrEmptyRegion) {
		t.Error("zero-size region accepted")
	}
	_, err := New(
		RegionSpec{Name: "a", Base: 0, Size: 100},
		RegionSpec{Name: "b", Base: 50, Size: 100},
	)
	if !errors.Is(err, ErrOverlap) {
		t.Errorf("overlap = %v, want ErrOverlap", err)
	}
	// Adjacent regions are fine.
	if _, err := New(
		RegionSpec{Name: "a", Base: 0, Size: 100},
		RegionSpec{Name: "b", Base: 100, Size: 100},
	); err != nil {
		t.Errorf("adjacent regions rejected: %v", err)
	}
	// A region may end exactly at the top of the address space.
	if _, err := New(RegionSpec{Name: "top", Base: 0xFFF0, Size: 16}); err != nil {
		t.Errorf("top-of-space region rejected: %v", err)
	}
	// Sorting: declaration order must not matter.
	if _, err := New(
		RegionSpec{Name: "hi", Base: 0x4000, Size: 8},
		RegionSpec{Name: "lo", Base: 0x0000, Size: 8},
	); err != nil {
		t.Errorf("unsorted specs rejected: %v", err)
	}
}

func TestByteAccess(t *testing.T) {
	m := twoRegions(t)
	if err := m.SetByteAt(0x4000, 0xAB); err != nil {
		t.Fatal(err)
	}
	if b := byteAt(m, 0x4000); b != 0xAB {
		t.Fatalf("byte = %#x, want 0xAB", b)
	}
	// Out of range: between the regions and past the end.
	for _, addr := range []uint16{417, 0x3FFF, 0x4000 + 1008, 0xFFFF} {
		if err := m.SetByteAt(addr, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("SetByteAt(%#x) = %v, want ErrOutOfRange", addr, err)
		}
	}
}

func TestWordAccessBigEndian(t *testing.T) {
	m := twoRegions(t)
	w, ok := m.Word(10)
	if !ok {
		t.Fatal("Word(10) unmapped")
	}
	w.Set(0xBEEF)
	hi, lo := byteAt(m, 10), byteAt(m, 11)
	if hi != 0xBE || lo != 0xEF {
		t.Fatalf("bytes = (%#x, %#x), want big-endian (0xBE, 0xEF)", hi, lo)
	}
	if v := w.Get(); v != 0xBEEF {
		t.Fatalf("Get = %#x", v)
	}
	// A word may not cross the region end.
	if _, ok := m.Word(416); ok {
		t.Error("word crossing region end resolved")
	}
}

func TestFlipBit(t *testing.T) {
	m := twoRegions(t)
	m.SetByteAt(5, 0b0000_1000)
	if err := m.FlipBit(5, 3); err != nil {
		t.Fatal(err)
	}
	if b := byteAt(m, 5); b != 0 {
		t.Fatalf("bit 3 not cleared: %#b", b)
	}
	if err := m.FlipBit(5, 8); !errors.Is(err, ErrBit) {
		t.Errorf("bit 8 = %v, want ErrBit", err)
	}
	if err := m.FlipBit(9999, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("flip out of range = %v, want ErrOutOfRange", err)
	}
}

func TestImageRestore(t *testing.T) {
	m := twoRegions(t)
	ram, stack := MustBind(m, "ram", 0), MustBind(m, "stack", 0x4000)
	ram.Set(0x1234)
	stack.Set(0x5678)
	var img Image
	m.Capture(&img)
	ram.Set(0xFFFF)
	stack.Set(0)
	if err := m.RestoreImage(&img); err != nil {
		t.Fatal(err)
	}
	if v := ram.Get(); v != 0x1234 {
		t.Errorf("restored ram word = %#x", v)
	}
	if v := stack.Get(); v != 0x5678 {
		t.Errorf("restored stack word = %#x", v)
	}
	if b, err := m.ImageByteAt(&img, 0x4001); err != nil || b != 0x78 {
		t.Errorf("ImageByteAt(0x4001) = (%#x, %v), want 0x78", b, err)
	}
	if _, err := m.ImageByteAt(&img, 417); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ImageByteAt in the gap = %v, want ErrOutOfRange", err)
	}
	other, err := New(RegionSpec{Name: "ram", Base: 0, Size: 417})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreImage(&img); err == nil {
		t.Error("image of another layout accepted")
	}
}

func TestRegionsAndNamed(t *testing.T) {
	m := twoRegions(t)
	regs := m.Regions()
	if len(regs) != 2 || regs[0].Name != "ram" || regs[1].Name != "stack" {
		t.Fatalf("Regions() = %+v", regs)
	}
	r := regs[1]
	if r.Base != 0x4000 || r.Size != 1008 {
		t.Fatalf("stack region = %+v", r)
	}
	if got := r.End(); got != 0x4000+1008 {
		t.Errorf("End() = %d", got)
	}
}

// Flipping the same bit twice is the identity (the involution that
// makes 20 ms re-injection toggle errors on and off).
func TestQuickFlipInvolution(t *testing.T) {
	m := twoRegions(t)
	f := func(addrRaw uint16, bit uint8, val byte) bool {
		addr := addrRaw % 417
		bit %= 8
		if err := m.SetByteAt(addr, val); err != nil {
			return false
		}
		m.FlipBit(addr, bit)
		m.FlipBit(addr, bit)
		return byteAt(m, addr) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Word writes round-trip through byte storage for any value.
func TestQuickWordRoundTrip(t *testing.T) {
	m := twoRegions(t)
	f := func(addrRaw, v uint16) bool {
		addr := addrRaw % 415 // keep the word inside the ram region
		w, ok := m.Word(addr)
		if !ok {
			return false
		}
		w.Set(v)
		return w.Get() == v && byteAt(m, addr) == byte(v>>8) && byteAt(m, addr+1) == byte(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDump(t *testing.T) {
	m := twoRegions(t)
	MustBind(m, "x", 0).Set(0xBEEF)
	var buf strings.Builder
	if err := m.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`region "ram"`, `region "stack"`, "be ef", "0000:"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q", want)
		}
	}
	// Every region byte appears: 417 + 1008 bytes over 16-byte lines.
	lines := strings.Count(out, "\n")
	want := 2 + (417+15)/16 + (1008+15)/16
	if lines != want {
		t.Errorf("dump has %d lines, want %d", lines, want)
	}
}
