package memory

import (
	"reflect"
	"testing"
)

// access is one recorded sink event.
type access struct {
	Addr  uint16
	N     int
	Write bool
}

// recordSink is the test AccessSink.
type recordSink struct{ got []access }

func (r *recordSink) OnAccess(addr uint16, n int, write bool) {
	r.got = append(r.got, access{addr, n, write})
}

// traceMemory builds a two-region memory matching the target layout
// shape, with a variable bound into the first region.
func traceMemory(t *testing.T) (*Memory, Var16) {
	t.Helper()
	m, err := New(
		RegionSpec{Name: "ram", Base: 0x100, Size: 64},
		RegionSpec{Name: "stack", Base: 0x200, Size: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Bind(m, "sig", 0x110)
	if err != nil {
		t.Fatal(err)
	}
	return m, v
}

// TestAccessSinkSeesSoftwareTraffic checks that every software-visible
// accessor reports its loads and stores while the sink is armed.
func TestAccessSinkSeesSoftwareTraffic(t *testing.T) {
	m, v := traceMemory(t)
	sink := &recordSink{}
	m.SetAccessSink(sink)

	v.Set(0x1234)
	_ = v.Get()
	v.Add(1) // read-modify-write: load then store
	w, ok := m.Word(0x204)
	if !ok {
		t.Fatal("Word(0x204) unmapped")
	}
	w.Set(0xBEEF)
	_ = w.Get()
	if err := m.SetByteAt(0x120, 7); err != nil {
		t.Fatal(err)
	}

	want := []access{
		{0x110, 2, true},
		{0x110, 2, false},
		{0x110, 2, false}, {0x110, 2, true},
		{0x204, 2, true},
		{0x204, 2, false},
		{0x120, 1, true},
	}
	if !reflect.DeepEqual(sink.got, want) {
		t.Fatalf("traced accesses:\n got %v\nwant %v", sink.got, want)
	}
}

// TestAccessSinkIgnoresInjectorAndCheckpoints checks that the SWIFI
// primitives and the snapshot machinery stay invisible: they are the
// experiment apparatus, not data flow of the program under test.
func TestAccessSinkIgnoresInjectorAndCheckpoints(t *testing.T) {
	m, _ := traceMemory(t)
	sink := &recordSink{}
	m.SetAccessSink(sink)

	if err := m.FlipBit(0x110, 3); err != nil {
		t.Fatal(err)
	}
	var img Image
	m.Capture(&img)
	if err := m.RestoreImage(&img); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ImageByteAt(&img, 0x110); err != nil {
		t.Fatal(err)
	}

	if len(sink.got) != 0 {
		t.Fatalf("injector/checkpoint traffic leaked into the sink: %v", sink.got)
	}
}

// TestAccessSinkDisarm checks SetAccessSink(nil) stops tracing.
func TestAccessSinkDisarm(t *testing.T) {
	m, v := traceMemory(t)
	sink := &recordSink{}
	m.SetAccessSink(sink)
	v.Set(1)
	m.SetAccessSink(nil)
	v.Set(2)
	_ = v.Get()
	if len(sink.got) != 1 {
		t.Fatalf("disarmed sink still traced: %v", sink.got)
	}
}
