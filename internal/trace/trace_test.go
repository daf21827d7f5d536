package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestTraceAppendLen(t *testing.T) {
	var tr Trace
	if tr.Len() != 0 {
		t.Errorf("empty Len = %d", tr.Len())
	}
	for _, v := range []int64{5, -3, 9, 0} {
		tr.Append(v)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestSetAppend(t *testing.T) {
	s := NewSet(7, "a", "b")
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1); !errors.Is(err, ErrMismatch) {
		t.Fatalf("short row = %v, want ErrMismatch", err)
	}
	a, ok := s.Trace("a")
	if !ok || a.Samples[0] != 1 {
		t.Fatalf("Trace(a) = (%+v, %v)", a, ok)
	}
	if _, ok := s.Trace("z"); ok {
		t.Error("unknown trace found")
	}
	if len(s.traces) != 2 {
		t.Error("Traces() wrong length")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewSet(7, "x", "y")
	s.Append(10, -1)
	s.Append(20, -2)
	s.Append(30, -3)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := got.Trace("x")
	y, _ := got.Trace("y")
	if x.PeriodMs != 7 {
		t.Errorf("period = %d, want inferred 7", x.PeriodMs)
	}
	if x.Len() != 3 || x.Samples[2] != 30 || y.Samples[0] != -1 {
		t.Errorf("round trip lost data: x=%v y=%v", x.Samples, y.Samples)
	}
}

func TestCSVHeader(t *testing.T) {
	s := NewSet(1, "sig")
	s.Append(5)
	var buf bytes.Buffer
	s.WriteCSV(&buf)
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "t_ms,sig" {
		t.Errorf("header = %q", first)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":    "time,sig\n0,1\n",
		"no traces":     "t_ms\n0\n",
		"bad timestamp": "t_ms,sig\nxx,1\n",
		"bad value":     "t_ms,sig\n0,zz\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Empty cells are permitted (ragged trailing data).
	s, err := ReadCSV(strings.NewReader("t_ms,a,b\n0,1,\n7,2,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Trace("b")
	if b.Len() != 1 || b.Samples[0] != 5 {
		t.Errorf("ragged column = %v", b.Samples)
	}
}
