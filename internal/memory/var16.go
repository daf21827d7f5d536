package memory

import "fmt"

// Var16 is a 16-bit application variable bound to a fixed address in a
// Memory. The target software performs all reads and writes of its
// state through Var16 values, so injected bit-flips are visible to the
// software immediately and software writes overwrite injected
// corruption exactly as on the real target.
//
// The binding caches the backing region slice; Get and Set are a few
// nanoseconds, which keeps full 40-second, 1 ms-resolution experiment
// runs cheap enough for 27 400-run campaigns.
type Var16 struct {
	addr uint16
	buf  []byte  // region backing store
	off  uint16  // offset of the high byte inside buf
	mem  *Memory // owner, consulted for the armed access sink
}

// Bind creates a Var16 for the big-endian word at addr. Both bytes
// must lie inside one region.
func Bind(m *Memory, name string, addr uint16) (Var16, error) {
	buf, off, err := m.bytesFor(addr)
	if err != nil {
		return Var16{}, fmt.Errorf("memory: binding %q: %w", name, err)
	}
	if int(off)+1 >= len(buf) {
		return Var16{}, fmt.Errorf("memory: binding %q: word at 0x%04x crosses region end", name, addr)
	}
	return Var16{addr: addr, buf: buf, off: off, mem: m}, nil
}

// MustBind is Bind for statically known layouts; it panics on error.
// It is intended for package-internal memory maps whose addresses are
// compile-time constants covered by tests.
func MustBind(m *Memory, name string, addr uint16) Var16 {
	v, err := Bind(m, name, addr)
	if err != nil {
		panic(err)
	}
	return v
}

// Addr returns the bound address of the high byte.
func (v Var16) Addr() uint16 { return v.addr }

// Get returns the current unsigned value.
func (v Var16) Get() uint16 {
	if v.mem != nil && v.mem.sink != nil {
		v.mem.sink.OnAccess(v.addr, 2, false)
	}
	return uint16(v.buf[v.off])<<8 | uint16(v.buf[v.off+1])
}

// Set stores the unsigned value.
func (v Var16) Set(x uint16) {
	if v.mem != nil && v.mem.sink != nil {
		v.mem.sink.OnAccess(v.addr, 2, true)
	}
	v.buf[v.off] = byte(x >> 8)
	v.buf[v.off+1] = byte(x)
}

// Add adds d to the stored unsigned value with 16-bit wrap-around and
// returns the new value (the CLOCK module's millisecond counter relies
// on this wrap behaviour).
func (v Var16) Add(d uint16) uint16 {
	x := v.Get() + d
	v.Set(x)
	return x
}
