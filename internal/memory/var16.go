package memory

import (
	"encoding/binary"
	"fmt"
)

// Var16 is a 16-bit application variable bound to a fixed address in a
// Memory. The target software performs all reads and writes of its
// state through Var16 values, so injected bit-flips are visible to the
// software immediately and software writes overwrite injected
// corruption exactly as on the real target.
//
// The binding points straight at the word's two bytes in the memory's
// backing span, and the untraced path of Get and Set is one flag test
// and a two-byte load or store, small enough for the compiler to inline
// (CI checks that it does). The accessor cost is the ledger's
// memory.var16_get_ns and memory.var16_set_ns.
type Var16 struct {
	w    *[2]byte // the bound word inside the memory's backing span
	mem  *Memory  // owner, consulted for the armed access sink
	addr uint16
}

// Bind creates a Var16 for the big-endian word at addr. Both bytes
// must lie inside one region.
func Bind(m *Memory, name string, addr uint16) (Var16, error) {
	v, ok := m.Word(addr)
	if !ok {
		return Var16{}, fmt.Errorf("memory: binding %q: %w", name, errRange(addr, 2))
	}
	return v, nil
}

// Word binds the word at addr like Bind, without a name or an error:
// ok is false unless both bytes lie inside one region. It is small
// enough to inline (CI checks that it does), so the target's dispatcher
// resolves its frame words, whose address is the run-time stack
// pointer, at the cost of one address check each.
func (m *Memory) Word(addr uint16) (v Var16, ok bool) {
	off := m.offset(addr, 2)
	if off < 0 {
		return Var16{}, false
	}
	return Var16{w: (*[2]byte)(m.data[off:]), mem: m, addr: addr}, true
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
	if v.mem.traced {
		v.mem.report(v.addr, 2, false)
	}
	return binary.BigEndian.Uint16(v.w[:])
}

// Set stores the unsigned value.
func (v Var16) Set(x uint16) {
	if v.mem.traced {
		v.mem.report(v.addr, 2, true)
	}
	binary.BigEndian.PutUint16(v.w[:], x)
}

// Add adds d to the stored unsigned value with 16-bit wrap-around and
// returns the new value (the CLOCK module's millisecond counter relies
// on this wrap behaviour).
func (v Var16) Add(d uint16) uint16 {
	x := v.Get() + d
	v.Set(x)
	return x
}
