// Package memory provides the byte-addressable simulated memory of the
// experiment target. The paper injects bit-flips into the physical RAM
// and stack of an embedded node via SWIFI; Go cannot safely flip bits
// in its own heap, so the target software of this reproduction keeps
// every application variable in a Memory instance and accesses it
// through 16-bit accessors (Var16). Bit-flips then corrupt exactly the
// words the software computes with, and errors propagate through
// genuine data flow as they would on hardware.
package memory

import (
	"errors"
	"fmt"
	"sort"
)

// RegionSpec describes one contiguous address range, e.g. the paper's
// application RAM (417 bytes) or stack (1008 bytes).
type RegionSpec struct {
	// Name identifies the region in injection reports ("ram", "stack").
	Name string
	// Base is the first address of the region.
	Base uint16
	// Size is the region length in bytes.
	Size uint16
}

// End returns the first address past the region.
func (r RegionSpec) End() uint32 { return uint32(r.Base) + uint32(r.Size) }

// Errors returned by Memory operations; match with errors.Is.
var (
	// ErrOverlap reports overlapping region specifications.
	ErrOverlap = errors.New("memory: regions overlap")
	// ErrEmptyRegion reports a zero-size region.
	ErrEmptyRegion = errors.New("memory: region size must be positive")
	// ErrOutOfRange reports an access outside every region.
	ErrOutOfRange = errors.New("memory: address out of range")
	// ErrBit reports a bit index outside 0..7.
	ErrBit = errors.New("memory: bit index out of range")
)

// AccessSink observes the target software's memory traffic: every read
// and write the software performs through Memory or Var16 accessors.
// The fault injector's own primitive (FlipBit) and the
// checkpoint machinery (Capture, RestoreImage) are NOT reported —
// they are the experiment apparatus, not data flow of the program under
// test. The def/use liveness pass of internal/inject uses the sink to
// prove which injected bit-flips are dead or overwritten before their
// next read.
type AccessSink interface {
	// OnAccess reports one n-byte access starting at addr. write is
	// true for stores, false for loads; the read-modify-write accessor
	// Var16.Add reports a load followed by a store.
	OnAccess(addr uint16, n int, write bool)
}

// Memory is a set of non-overlapping byte regions in one flat 16-bit
// address space, like the paper's microcontroller. One byte array backs
// the span from the lowest region base to the highest region end, and
// a per-byte tag marks the region each byte belongs to (0 for the gaps
// between regions), so resolving an access is one bounds-and-tag check.
// The zero value is unusable; construct with New. Memory is not safe
// for concurrent use; each experiment run owns its own instance.
type Memory struct {
	specs  []RegionSpec // sorted by base address
	base   uint16       // address of data[0]
	data   []byte       // the span
	tag    []uint8      // per byte of the span: its region's tag, 0 in a gap
	sink   AccessSink
	traced bool // sink != nil, the one field Var16's accessors test
}

// SetAccessSink arms (or, with nil, disarms) the access sink. While
// armed, every software load and store through this Memory and its
// bound Var16 accessors is reported. The disarmed fast path is one
// flag test, so campaigns that never trace pay (almost) nothing.
func (m *Memory) SetAccessSink(s AccessSink) {
	m.sink = s
	m.traced = s != nil
}

// report hands one access to the armed sink. It stays out of line so
// that the accessors' untraced path remains small enough to inline.
//
//go:noinline
func (m *Memory) report(addr uint16, n int, write bool) {
	m.sink.OnAccess(addr, n, write)
}

// New builds a memory from the given region specifications. Regions
// may be listed in any order; they are kept sorted by base address.
func New(specs ...RegionSpec) (*Memory, error) {
	if len(specs) == 0 {
		return nil, errors.New("memory: at least one region is required")
	}
	sorted := append([]RegionSpec(nil), specs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Base < sorted[b].Base })
	for i, s := range sorted {
		if s.Size == 0 {
			return nil, fmt.Errorf("%w: %q", ErrEmptyRegion, s.Name)
		}
		if s.End() > 1<<16 {
			return nil, fmt.Errorf("memory: region %q exceeds the 16-bit address space", s.Name)
		}
		if i > 0 && uint32(s.Base) < sorted[i-1].End() {
			return nil, fmt.Errorf("%w: %q and %q", ErrOverlap, sorted[i-1].Name, s.Name)
		}
	}
	base := sorted[0].Base
	span := int(sorted[len(sorted)-1].End()) - int(base)
	m := &Memory{specs: sorted, base: base, data: make([]byte, span), tag: make([]uint8, span)}
	for i, s := range sorted {
		// Only adjacent regions must differ in tag, and no region may
		// carry the gap's 0.
		lo := int(s.Base) - int(base)
		tag := m.tag[lo : lo+int(s.Size)]
		for j := range tag {
			tag[j] = uint8(1 + i%255)
		}
	}
	return m, nil
}

// offset resolves the n-byte access (n is 1 or 2) at addr to its offset
// in the span, or -1 unless every byte lies inside one region: an
// unmapped byte, a word that crosses a region end and a word that
// crosses into an adjacent region are all rejected.
func (m *Memory) offset(addr uint16, n int) int {
	off := int(addr) - int(m.base)
	if off < 0 || off+n > len(m.tag) || m.tag[off] == 0 || m.tag[off+n-1] != m.tag[off] {
		return -1
	}
	return off
}

// errRange reports an n-byte access at addr that offset rejected.
func errRange(addr uint16, n int) error {
	return fmt.Errorf("%w: %d-byte access at 0x%04x", ErrOutOfRange, n, addr)
}

// Regions returns the region specifications sorted by base address.
func (m *Memory) Regions() []RegionSpec {
	return append([]RegionSpec(nil), m.specs...)
}

// Span returns the first address of the lowest region and the number of
// bytes from there to the end of the highest region, gaps included.
func (m *Memory) Span() (base uint16, size int) { return m.base, len(m.data) }

// Mapped reports whether addr lies inside a region.
func (m *Memory) Mapped(addr uint16) bool { return m.offset(addr, 1) >= 0 }

// SetByteAt stores b at addr.
func (m *Memory) SetByteAt(addr uint16, b byte) error {
	off := m.offset(addr, 1)
	if off < 0 {
		return errRange(addr, 1)
	}
	if m.traced {
		m.report(addr, 1, true)
	}
	m.data[off] = b
	return nil
}

// FlipBit inverts one bit (0 = least significant) of the byte at addr.
// It is the SWIFI primitive: the paper's injector downloads an
// (address, bit position) pair and triggers the flip at run time.
func (m *Memory) FlipBit(addr uint16, bit uint8) error {
	if bit > 7 {
		return fmt.Errorf("%w: %d", ErrBit, bit)
	}
	off := m.offset(addr, 1)
	if off < 0 {
		return errRange(addr, 1)
	}
	m.data[off] ^= 1 << bit
	return nil
}
