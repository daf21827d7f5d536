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

type region struct {
	spec RegionSpec
	data []byte
}

// AccessSink observes the target software's memory traffic: every read
// and write the software performs through Memory or Var16 accessors.
// The fault injector's own primitive (FlipBit) and the
// checkpoint machinery (Snapshot, Capture, Restore*) are NOT reported —
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

// Memory is a set of non-overlapping byte regions. The zero value is
// unusable; construct with New. Memory is not safe for concurrent use;
// each experiment run owns its own instance.
type Memory struct {
	regions []region
	sink    AccessSink
	traced  bool // sink != nil, the one field Var16's accessors test
}

// SetAccessSink arms (or, with nil, disarms) the access sink. While
// armed, every software load and store through this Memory and its
// bound Var16 accessors is reported. The disarmed fast path is one
// flag test, so campaigns that never trace pay (almost) nothing.
func (m *Memory) SetAccessSink(s AccessSink) {
	m.sink = s
	m.traced = s != nil
}

// report hands one Var16 access to the armed sink. It stays out of
// line so that the accessors' untraced path remains small enough to
// inline.
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
	m := &Memory{regions: make([]region, 0, len(sorted))}
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
		m.regions = append(m.regions, region{spec: s, data: make([]byte, s.Size)})
	}
	return m, nil
}

// find resolves addr to its region and offset.
func (m *Memory) find(addr uint16) (*region, uint16, error) {
	for i := range m.regions {
		r := &m.regions[i]
		if addr >= r.spec.Base && uint32(addr) < r.spec.End() {
			return r, addr - r.spec.Base, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: 0x%04x", ErrOutOfRange, addr)
}

// Regions returns the region specifications sorted by base address.
func (m *Memory) Regions() []RegionSpec {
	out := make([]RegionSpec, len(m.regions))
	for i, r := range m.regions {
		out[i] = r.spec
	}
	return out
}

// SetByteAt stores b at addr.
func (m *Memory) SetByteAt(addr uint16, b byte) error {
	r, off, err := m.find(addr)
	if err != nil {
		return err
	}
	if m.sink != nil {
		m.sink.OnAccess(addr, 1, true)
	}
	r.data[off] = b
	return nil
}

// ReadU16 returns the big-endian 16-bit word at addr. Both bytes must
// lie inside one region.
func (m *Memory) ReadU16(addr uint16) (uint16, error) {
	r, off, err := m.find(addr)
	if err != nil {
		return 0, err
	}
	if uint32(off)+1 >= uint32(len(r.data)) {
		return 0, fmt.Errorf("%w: word at 0x%04x crosses region end", ErrOutOfRange, addr)
	}
	if m.sink != nil {
		m.sink.OnAccess(addr, 2, false)
	}
	return uint16(r.data[off])<<8 | uint16(r.data[off+1]), nil
}

// WriteU16 stores v big-endian at addr. Both bytes must lie inside one
// region.
func (m *Memory) WriteU16(addr uint16, v uint16) error {
	r, off, err := m.find(addr)
	if err != nil {
		return err
	}
	if uint32(off)+1 >= uint32(len(r.data)) {
		return fmt.Errorf("%w: word at 0x%04x crosses region end", ErrOutOfRange, addr)
	}
	if m.sink != nil {
		m.sink.OnAccess(addr, 2, true)
	}
	r.data[off] = byte(v >> 8)
	r.data[off+1] = byte(v)
	return nil
}

// FlipBit inverts one bit (0 = least significant) of the byte at addr.
// It is the SWIFI primitive: the paper's injector downloads an
// (address, bit position) pair and triggers the flip at run time.
func (m *Memory) FlipBit(addr uint16, bit uint8) error {
	if bit > 7 {
		return fmt.Errorf("%w: %d", ErrBit, bit)
	}
	r, off, err := m.find(addr)
	if err != nil {
		return err
	}
	r.data[off] ^= 1 << bit
	return nil
}

// Zero clears every region to all-zero bytes.
func (m *Memory) Zero() {
	for i := range m.regions {
		for j := range m.regions[i].data {
			m.regions[i].data[j] = 0
		}
	}
}

// Snapshot copies the full memory contents for later Restore.
func (m *Memory) Snapshot() [][]byte {
	out := make([][]byte, len(m.regions))
	for i, r := range m.regions {
		out[i] = append([]byte(nil), r.data...)
	}
	return out
}

// Restore copies a Snapshot back. The snapshot must come from a memory
// with the same region layout.
func (m *Memory) Restore(snap [][]byte) error {
	if len(snap) != len(m.regions) {
		return fmt.Errorf("memory: snapshot has %d regions, memory has %d", len(snap), len(m.regions))
	}
	for i := range m.regions {
		if len(snap[i]) != len(m.regions[i].data) {
			return fmt.Errorf("memory: snapshot region %d size mismatch", i)
		}
		copy(m.regions[i].data, snap[i])
	}
	return nil
}

// bytesFor exposes a region's backing slice to Var16 for fast bound
// accessors.
func (m *Memory) bytesFor(addr uint16) ([]byte, uint16, error) {
	r, off, err := m.find(addr)
	if err != nil {
		return nil, 0, err
	}
	return r.data, off, nil
}
