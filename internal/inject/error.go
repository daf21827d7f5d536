// Package inject implements the fault-injection side of the paper's
// case study: the FIC3 campaign computer's error sets, the SWIFI
// bit-flip injector and the single-run experiment controller.
//
// The paper's §3.4 defines two error sets:
//
//   - E1: 112 errors — one bit-flip per bit position of each of the
//     seven monitored 16-bit signals (Table 6), used to estimate Pds,
//     the detection probability for errors in monitored signals;
//   - E2: 200 errors — bit-flips at uniformly random (address, bit)
//     positions, 150 in application RAM (417 bytes) and 50 in the
//     stack (1008 bytes), sampled with replacement, used to estimate
//     the total detection probability Pdetect.
//
// Errors are injected time-triggered with a 20 ms period during the
// 40-second observation window, so the same bit is flipped repeatedly
// (an intermittent fault model).
package inject

import (
	"fmt"
	"math/rand"

	"easig/internal/memory"
	"easig/internal/target"
)

// Error is one injectable error: a bit position at a byte address in
// one memory region of the master node.
type Error struct {
	// ID is the campaign identifier, e.g. "S17" (E1, Table 6 error
	// numbers) or "R42"/"K7" (E2 RAM/stack errors).
	ID string
	// Signal is the monitored signal name for E1 errors, "" for E2.
	Signal string
	// SignalIdx is the 0-based monitored-signal index for E1 errors,
	// -1 for E2.
	SignalIdx int
	// Region is the memory region name ("ram" or "stack").
	Region string
	// Addr is the byte address of the flipped byte.
	Addr uint16
	// Bit is the flipped bit within the byte (0 = least significant).
	Bit uint8
}

// Apply flips the error's bit in the given memory. Flipping is an
// involution: applying the same error twice restores the original
// contents, which is why periodic re-injection toggles the bit.
func (e Error) Apply(mem *memory.Memory) error {
	return mem.FlipBit(e.Addr, e.Bit)
}

// String renders the error for reports.
func (e Error) String() string {
	if e.Signal != "" {
		return fmt.Sprintf("%s: %s word-bit at 0x%04x bit %d", e.ID, e.Signal, e.Addr, e.Bit)
	}
	return fmt.Sprintf("%s: %s byte 0x%04x bit %d", e.ID, e.Region, e.Addr, e.Bit)
}

// BuildE1 builds the paper's error set E1 (Table 6): for each of the
// seven monitored signals, one bit-flip per bit position of its 16-bit
// word, 112 errors total, numbered S1..S112 in signal-major order
// (S1..S16 hit SetValue bit 0..15, S17..S32 hit IsValue, ...).
//
// The signals occupy the first seven words of the master's application
// RAM (see target.Vars); word bit b maps to byte bit b%8 of the low
// (b < 8) or high byte of the big-endian word.
func BuildE1() []Error {
	names := target.SignalNames()
	out := make([]Error, 0, len(names)*16)
	for sigIdx, name := range names {
		wordAddr := uint16(target.RAMBase + 2*sigIdx)
		for bit := 0; bit < 16; bit++ {
			byteAddr := wordAddr + 1 // low byte of the big-endian word
			byteBit := uint8(bit)
			if bit >= 8 {
				byteAddr = wordAddr
				byteBit = uint8(bit - 8)
			}
			out = append(out, Error{
				ID:        fmt.Sprintf("S%d", sigIdx*16+bit+1),
				Signal:    name,
				SignalIdx: sigIdx,
				Region:    target.RegionRAM,
				Addr:      byteAddr,
				Bit:       byteBit,
			})
		}
	}
	return out
}

// ExhaustiveSize is the number of errors BuildExhaustive builds, for
// callers that only count them.
const ExhaustiveSize = 8 * (target.RAMSize + target.StackSize)

// BuildExhaustive builds the full E2-style fault space: one bit-flip
// error per (byte, bit) position of the application RAM and the stack,
// 8×(417+1008) = 11,400 errors. Where the paper (and BuildE2) samples
// 200 random positions to *estimate* Pdetect, the exhaustive set lets
// the memoizing/pruning runner *measure* it over the whole space.
// Errors are ordered region-major, then address, then bit, with stable
// IDs "R0x%04x.%d" (RAM) and "K0x%04x.%d" (stack).
func BuildExhaustive() []Error {
	out := make([]Error, 0, ExhaustiveSize)
	for off := 0; off < target.RAMSize; off++ {
		addr := uint16(target.RAMBase + off)
		for bit := uint8(0); bit < 8; bit++ {
			out = append(out, Error{
				ID:        fmt.Sprintf("R0x%04x.%d", addr, bit),
				SignalIdx: -1,
				Region:    target.RegionRAM,
				Addr:      addr,
				Bit:       bit,
			})
		}
	}
	for off := 0; off < target.StackSize; off++ {
		addr := uint16(target.StackBase + off)
		for bit := uint8(0); bit < 8; bit++ {
			out = append(out, Error{
				ID:        fmt.Sprintf("K0x%04x.%d", addr, bit),
				SignalIdx: -1,
				Region:    target.RegionStack,
				Addr:      addr,
				Bit:       bit,
			})
		}
	}
	return out
}

// E2Spec sizes the random error set; the zero value is not useful,
// use DefaultE2Spec.
type E2Spec struct {
	// RAM is the number of errors drawn in the application RAM region.
	RAM int `json:"ram"`
	// Stack is the number of errors drawn in the stack region.
	Stack int `json:"stack"`
}

// DefaultE2Spec returns the paper's E2 sizing: 150 RAM errors and 50
// stack errors.
func DefaultE2Spec() E2Spec { return E2Spec{RAM: 150, Stack: 50} }

// BuildE2 builds an E2-style error set: spec.RAM errors uniform over
// the application RAM bytes and spec.Stack errors uniform over the
// stack bytes, each with a uniform bit position, sampled with
// replacement as in the paper. The set is a deterministic function of
// the seed.
func BuildE2(spec E2Spec, seed int64) []Error {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Error, 0, spec.RAM+spec.Stack)
	for i := 0; i < spec.RAM; i++ {
		out = append(out, Error{
			ID:        fmt.Sprintf("R%d", i+1),
			SignalIdx: -1,
			Region:    target.RegionRAM,
			Addr:      uint16(target.RAMBase + rng.Intn(target.RAMSize)),
			Bit:       uint8(rng.Intn(8)),
		})
	}
	for i := 0; i < spec.Stack; i++ {
		out = append(out, Error{
			ID:        fmt.Sprintf("K%d", i+1),
			SignalIdx: -1,
			Region:    target.RegionStack,
			Addr:      uint16(target.StackBase + rng.Intn(target.StackSize)),
			Bit:       uint8(rng.Intn(8)),
		})
	}
	return out
}
