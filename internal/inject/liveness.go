package inject

import (
	"easig/internal/memory"
)

// Liveness is the def/use fault-liveness pass over the target's memory
// map (417 B application RAM + 1008 B stack): it observes one full
// nominal profile run through a memory.AccessSink and classifies every
// byte as live or dead with respect to the time-triggered injection
// schedule.
//
// The analysis: at every injection epoch (a tick boundary where the
// §3.4 schedule flips the bit, before that tick's software runs) every
// byte becomes "pending". A software load of a pending byte marks it
// live; a software store clears pending. A byte that is never read
// while pending — because it is never read at all, or because the
// software always overwrites it between an injection epoch and its
// next read — is dead: a bit-flip in it can never reach a computation.
//
// Soundness of pruning dead bytes follows by induction over ticks.
// Suppose the fault's byte is dead. At any point of the faulty run,
// assume every load so far returned its nominal value (true initially:
// injections start at a tick boundary and the first load of the byte,
// if any, is preceded by a store in the same epoch interval, which —
// by the hypothesis — wrote the nominal value over the corruption).
// Then every computed value is nominal, every store writes the nominal
// value, and the next load of the fault's byte again follows a store
// within the same epoch interval, returning the nominal value. So the
// whole trajectory — plant, signals, monitors, detections — equals the
// nominal run, and the outcome can be derived from the nominal profile
// with zero simulation. Re-injection is harmless for the same reason:
// the flip is an involution applied to whatever value rests in the
// byte, and that value is only ever observed after a nominal store.
//
// The nominal all-assertions profile is a sound access superset for
// every version build: a version's accesses are a subset of the
// profile's (omitted monitors just skip their checks), and every
// profile store with no counterpart in a reduced version — a monitor's
// s' store or a recovery write-back — is preceded in the same call by a
// load of the same byte (Node.test loads the signal, then s', before
// it stores the accepted value into s' and any recovery into the
// signal), so removing the store cannot turn a dead byte live. The analysis is
// conservative in the other direction too: a read-while-pending marks
// live even if the corruption would have cancelled out, which only
// costs pruning opportunity, never correctness.
type Liveness struct {
	mem     *memory.Memory // layout only: which addresses are mapped
	base    uint16         // first address of the memory's span
	pending []bool         // per byte of the span: injected-and-not-yet-stored
	live    []bool         // per byte of the span: read while pending
}

// NewLiveness builds the pass over the span of m, the memory of the
// node under injection.
func NewLiveness(m *memory.Memory) *Liveness {
	base, size := m.Span()
	return &Liveness{mem: m, base: base, pending: make([]bool, size), live: make([]bool, size)}
}

// MarkInjection marks an injection epoch: every byte becomes pending
// until the software stores over it.
func (l *Liveness) MarkInjection() {
	for i := range l.pending {
		l.pending[i] = true
	}
}

// OnAccess implements memory.AccessSink. The memory reports only
// accesses to mapped bytes, so every byte lies in the span.
func (l *Liveness) OnAccess(addr uint16, n int, write bool) {
	for i := 0; i < n; i++ {
		a := int(addr) + i - int(l.base)
		if write {
			l.pending[a] = false
		} else if l.pending[a] {
			l.live[a] = true
		}
	}
}

// Live reports whether a fault at addr can influence the run. Addresses
// outside every region are conservatively live.
func (l *Liveness) Live(addr uint16) bool {
	return !l.mem.Mapped(addr) || l.live[addr-l.base]
}
