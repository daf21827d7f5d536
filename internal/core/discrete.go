package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Discrete is the parameter set Pdisc of the paper's §2.1: the valid
// value domain D and, for sequential signals, the valid-transition sets
// T(d) for every d in D.
type Discrete struct {
	// Domain is the set of valid values D. For linear sequential
	// signals the slice order is the traversal order.
	Domain []int64
	// Trans maps each domain value d to T(d), the set of values the
	// signal may legally take when its previous value was d. Trans is
	// ignored for DiscreteRandom signals and is derived automatically
	// for linear signals by NewLinear.
	Trans map[int64][]int64

	// The dense index of constructor-built sets whose span, from the
	// smallest to the largest value of D, holds at most 64 values (see
	// indexed): bit v-lo of dom is set for v ∈ D, and next[d-lo] is
	// T(d) as a bit set over the same span (nil for random sets). A
	// domain test is then one subtraction and one shift. Wide spans and
	// hand-built literals carry no index (dense false) and scan Domain
	// and Trans.
	dense bool
	lo    int64
	dom   uint64
	next  []uint64
}

// Errors returned by Discrete.Validate; match with errors.Is.
var (
	// ErrEmptyDomain reports an empty valid domain D.
	ErrEmptyDomain = errors.New("core: discrete domain D must not be empty")
	// ErrDuplicateValue reports a repeated value in D.
	ErrDuplicateValue = errors.New("core: discrete domain D contains a duplicate value")
	// ErrTransitionSource reports a T(d) entry whose d is not in D.
	ErrTransitionSource = errors.New("core: transition set source is not in the domain")
	// ErrTransitionTarget reports a transition target that is not in D.
	ErrTransitionTarget = errors.New("core: transition target is not in the domain")
	// ErrMissingTransitions reports a sequential signal without
	// transition sets.
	ErrMissingTransitions = errors.New("core: sequential discrete signals require transition sets T(d)")
)

// NewLinear builds the parameter set for a linear sequential signal
// that traverses domain in order, one value after another. With cyclic
// set, the last value transitions back to the first (the target
// system's scheduler slot number 0..6 is the canonical cyclic case).
// With allowStay set, a signal may also keep its current value between
// consecutive tests (for signals tested more often than they change).
func NewLinear(domain []int64, cyclic, allowStay bool) Discrete {
	trans := make(map[int64][]int64, len(domain))
	for idx, d := range domain {
		var t []int64
		if idx+1 < len(domain) {
			t = append(t, domain[idx+1])
		} else if cyclic && len(domain) > 0 {
			t = append(t, domain[0])
		}
		if allowStay {
			t = append(t, d)
		}
		trans[d] = t
	}
	return Discrete{Domain: append([]int64(nil), domain...), Trans: trans}.indexed()
}

// NewRandom builds the parameter set for a random discrete signal with
// the given valid domain. Any transition inside the domain is legal.
func NewRandom(domain []int64) Discrete {
	return Discrete{Domain: append([]int64(nil), domain...)}.indexed()
}

// Validate checks the legality of the parameter set for the given
// discrete class: D non-empty and duplicate-free, every transition
// source and target inside D, and transition sets present for
// sequential classes.
func (p Discrete) Validate(class Class) error {
	if !class.IsDiscrete() {
		return fmt.Errorf("%w: %v", ErrClassMismatch, class)
	}
	if len(p.Domain) == 0 {
		return ErrEmptyDomain
	}
	seen := make(map[int64]bool, len(p.Domain))
	for _, d := range p.Domain {
		if seen[d] {
			return fmt.Errorf("%w: %d", ErrDuplicateValue, d)
		}
		seen[d] = true
	}
	if class.IsSequential() {
		if p.Trans == nil {
			return ErrMissingTransitions
		}
		for src, targets := range p.Trans {
			if !seen[src] {
				return fmt.Errorf("%w: T(%d)", ErrTransitionSource, src)
			}
			for _, dst := range targets {
				if !seen[dst] {
					return fmt.Errorf("%w: %d in T(%d)", ErrTransitionTarget, dst, src)
				}
			}
		}
	}
	return nil
}

// contains reports whether v is an element of the valid domain D. The
// monitor's per-tick tests call it through a pointer to the active
// parameter set. The dense index needs no range check:
// uint64(v)-uint64(lo) is v's offset in the span, a v below lo wraps to
// an offset of at least the span's width (its top, lo+width-1, is at
// most MaxInt64), and dom and next[d] have no bit at or past the width
// (a shift by 64 or more yields zero).
func (p *Discrete) contains(v int64) bool {
	if !p.dense {
		return slices.Contains(p.Domain, v)
	}
	return p.dom>>(uint64(v)-uint64(p.lo))&1 != 0
}

// allows reports whether the transition from prev to v is an element
// of T(prev). Unknown prev values (e.g. after corruption of the stored
// previous value) allow no transitions.
func (p *Discrete) allows(prev, v int64) bool {
	if !p.dense {
		return slices.Contains(p.Trans[prev], v)
	}
	d := uint64(prev) - uint64(p.lo)
	return d < uint64(len(p.next)) && p.next[d]>>(uint64(v)-uint64(p.lo))&1 != 0
}

// indexed returns a copy of p carrying the dense index, or p itself
// when its span is wider than 64 values or some T(d) target lies
// outside it. Constructors and monitors call it once at configuration
// time, and copies of an indexed set share the index. It answers
// exactly as Domain and Trans do for every set that passes Validate:
// T(d) is only consulted for d in D.
func (p Discrete) indexed() Discrete {
	if p.dense || len(p.Domain) == 0 {
		return p
	}
	lo, hi := slices.Min(p.Domain), slices.Max(p.Domain)
	width := uint64(hi) - uint64(lo) + 1 // exact: hi >= lo
	if width == 0 || width > 64 {        // width 0: the span wrapped the whole int64 range
		return p
	}
	// off is v's offset in the span, at least width for every v outside
	// it (see contains).
	off := func(v int64) uint64 { return uint64(v) - uint64(lo) }
	for _, d := range p.Domain {
		p.dom |= 1 << off(d)
	}
	if p.Trans != nil {
		p.next = make([]uint64, width)
		for _, d := range p.Domain {
			for _, t := range p.Trans[d] {
				if off(t) >= width {
					p.next, p.dom = nil, 0
					return p
				}
				p.next[off(d)] |= 1 << off(t)
			}
		}
	}
	p.lo, p.dense = lo, true
	return p
}

// String renders D and T(d) deterministically (sorted) for logs and
// golden tests.
func (p Discrete) String() string {
	srcs := make([]int64, 0, len(p.Trans))
	for src := range p.Trans {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(a, b int) bool { return srcs[a] < srcs[b] })
	s := fmt.Sprintf("Pdisc{D=%v", p.Domain)
	for _, src := range srcs {
		s += fmt.Sprintf(" T(%d)=%v", src, p.Trans[src])
	}
	return s + "}"
}
