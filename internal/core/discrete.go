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

	// keys is D in ascending order and next[i] is T(keys[i]): the
	// lookup index of constructor-built sets (see indexed). Lookups
	// scan them linearly, O(|D|) each; the largest domain monitored
	// here, the scheduler slot number 0..6, has 7 values, where a scan
	// beats both a hash lookup and a binary search.
	keys []int64
	next [][]int64
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

// Contains reports whether v is an element of the valid domain D.
// Parameter sets from the constructors (and those stored in monitors)
// carry a sorted index; hand-built literals fall back to a scan of
// Domain.
func (p Discrete) Contains(v int64) bool { return p.contains(v) }

// Allows reports whether the transition from prev to v is an element of
// T(prev). Unknown prev values (e.g. after corruption of the stored
// previous value) allow no transitions.
func (p Discrete) Allows(prev, v int64) bool { return p.allows(prev, v) }

// contains is Contains without the copy of p; the monitor's per-tick
// tests call it through a pointer to the active parameter set.
func (p *Discrete) contains(v int64) bool {
	if p.keys == nil {
		return slices.Contains(p.Domain, v)
	}
	return p.find(v) >= 0
}

// allows is Allows without the copy of p.
func (p *Discrete) allows(prev, v int64) bool {
	if p.keys == nil {
		return slices.Contains(p.Trans[prev], v)
	}
	i := p.find(prev)
	return i >= 0 && slices.Contains(p.next[i], v)
}

// find returns the index of v in keys, or -1, stopping the scan at the
// first key not below v.
func (p *Discrete) find(v int64) int {
	for i, d := range p.keys {
		if d >= v {
			if d == v {
				return i
			}
			break
		}
	}
	return -1
}

// indexed returns a copy of p carrying the sorted index. Constructors
// and monitors call it once at configuration time, so the amortized
// cost of the index is nil. It answers exactly as Domain and Trans do
// for every set that passes Validate: T(d) is only consulted for d in
// D.
func (p Discrete) indexed() Discrete {
	if p.keys != nil || len(p.Domain) == 0 {
		return p
	}
	p.keys = slices.Clone(p.Domain)
	slices.Sort(p.keys)
	p.next = make([][]int64, len(p.keys))
	for i, d := range p.keys {
		p.next[i] = p.Trans[d]
	}
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
