package core

import "fmt"

// Class identifies a node in the signal classification scheme of the
// paper's Figure 1. Leaf classes (the six concrete classes a signal can
// be instantiated with) are ContinuousRandom, ContinuousMonotonicStatic,
// ContinuousMonotonicDynamic, DiscreteRandom, DiscreteSequentialLinear
// and DiscreteSequentialNonLinear.
type Class int

const (
	// ClassUnknown is the zero value; it is not a valid classification.
	ClassUnknown Class = iota

	// ContinuousRandom marks a continuous signal that may increase,
	// decrease or remain unchanged between consecutive tests, within
	// configured rate limits (paper Figure 2a).
	ContinuousRandom

	// ContinuousMonotonicStatic marks a continuous signal that changes
	// monotonically with one fixed rate (paper Figure 2b). A millisecond
	// counter incremented by exactly one per test is the canonical case.
	ContinuousMonotonicStatic

	// ContinuousMonotonicDynamic marks a continuous signal that changes
	// monotonically with a rate anywhere inside a configured range
	// (paper Figure 2c). A pulse counter fed by a rotation sensor is the
	// canonical case.
	ContinuousMonotonicDynamic

	// DiscreteRandom marks a discrete signal allowed to make any
	// transition between values of its valid domain D.
	DiscreteRandom

	// DiscreteSequentialLinear marks a discrete signal that must
	// traverse its valid domain in a fixed predefined order, one value
	// after another (e.g. a scheduler slot number).
	DiscreteSequentialLinear

	// DiscreteSequentialNonLinear marks a discrete signal whose
	// transitions follow an arbitrary but predefined graph T(d)
	// (e.g. a state machine, paper Figure 3).
	DiscreteSequentialNonLinear
)

// String returns the compact notation used in the paper's Table 4
// (Co = continuous, Di = discrete, Ra = random, Mo = monotonic,
// St = static rate, Dy = dynamic rate, Se = sequential, Li = linear).
func (c Class) String() string {
	switch c {
	case ContinuousRandom:
		return "Co/Ra"
	case ContinuousMonotonicStatic:
		return "Co/Mo/St"
	case ContinuousMonotonicDynamic:
		return "Co/Mo/Dy"
	case DiscreteRandom:
		return "Di/Ra"
	case DiscreteSequentialLinear:
		return "Di/Se/Li"
	case DiscreteSequentialNonLinear:
		return "Di/Se/NL"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// IsContinuous reports whether c is one of the continuous leaf classes.
func (c Class) IsContinuous() bool {
	switch c {
	case ContinuousRandom, ContinuousMonotonicStatic, ContinuousMonotonicDynamic:
		return true
	}
	return false
}

// IsDiscrete reports whether c is one of the discrete leaf classes.
func (c Class) IsDiscrete() bool {
	switch c {
	case DiscreteRandom, DiscreteSequentialLinear, DiscreteSequentialNonLinear:
		return true
	}
	return false
}

// IsSequential reports whether c is a sequential discrete class.
func (c Class) IsSequential() bool {
	return c == DiscreteSequentialLinear || c == DiscreteSequentialNonLinear
}

// Classes returns the six leaf classes of the classification scheme in
// the order they appear in the paper's Figure 1 (continuous branch
// first).
func Classes() []Class {
	return []Class{
		ContinuousMonotonicStatic,
		ContinuousMonotonicDynamic,
		ContinuousRandom,
		DiscreteSequentialLinear,
		DiscreteSequentialNonLinear,
		DiscreteRandom,
	}
}

// ParseClass parses the compact Table 4 notation produced by
// Class.String (case-sensitive). It returns an error for unknown
// notations.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return ClassUnknown, fmt.Errorf("core: unknown signal class %q", s)
}
