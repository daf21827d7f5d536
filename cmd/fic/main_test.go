package main

import (
	"strings"
	"testing"

	"easig/internal/inject"
)

// TestScaleFlagsRejected pins that both subcommands refuse a grid,
// window or period of zero or below, and a negative injection start,
// before any work starts, instead of letting the library's zero-value
// defaults run the full protocol.
func TestScaleFlagsRejected(t *testing.T) {
	subcommands := map[string]func([]string) error{
		"fic":          run,
		"fic optimize": runOptimize,
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-grid", "0"}, "-grid"},
		{[]string{"-grid", "-2"}, "-grid"},
		{[]string{"-observe", "0"}, "-observe"},
		{[]string{"-observe", "-1"}, "-observe"},
		{[]string{"-period", "0"}, "-period"},
		{[]string{"-period", "-20"}, "-period"},
		{[]string{"-start", "-5"}, "-start"},
	}
	for name, sub := range subcommands {
		for _, tc := range cases {
			err := sub(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %q: err = %v, want a %s usage error", name, tc.args, err, tc.want)
			}
		}
	}
}

func TestCheckScaleAcceptsSmallestScale(t *testing.T) {
	if err := checkScale(1, 1, inject.Policy{StartMs: 0, PeriodMs: 1}); err != nil {
		t.Fatalf("checkScale(1, 1, {0, 1}) = %v, want nil", err)
	}
}
