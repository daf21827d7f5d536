package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/target"
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

// TestPlacementFlag pins that -placement producer reaches the campaign
// Spec, as the protocol in the journal header shows, and that an
// unknown placement is refused before any work starts.
func TestPlacementFlag(t *testing.T) {
	if err := run([]string{"-experiment", "e1", "-placement", "middle"}); err == nil || !strings.Contains(err.Error(), "-placement") {
		t.Errorf("-placement middle: err = %v, want a -placement usage error", err)
	}

	path := filepath.Join(t.TempDir(), "e1.jsonl")
	if err := run([]string{"-experiment", "e1", "-grid", "1", "-observe", "600", "-placement", "producer", "-journal", path}); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := log.Header(experiment.ExperimentE1)
	if !ok {
		t.Fatal("journal has no E1 header")
	}
	var spec experiment.Spec
	if err := json.Unmarshal(h.Protocol, &spec); err != nil {
		t.Fatalf("header protocol %s: %v", h.Protocol, err)
	}
	if spec.Placement != target.PlacementProducer {
		t.Errorf("journaled placement = %v, want producer (protocol %s)", spec.Placement, h.Protocol)
	}
}
