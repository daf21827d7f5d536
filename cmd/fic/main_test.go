package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
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

// stdoutOf runs fic with args and returns what it printed on stdout.
func stdoutOf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = orig
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// mustStdout is stdoutOf for a run that must succeed.
func mustStdout(t *testing.T, args ...string) string {
	t.Helper()
	out, err := stdoutOf(t, args...)
	if err != nil {
		t.Fatalf("fic %q: %v", args, err)
	}
	return out
}

// with returns protocol followed by extra, without aliasing protocol.
func with(protocol []string, extra ...string) []string {
	return append(append([]string(nil), protocol...), extra...)
}

// mergeArgs is `fic merge` of journals under protocol.
func mergeArgs(protocol []string, journals ...string) []string {
	return append(with([]string{"merge"}, protocol...), journals...)
}

// TestCasesShardsMergeByteIdentical pins the sharded campaign at the
// CLI: two -cases shards merged by fic merge, in either order, print
// the single-process stdout byte for byte; a shard journal cut
// mid-line makes the merge fail on the missing runs, and after -resume
// of that shard the merge prints the same bytes again.
func TestCasesShardsMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign three times")
	}
	protocol := []string{"-experiment", "all", "-grid", "2", "-observe", "4000", "-seed", "7", "-workers", "2"}
	dir := t.TempDir()
	s0, s1 := filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")
	want := mustStdout(t, protocol...)
	mustStdout(t, with(protocol, "-cases", "0,1", "-journal", s0)...)
	mustStdout(t, with(protocol, "-cases", "2,3", "-journal", s1)...)
	for _, order := range [][]string{{s0, s1}, {s1, s0}} {
		if got := mustStdout(t, mergeArgs(protocol, order...)...); got != want {
			t.Fatalf("merge of %q differs from the single-process run:\ngot:\n%s\nwant:\n%s", order, got, want)
		}
	}

	raw, err := os.ReadFile(s1)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(raw) / 2
	for raw[cut-1] == '\n' {
		cut--
	}
	if err := os.WriteFile(s1, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := stdoutOf(t, mergeArgs(protocol, s0, s1)...); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("merge with a cut shard: err = %v, want a missing-run error", err)
	}
	mustStdout(t, with(protocol, "-cases", "2,3", "-resume", s1)...)
	if got := mustStdout(t, mergeArgs(protocol, s0, s1)...); got != want {
		t.Fatal("merge after resuming the cut shard differs from the single-process run")
	}
}

// TestMergeRefusesBadShards pins each refusal of fic merge: a shard of
// another protocol or engine, a missing run, a wrong seed and a run
// outside the campaign's grid.
func TestMergeRefusesBadShards(t *testing.T) {
	protocol := []string{"-experiment", "e1", "-grid", "2", "-observe", "600", "-seed", "7", "-workers", "2"}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	mustStdout(t, with(protocol, "-cases", "0,1", "-journal", path("s0"))...)
	mustStdout(t, with(protocol, "-cases", "2,3", "-journal", path("s1"))...)
	if _, err := stdoutOf(t, mergeArgs(protocol, path("s0"), path("s1"))...); err != nil {
		t.Fatalf("merge of a complete shard set: %v", err)
	}
	mustStdout(t, "-experiment", "e1", "-grid", "2", "-observe", "600", "-seed", "8", "-cases", "2,3", "-journal", path("seed8"))
	mustStdout(t, with(protocol, "-engine", "memo", "-cases", "2,3", "-journal", path("memo"))...)

	// The other refusals edit shard 1's journal text: drop its last
	// run, change one run's seed, or add a run of case 9, which a 2x2
	// grid does not have.
	raw, err := os.ReadFile(path("s1"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	last := lines[len(lines)-1]
	edits := map[string]string{
		"missing": strings.Join(lines[:len(lines)-1], ""),
		"reseeded": strings.Join(lines[:len(lines)-1], "") +
			regexp.MustCompile(`"seed":\d+`).ReplaceAllString(last, `"seed":1`) + "\n",
		"foreign": string(raw) + regexp.MustCompile(`"case_idx":\d+`).ReplaceAllString(last, `"case_idx":9`) + "\n",
	}
	for name, text := range edits {
		if err := os.WriteFile(path(name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct{ shard, want string }{
		{"seed8", "another protocol (seed: journal 8, this run 7)"},
		{"memo", "memo engine, not snapshot"},
		{"missing", "missing 1 of"},
		{"reseeded", "different campaign"},
		{"foreign", "outside the campaign's grid"},
	} {
		if _, err := stdoutOf(t, mergeArgs(protocol, path("s0"), path(tc.shard))...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("merge with the %s shard: err = %v, want %q", tc.shard, err, tc.want)
		}
	}
}

// TestCasesFlagRefusesBadIndices pins that -cases with an index outside
// the grid or a duplicate index is refused before any run starts, and
// that fic merge takes no -cases, -journal or -resume.
func TestCasesFlagRefusesBadIndices(t *testing.T) {
	for list, want := range map[string]string{"4": "out of range", "-1": "out of range", "0,1,0": "listed twice", "0,x": "-cases"} {
		path := filepath.Join(t.TempDir(), "shard.jsonl")
		err := run([]string{"-experiment", "e1", "-grid", "2", "-observe", "600", "-cases", list, "-journal", path})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-cases %s: err = %v, want %q", list, err, want)
			continue
		}
		if log, err := journal.Load(path); err == nil && (len(log.Headers) > 0 || len(log.Runs) > 0) {
			t.Errorf("-cases %s journaled %d headers and %d runs before it was refused", list, len(log.Headers), len(log.Runs))
		}
	}
	for _, extra := range [][]string{{"-cases", "0"}, {"-journal", "x.jsonl"}, {"-resume", "x.jsonl"}} {
		if err := run(append(with([]string{"merge", "-experiment", "e1"}, extra...), "s0.jsonl")); err == nil || !strings.Contains(err.Error(), "do not apply") {
			t.Errorf("merge %q: err = %v, want a usage error", extra, err)
		}
	}
}
