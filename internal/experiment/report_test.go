package experiment

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"easig/internal/target"
)

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]string{"": "text", "text": "text", "json": "json"} {
		f, err := ParseFormat(name)
		if err != nil || f.Name() != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %s", name, f, err, want)
		}
	}
	for _, name := range []string{"xml", "journal", "jsonl"} {
		if _, err := ParseFormat(name); err == nil {
			t.Errorf("ParseFormat accepted %s", name)
		}
	}
}

func TestTextFormatMatchesFicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign")
	}
	spec := shardTestSpec(959595)
	e1, err := RunE1(Config{Spec: spec, Exec: Exec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := RunE2(Config{Spec: spec, Exec: Exec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}

	// The byte sequence fic's table-printing path has always produced.
	var want bytes.Buffer
	cases := spec.Grid * spec.Grid
	fmt.Fprintln(&want, Table6(cases))
	fmt.Fprintln(&want, Table7(e1))
	fmt.Fprintln(&want, Table8(e1))
	fmt.Fprintln(&want, TestBreakdown(e1, target.VersionAll))
	fmt.Fprintln(&want, Table9(e2))
	fmt.Fprintln(&want, ComputeHeadline(e1, e2))
	if fit, err := FitModel(e1, e2); err == nil {
		fmt.Fprintln(&want, fit)
	}

	var got bytes.Buffer
	rep := Reporter{Format: TextFormat{}, Output: WriterOutput{W: &got}}
	if err := rep.Report(&Results{Spec: spec, E1: e1, E2: e2}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("TextFormat diverges from fic's print sequence:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}

	// JSONFormat renders the stable export schema.
	var js bytes.Buffer
	if err := (Reporter{Format: JSONFormat{}, Output: WriterOutput{W: &js}}).Report(&Results{Spec: spec, E1: e1, E2: e2}); err != nil {
		t.Fatal(err)
	}
	var wantJS bytes.Buffer
	if err := WriteJSON(&wantJS, e1, e2); err != nil {
		t.Fatal(err)
	}
	if js.String() != wantJS.String() {
		t.Fatal("JSONFormat diverges from WriteJSON")
	}
}

func TestFileOutputWriteError(t *testing.T) {
	rep := Reporter{Format: TextFormat{}, Output: FileOutput{Path: filepath.Join(t.TempDir(), "no", "such", "dir.txt")}}
	if err := rep.Report(&Results{}); err == nil {
		t.Fatal("FileOutput created a file under a missing directory")
	}
	if rep := (Reporter{Format: TextFormat{}}); rep.Report(&Results{}) == nil {
		t.Fatal("reporter without an output reported")
	}
}
