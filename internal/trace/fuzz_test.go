package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the parser is total: arbitrary input either
// parses into a consistent set or returns an error — never panics —
// and whatever parses round-trips through WriteCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add("t_ms,a\n0,1\n7,2\n")
	f.Add("t_ms,a,b\n0,1,\n")
	f.Add("")
	f.Add("garbage")
	f.Add("t_ms,x\nnot,a,number\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(s.traces) == 0 {
			t.Fatal("parsed set without traces")
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatalf("re-encoding a parsed set failed: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-parsing our own encoding failed: %v", err)
		}
		if len(again.traces) != len(s.traces) {
			t.Fatalf("round trip changed trace count %d -> %d", len(s.traces), len(again.traces))
		}
		for i, tr := range s.traces {
			got := again.traces[i]
			if got.Name != tr.Name || got.Len() != tr.Len() {
				t.Fatalf("round trip changed trace %q", tr.Name)
			}
			for j := range tr.Samples {
				if tr.Samples[j] != got.Samples[j] {
					t.Fatalf("round trip changed %q[%d]", tr.Name, j)
				}
			}
		}
	})
}
