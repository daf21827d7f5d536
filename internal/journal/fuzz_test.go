package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// Native fuzz targets. `go test` runs their seed corpora, under
// testdata/fuzz, as regular unit tests;
// `go test -fuzz=FuzzRead ./internal/journal` explores further.

// FuzzRead checks the one-pass Read against readTwoPass, the two-pass
// reader it replaced: for any bytes both return equal logs, or both
// return an error. The corpus covers the writers' own line shapes, the
// retired shard-ledger kinds both readers skip (shard_ledger), the
// lines that must leave the prefix fast path (reordered keys, a
// duplicate "kind" key, a mid-line cut, blank lines and a mistyped
// final line) and the run lines the run-line decoder must leave to
// encoding/json: a leading zero, a "+1" map key, an out-of-range int,
// '<' in err_id, invalid UTF-8, "detected":false, trailing spaces, a
// duplicate by_test key, an unknown trailing key and an empty by_test.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := Read(bytes.NewReader(data))
		want, wantErr := readTwoPass(bytes.NewReader(data))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("Read error %v, two-pass reader error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Read and the two-pass reader disagree:\nRead:     %+v\ntwo-pass: %+v", got, want)
		}
	})
}

// readTwoPass is Read as it stood before lines were decoded in one
// pass: copy every non-empty line, then unmarshal each twice, once for
// its kind and once into the kind's type. It is kept as FuzzRead's
// oracle.
func readTwoPass(r io.Reader) (*Log, error) {
	var lines [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading: %w", err)
	}

	log := &Log{}
	for i, line := range lines {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			if i == len(lines)-1 {
				log.Truncated = true
				break
			}
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		switch probe.Kind {
		case KindHeader:
			var h Header
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			log.Headers = append(log.Headers, h)
		case KindRun:
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			log.Runs = append(log.Runs, r)
		case KindProbe:
			var p Probe
			if err := json.Unmarshal(line, &p); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			log.Probes = append(log.Probes, p)
		case KindCost:
			var c Cost
			if err := json.Unmarshal(line, &c); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			log.Costs = append(log.Costs, c)
		default:
			// Unknown kinds are skipped so old readers survive future
			// record types.
		}
	}
	return log, nil
}

// FuzzHeaderMatch checks Header.Match, the identity check of resume
// and shard merges: it accepts a journal header
// exactly when the header records a protocol and its protocol bytes and
// engine equal the live header's, and every refusal names what
// differs: the missing protocol, each top-level protocol field that
// differs (or both protocols, when none does), or both engines.
func FuzzHeaderMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, experiment, runner string, protocol []byte, wantRunner string, wantProtocol []byte) {
		h := Header{Experiment: experiment, Runner: runner, Protocol: protocol}
		want := Header{Experiment: experiment, Runner: wantRunner, Protocol: wantProtocol}
		err := h.Match(want)
		same := len(protocol) > 0 && bytes.Equal(protocol, wantProtocol) && runner == wantRunner
		if (err == nil) != same {
			t.Fatalf("Match(%q/%q, %q/%q) = %v, want accepted=%v", protocol, runner, wantProtocol, wantRunner, err, same)
		}
		if err == nil {
			return
		}
		msg := err.Error()
		mustName := func(what string) {
			if !strings.Contains(msg, what) {
				t.Fatalf("refusal %q does not name %q", msg, what)
			}
		}
		switch {
		case len(protocol) == 0:
			mustName("no protocol")
		case !bytes.Equal(protocol, wantProtocol):
			mustName("another protocol")
			fields := differingFields(protocol, wantProtocol)
			for _, k := range fields {
				mustName(k + ": journal ")
			}
			if len(fields) == 0 {
				mustName("journal " + string(protocol))
				mustName("this run " + string(wantProtocol))
			}
		default:
			mustName("the " + runner + " engine, not " + wantRunner)
		}
	})
}

// differingFields lists the top-level fields whose values differ
// between two protocols that are both JSON objects, and nil otherwise.
func differingFields(got, want []byte) []string {
	var g, w map[string]json.RawMessage
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return nil
	}
	var out []string
	for k, v := range g {
		if !bytes.Equal(v, w[k]) {
			out = append(out, k)
		}
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}
