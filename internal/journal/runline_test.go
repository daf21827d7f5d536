package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// writerRecord is a Record as Writer.Run journals it, drawn for
// TestQuickRunLine.
type writerRecord struct{ Record }

// Generate draws a record over every omitempty combination, with nil,
// one-key and multi-key ByTest maps, the int64 extremes and negative
// values in every integer field, and strings of any printable ASCII the
// writer emits unescaped.
func (writerRecord) Generate(rng *rand.Rand, _ int) reflect.Value {
	num := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.MinInt64
		case 2:
			return math.MaxInt64
		case 3:
			return -rng.Int63n(1000)
		default:
			return rng.Int63() >> uint(rng.Intn(63))
		}
	}
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			for b[i] = byte(0x20 + rng.Intn(0x5f)); strings.IndexByte(`"\<>&`, b[i]) >= 0; {
				b[i] = byte(0x20 + rng.Intn(0x5f))
			}
		}
		return string(b)
	}
	r := Record{
		Kind:       KindRun,
		Experiment: str(),
		Version:    int(num()),
		ErrIdx:     int(num()),
		CaseIdx:    int(num()),
		Seed:       num(),
		Detected:   rng.Intn(2) == 0,
		Failed:     rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		r.ErrID = str()
	}
	if rng.Intn(2) == 0 {
		r.LatencyMs = num()
	}
	if n := rng.Intn(4); n > 0 {
		r.ByTest = make(map[int]int, n)
		for len(r.ByTest) < n {
			r.ByTest[int(num())] = int(num())
		}
	}
	return reflect.ValueOf(writerRecord{r})
}

// TestQuickRunLine checks the run-line decoder against json.Marshal,
// the writer's encoder, and json.Unmarshal, the decoder it stands in
// for: every journaled record decodes, and to the record json.Unmarshal
// reads from the same line.
func TestQuickRunLine(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	property := func(w writerRecord) bool {
		line, err := json.Marshal(w.Record)
		if err != nil {
			t.Fatal(err)
		}
		var want Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		got, ok := decodeRun(line, "")
		if !ok || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, w.Record) {
			t.Logf("line %s: decoded %+v (accepted %v), json.Unmarshal %+v", line, got, ok, want)
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunLineRefusals lists lines the run-line decoder must leave to
// encoding/json, one per way of leaving the writer's shape (FuzzRead's
// corpus has each inside a journal). Read must still decode each
// exactly as json.Unmarshal does, or fail where it fails.
func TestRunLineRefusals(t *testing.T) {
	const head = `{"kind":"run","experiment":"E1","version":8,"err_idx":0`
	for name, line := range map[string]string{
		"leading zero":         head + `,"case_idx":01,"seed":1}`,
		"plus map key":         head + `,"case_idx":0,"seed":1,"by_test":{"+1":2}}`,
		"int out of range":     head + `,"case_idx":0,"seed":9223372036854775808}`,
		"int wraps uint64":     head + `,"case_idx":0,"seed":18446744073709551617}`,
		"minus zero":           head + `,"case_idx":-0,"seed":1}`,
		"html byte in err_id":  head + `,"err_id":"S<1","case_idx":0,"seed":1}`,
		"escape in err_id":     head + `,"err_id":"S\u003c1","case_idx":0,"seed":1}`,
		"invalid utf-8":        head + `,"err_id":"S` + "\xff" + `","case_idx":0,"seed":1}`,
		"false literal":        head + `,"case_idx":0,"seed":1,"detected":false}`,
		"trailing spaces":      head + `,"case_idx":0,"seed":1}  `,
		"whitespace":           head + `, "case_idx":0,"seed":1}`,
		"duplicate by_test":    head + `,"case_idx":0,"seed":1,"by_test":{"1":2,"1":3}}`,
		"empty by_test":        head + `,"case_idx":0,"seed":1,"by_test":{}}`,
		"unknown trailing key": head + `,"case_idx":0,"seed":1,"note":1}`,
		"float":                head + `,"case_idx":0,"seed":1.0}`,
		"reordered keys":       head + `,"seed":1,"case_idx":0}`,
		"duplicate kind":       head + `,"case_idx":0,"seed":1,"kind":"probe"}`,
	} {
		if r, ok := decodeRun([]byte(line), ""); ok {
			t.Errorf("%s: decoder accepted %s as %+v", name, line, r)
		}
		var want Record
		wantErr := json.Unmarshal([]byte(line), &want)
		log, err := Read(strings.NewReader(line + "\n" + `{"kind":"cost","experiment":"E1"}` + "\n"))
		switch {
		case (err != nil) != (wantErr != nil):
			t.Errorf("%s: Read error %v, json.Unmarshal error %v", name, err, wantErr)
		case err == nil && want.Kind == KindRun && (len(log.Runs) != 1 || !reflect.DeepEqual(log.Runs[0], want)):
			t.Errorf("%s: Read %+v, json.Unmarshal %+v", name, log.Runs, want)
		}
	}
}

// TestReadRunLineAllocs gates the decode cost of writer-shaped run
// lines: Read allocates per line only the record's own err_id string
// and, when the run has one, its ByTest map (a map and its first group),
// and nothing on behalf of encoding/json, whose reflective decode
// allocates several times that per line. A change that sends run lines
// back through encoding/json fails here.
func TestReadRunLineAllocs(t *testing.T) {
	const lines = 4000
	var buf bytes.Buffer
	header := fmt.Sprintf(`{"kind":"header","experiment":"E2-exhaustive","total_runs":%d}`+"\n", lines)
	buf.WriteString(header)
	withByTest := 0
	for i := 0; i < lines; i++ {
		r := Record{Kind: KindRun, Experiment: "E2-exhaustive", ErrIdx: i / 4, ErrID: fmt.Sprintf("R0x%04x.%d", 0x100+i/32, i/4%8),
			CaseIdx: i % 4, Seed: int64(i) * 7919}
		if i%10 == 0 {
			r.Detected, r.LatencyMs, r.ByTest = true, 20, map[int]int{4: i % 30, 1: 2}
			withByTest++
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	journal := buf.Bytes()
	read := func(data []byte) func() {
		return func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	perLine := (testing.AllocsPerRun(5, read(journal)) - testing.AllocsPerRun(5, read([]byte(header)))) / lines
	budget := float64(lines+2*withByTest)/lines + 0.01
	if perLine > budget {
		t.Errorf("Read allocates %.2f times per run line, want at most %.2f (err_id, ByTest map)", perLine, budget)
	}
}
