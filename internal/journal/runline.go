package journal

import "math"

// decodeRun decodes line as a run record when it has exactly the shape
// Writer.Run emits, json.Marshal of a Record:
//
//	{"kind":"run","experiment":"…","version":N,"err_idx":N[,"err_id":"…"],
//	"case_idx":N,"seed":N[,"detected":true][,"failed":true]
//	[,"latency_ms":N][,"by_test":{"K":N,…}]}
//
// with no whitespace, strings of printable ASCII that json.Marshal
// writes unescaped (no '"', '\\', '<', '>' or '&'), integers written
// canonically (no '+', no leading zero, no "-0") within their field's
// range, and a non-empty by_test without a repeated key. It reports
// false for every other line, valid JSON or not, and leaves that line
// to encoding/json; so a line it accepts decodes to the Record
// json.Unmarshal gives, and the reflective decode is spent only on
// lines off this shape. A refused line returns the zero Record.
// prevExp is the previous run's experiment, reused instead of a new
// string when it is the same.
func decodeRun(line []byte, prevExp string) (Record, bool) {
	s := runScanner{b: line}
	r := Record{Kind: KindRun}
	s.lit(`{"kind":"run","experiment":"`)
	if exp := s.str(); string(exp) == prevExp {
		r.Experiment = prevExp
	} else {
		r.Experiment = string(exp)
	}
	s.lit(`,"version":`)
	r.Version = s.int()
	s.lit(`,"err_idx":`)
	r.ErrIdx = s.int()
	if s.opt(`,"err_id":"`) {
		r.ErrID = string(s.str())
	}
	s.lit(`,"case_idx":`)
	r.CaseIdx = s.int()
	s.lit(`,"seed":`)
	r.Seed = s.int64()
	r.Detected = s.opt(`,"detected":true`)
	r.Failed = s.opt(`,"failed":true`)
	if s.opt(`,"latency_ms":`) {
		r.LatencyMs = s.int64()
	}
	if s.opt(`,"by_test":{`) {
		r.ByTest = make(map[int]int)
		for more := true; more && !s.bad; more = s.opt(",") {
			s.lit(`"`)
			k := s.int()
			s.lit(`":`)
			n := len(r.ByTest)
			if r.ByTest[k] = s.int(); len(r.ByTest) == n {
				s.bad = true
			}
		}
		s.lit("}")
	}
	s.lit("}")
	if s.bad || len(s.b) != 0 {
		return Record{}, false
	}
	return r, true
}

// runScanner consumes a run line from the front. The first mismatch
// sets bad, after which every method consumes nothing.
type runScanner struct {
	b   []byte
	bad bool
}

// lit consumes p, which must come next.
func (s *runScanner) lit(p string) {
	if !s.opt(p) {
		s.bad = true
	}
}

// opt consumes p when it comes next and reports whether it did.
func (s *runScanner) opt(p string) bool {
	if s.bad || len(s.b) < len(p) || string(s.b[:len(p)]) != p {
		return false
	}
	s.b = s.b[len(p):]
	return true
}

// str consumes a string's body and its closing quote and returns the
// body, which the caller copies before keeping.
func (s *runScanner) str() []byte {
	if s.bad {
		return nil
	}
	for i, c := range s.b {
		switch {
		case c == '"':
			v := s.b[:i]
			s.b = s.b[i+1:]
			return v
		case c < 0x20 || c > 0x7e || c == '\\' || c == '<' || c == '>' || c == '&':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// int64 consumes a canonical decimal integer that fits an int64.
func (s *runScanner) int64() int64 {
	if s.bad {
		return 0
	}
	neg := len(s.b) > 0 && s.b[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	start := i
	var u uint64
	for ; i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9'; i++ {
		if i-start == 19 { // 19 digits always fit a uint64; 20 may not.
			s.bad = true
			return 0
		}
		u = u*10 + uint64(s.b[i]-'0')
	}
	digits := s.b[start:i]
	if len(digits) == 0 || digits[0] == '0' && (len(digits) > 1 || neg) ||
		!neg && u > math.MaxInt64 || neg && u > -math.MinInt64 {
		s.bad = true
		return 0
	}
	s.b = s.b[i:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// int consumes a canonical decimal integer that fits an int.
func (s *runScanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}
