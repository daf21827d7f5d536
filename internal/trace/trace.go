// Package trace records signal time series from simulation runs and
// exports them as CSV, for the calibration workflow (fault-free traces
// feed core.Calibrator), the sigmon tool and the Figure-2 style plots.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Trace is one named integer time series with a fixed sampling period.
type Trace struct {
	// Name labels the series (usually a signal name).
	Name string
	// PeriodMs is the sampling period in milliseconds.
	PeriodMs int64
	// Samples holds the series.
	Samples []int64
}

// Append adds one sample.
func (t *Trace) Append(v int64) { t.Samples = append(t.Samples, v) }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Set is an ordered collection of traces sharing a time base.
type Set struct {
	traces []*Trace
}

// ErrMismatch reports CSV rows whose arity does not match the header.
var ErrMismatch = errors.New("trace: row width does not match header")

// NewSet builds a set of empty traces with the given names and period.
func NewSet(periodMs int64, names ...string) *Set {
	s := &Set{}
	for _, n := range names {
		s.traces = append(s.traces, &Trace{Name: n, PeriodMs: periodMs})
	}
	return s
}

// Trace returns the trace with the given name.
func (s *Set) Trace(name string) (*Trace, bool) {
	for _, t := range s.traces {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Append adds one sample row; values follow declaration order.
func (s *Set) Append(values ...int64) error {
	if len(values) != len(s.traces) {
		return fmt.Errorf("%w: %d values for %d traces", ErrMismatch, len(values), len(s.traces))
	}
	for i, v := range values {
		s.traces[i].Append(v)
	}
	return nil
}

// WriteCSV writes the set as CSV: a header of trace names preceded by
// "t_ms", then one row per sample.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"t_ms"}
	period := int64(1)
	for _, t := range s.traces {
		header = append(header, t.Name)
		if t.PeriodMs > 0 {
			period = t.PeriodMs
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	n := 0
	for _, t := range s.traces {
		if t.Len() > n {
			n = t.Len()
		}
	}
	row := make([]string, len(header))
	for i := 0; i < n; i++ {
		row[0] = strconv.FormatInt(int64(i)*period, 10)
		for j, t := range s.traces {
			if i < t.Len() {
				row[j+1] = strconv.FormatInt(t.Samples[i], 10)
			} else {
				row[j+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV stream in WriteCSV's format back into a set.
// The t_ms column is used only to infer the period.
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < 2 || header[0] != "t_ms" {
		return nil, errors.New("trace: header must start with t_ms and name at least one trace")
	}
	s := NewSet(1, header[1:]...)
	var t0, t1 int64
	rows := 0
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("%w: row %d", ErrMismatch, rows+1)
		}
		ts, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad timestamp %q: %w", rows+1, rec[0], err)
		}
		switch rows {
		case 0:
			t0 = ts
		case 1:
			t1 = ts
		}
		for j, cell := range rec[1:] {
			if cell == "" {
				continue
			}
			v, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d column %q: %w", rows+1, header[j+1], err)
			}
			s.traces[j].Append(v)
		}
		rows++
	}
	if rows >= 2 && t1 > t0 {
		for _, t := range s.traces {
			t.PeriodMs = t1 - t0
		}
	}
	return s, nil
}
