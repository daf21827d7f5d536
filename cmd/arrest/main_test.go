package main

import (
	"strings"
	"testing"
)

func TestParseVersion(t *testing.T) {
	tests := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"all", 0, false},
		{"All", 0, false},
		{"none", -1, false},
		{"ea1", 1, false},
		{"EA7", 7, false},
		{"ea8", 0, true},
		{"", 0, true},
		{"bogus", 0, true},
	}
	for _, tt := range tests {
		got, err := parseVersion(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseVersion(%q) error = %v", tt.in, err)
			continue
		}
		if err == nil && int(got) != tt.want {
			t.Errorf("parseVersion(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// -csv writes the fault-free trace and nothing else, so asking it to
// inject an error or to dump memory must be refused, not ignored.
func TestCSVRefusesErrorAndDump(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-csv", "-error", "S5"}, "cannot inject -error S5"},
		{[]string{"-csv", "-dump"}, "-csv and -dump are exclusive"},
	} {
		err := run(tt.args)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tt.args, err, tt.want)
		}
	}
}
