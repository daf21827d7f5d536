package stream

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStreamStatsPinned replays one bit-flipped trace and pins the
// stream's accounting twice: through Service.StreamStats and as the
// exact bytes of GET /api/v1/streams/{id}/stats. The monitors come
// sorted by name; every monitor tested every sample; the stream's
// detections are the sum of its monitors' violations.
func TestStreamStatsPinned(t *testing.T) {
	rows := testTrace(t, 0)
	rows = FlipBit(rows, 300, 3, 15) // pulscnt
	rows = FlipBit(rows, 700, 5, 9)  // mscnt
	rows = FlipBit(rows, 1200, 0, 14)
	svc, err := New(Config{Shards: 2, MaxStreams: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, _, err := svc.Ingest(EncodeTrace(nil, 5, rows, 128, true)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		name, class       string
		tests, violations uint64
	}{
		{"IsValue", "Co/Ra", 2000, 0},
		{"OutValue", "Co/Ra", 2000, 0},
		{"SetValue", "Co/Ra", 2000, 2},
		{"i", "Di/Se/Li", 2000, 0},
		{"ms_slot_nbr", "Di/Se/Li", 2000, 0},
		{"mscnt", "Co/Mo/St", 2000, 2},
		{"pulscnt", "Co/Mo/Dy", 2000, 2},
	}
	stats, samples, detections, rejected, ok := svc.StreamStats(5)
	if !ok || samples != 2000 || rejected != 0 || len(stats) != len(want) {
		t.Fatalf("StreamStats = %d rows, %d samples, %d rejected, ok %v", len(stats), samples, rejected, ok)
	}
	var sum uint64
	for k, m := range stats {
		w := want[k]
		if m.Name != w.name || fmt.Sprint(m.Class) != w.class || m.Tests != w.tests || m.Violations != w.violations {
			t.Errorf("row %d = %s %v %d/%d, want %s %s %d/%d",
				k, m.Name, m.Class, m.Violations, m.Tests, w.name, w.class, w.violations, w.tests)
		}
		sum += m.Violations
	}
	if detections != sum || detections != 6 {
		t.Errorf("detections = %d, want Σ violations = %d (6)", detections, sum)
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/streams/5/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const wantBody = `{"stream":5,"samples":2000,"detections":6,"rejected":0,"monitors":[` +
		`{"name":"IsValue","class":"Co/Ra","tests":2000,"violations":0},` +
		`{"name":"OutValue","class":"Co/Ra","tests":2000,"violations":0},` +
		`{"name":"SetValue","class":"Co/Ra","tests":2000,"violations":2},` +
		`{"name":"i","class":"Di/Se/Li","tests":2000,"violations":0},` +
		`{"name":"ms_slot_nbr","class":"Di/Se/Li","tests":2000,"violations":0},` +
		`{"name":"mscnt","class":"Co/Mo/St","tests":2000,"violations":2},` +
		`{"name":"pulscnt","class":"Co/Mo/Dy","tests":2000,"violations":2}]}` + "\n"
	if resp.StatusCode != http.StatusOK || string(body) != wantBody {
		t.Errorf("GET stats: status %d, body\n%s\nwant\n%s", resp.StatusCode, body, wantBody)
	}
}
