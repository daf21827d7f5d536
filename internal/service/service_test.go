package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/target"
)

// testSpec is the scaled campaign the service tests distribute: 4
// cases, 2 versions — the same shape the in-process resume tests use.
func testSpec(seed int64) experiment.Spec {
	return experiment.Spec{
		Grid:          2,
		ObservationMs: 1500,
		Seed:          seed,
		Versions:      []target.Version{target.VersionAll, target.VersionEA4},
		E2:            inject.E2Spec{RAM: 8, Stack: 4},
	}
}

// baselineText renders the single-process reference: the same campaign
// Spec run in one process, through the same TextFormat the service
// serves — the bytes a distributed run must reproduce exactly.
func baselineText(t *testing.T, spec experiment.Spec) string {
	t.Helper()
	e1, err := experiment.RunE1(experiment.Config{Spec: spec, Exec: experiment.Exec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep := experiment.Reporter{Format: experiment.TextFormat{}, Output: experiment.WriterOutput{W: &buf}}
	if err := rep.Report(&experiment.Results{Spec: spec, E1: e1}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startServer launches a ficd API on an httptest listener.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// submit posts a campaign and returns its info.
func submit(t *testing.T, base string, req SubmitRequest) CampaignInfo {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var info CampaignInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// fetch GETs a path and returns status and body.
func fetch(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// runWorker attaches one worker client until it drains.
func runWorker(t *testing.T, base, name string) chan error {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		Server: base, Name: name, Workers: 2,
		Poll: 50 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	return done
}

func waitDrained(t *testing.T, done ...chan error) {
	t.Helper()
	for i, ch := range done {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		case <-time.After(3 * time.Minute):
			t.Fatalf("worker %d did not drain", i)
		}
	}
}

func TestDistributedCampaignByteIdenticalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := testSpec(101010)
	want := baselineText(t, spec)

	_, ts := startServer(t, Options{Logf: t.Logf})
	info := submit(t, ts.URL, SubmitRequest{Kind: "e1", Spec: spec})
	if info.ShardCount != 4 || info.TotalRuns == 0 || info.State != StateRunning {
		t.Fatalf("submit info = %+v", info)
	}

	// Two worker processes share the campaign.
	waitDrained(t, runWorker(t, ts.URL, "alpha"), runWorker(t, ts.URL, "beta"))

	code, body := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID)
	if code != http.StatusOK {
		t.Fatalf("status: HTTP %d: %s", code, body)
	}
	var st StatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete || st.DoneShards != 4 || st.CompletedRuns != st.TotalRuns {
		t.Fatalf("campaign did not complete: %+v", st.CampaignInfo)
	}

	// The merged tables are byte-identical to the single-process run.
	code, got := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID+"/results?format=text")
	if code != http.StatusOK {
		t.Fatalf("results: HTTP %d", code)
	}
	if got != want {
		t.Fatalf("distributed tables differ from single-process run:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// JSON and journal formats serve from the same results.
	if code, body := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID+"/results?format=json"); code != http.StatusOK || !strings.Contains(body, `"experiment": "E1"`) {
		t.Fatalf("json results: HTTP %d: %.120s", code, body)
	}
	if code, body := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID+"/results?format=journal"); code != http.StatusOK || !strings.Contains(body, `"kind":"header"`) {
		t.Fatalf("journal results: HTTP %d: %.120s", code, body)
	}
}

func TestKilledWorkerLeaseExpiryByteIdenticalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := testSpec(121212)
	want := baselineText(t, spec)

	_, ts := startServer(t, Options{Logf: t.Logf})
	// Short lease so the dead worker's shard is reclaimed quickly.
	info := submit(t, ts.URL, SubmitRequest{Kind: "e1", Spec: spec, CasesPerShard: 2, LeaseMs: 400})

	// Worker "doomed" claims a shard and is killed mid-campaign: it
	// never heartbeats and never uploads.
	body, _ := json.Marshal(ClaimRequest{Worker: "doomed"})
	resp, err := http.Post(ts.URL+"/api/v1/campaigns/"+info.ID+"/claims", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cl ClaimResponse
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cl.Shard == nil {
		t.Fatalf("doomed worker got no shard: %+v", cl)
	}

	// The survivor finishes the whole campaign, including the dead
	// worker's shard once its lease expires.
	waitDrained(t, runWorker(t, ts.URL, "survivor"))

	code, got := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID+"/results?format=text")
	if code != http.StatusOK {
		t.Fatalf("results: HTTP %d: %s", code, got)
	}
	if got != want {
		t.Fatal("tables after lease-expiry reclaim differ from single-process run")
	}

	// The doomed worker's late heartbeat is rejected.
	hb, _ := json.Marshal(HeartbeatRequest{Worker: "doomed", CompletedRuns: 1})
	resp, err = http.Post(fmt.Sprintf("%s/api/v1/campaigns/%s/shards/%d/heartbeat", ts.URL, info.ID, cl.Shard.Index),
		"application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("late heartbeat: HTTP %d, want 409", resp.StatusCode)
	}
}

func TestServiceRestartRestoresCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := testSpec(131313)
	want := baselineText(t, spec)
	dir := t.TempDir()

	srv, ts := startServer(t, Options{StateDir: dir, Logf: t.Logf})
	info := submit(t, ts.URL, SubmitRequest{Kind: "e1", Spec: spec, CasesPerShard: 2})
	waitDrained(t, runWorker(t, ts.URL, "alpha"))
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted service restores the campaign from its state
	// directory — including the merged results, recomputed from the
	// persisted shard journals (the mid-merge-restart failure mode).
	_, ts2 := startServer(t, Options{StateDir: dir, Logf: t.Logf})
	code, body := fetch(t, ts2.URL, "/api/v1/campaigns/"+info.ID)
	if code != http.StatusOK {
		t.Fatalf("restored status: HTTP %d: %s", code, body)
	}
	var st StatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("restored campaign state = %s, want complete", st.State)
	}
	code, got := fetch(t, ts2.URL, "/api/v1/campaigns/"+info.ID+"/results?format=text")
	if code != http.StatusOK || got != want {
		t.Fatalf("restored results differ (HTTP %d)", code)
	}

	// A new submission on the restarted service gets a fresh ID.
	info2 := submit(t, ts2.URL, SubmitRequest{Kind: "e1", Spec: spec})
	if info2.ID == info.ID {
		t.Fatalf("restarted service reused campaign ID %s", info2.ID)
	}
}

func TestEventsStreamAndAPIErrors(t *testing.T) {
	spec := testSpec(141414)
	_, ts := startServer(t, Options{})
	info := submit(t, ts.URL, SubmitRequest{Kind: "e1", Spec: spec})

	// The SSE stream opens with a status snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/campaigns/"+info.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var first []string
	for sc.Scan() && len(first) < 2 {
		if line := sc.Text(); line != "" {
			first = append(first, line)
		}
	}
	if len(first) < 2 || first[0] != "event: status" || !strings.Contains(first[1], `"total_runs"`) {
		t.Fatalf("SSE opening = %q", first)
	}

	// Results before completion conflict; unknown campaigns 404;
	// unknown formats 400.
	if code, _ := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID+"/results"); code != http.StatusConflict {
		t.Fatalf("early results: HTTP %d, want 409", code)
	}
	if code, _ := fetch(t, ts.URL, "/api/v1/campaigns/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: HTTP %d, want 404", code)
	}
	if code, _ := fetch(t, ts.URL, "/api/v1/campaigns/"+info.ID+"/results?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: HTTP %d, want 400", code)
	}

	// Submissions with broken kinds, pre-set Cases, unknown engines or
	// a negative injection start are rejected.
	negStart := spec
	negStart.Policy = inject.Policy{StartMs: -5, PeriodMs: 20}
	for _, bad := range []SubmitRequest{
		{Kind: "e9", Spec: spec},
		{Kind: "e1", Spec: experiment.Spec{Grid: 2, Cases: []int{0}}},
		{Kind: "e1", Spec: spec, Engine: "warp"},
		{Kind: "e1", Spec: negStart},
	} {
		body, _ := json.Marshal(bad)
		resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad submit %+v: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}

	// Journal uploads validate: garbage bodies are rejected and leave
	// the shard claimable.
	u := fmt.Sprintf("%s/api/v1/campaigns/%s/shards/0/journal?worker=w", ts.URL, info.ID)
	up, err := http.Post(u, "application/x-ndjson", strings.NewReader("{\"kind\":\"header\",\"experiment\":\"E1\",\"seed\":9}\n"))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bogus journal upload: HTTP %d, want 422", up.StatusCode)
	}
}
