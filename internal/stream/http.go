package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// HTTP API of the sigmond service: method+path mux patterns and JSON
// envelopes; SIGMOND.md is the reference.
//
//	GET  /healthz                      liveness
//	POST /api/v1/ingest                binary sample batches (wire format)
//	POST /api/v1/flush                 barrier: applied + journaled
//	GET  /api/v1/metrics               Metrics JSON
//	GET  /api/v1/detections            all detection lines (TSV)
//	GET  /api/v1/streams/{id}/stats    one stream's live accounting

// IngestResponse acknowledges a POST /api/v1/ingest.
type IngestResponse struct {
	// Accepted is the number of samples queued to shards.
	Accepted int `json:"accepted"`
	// Dropped is the number of samples shed (PolicyShed on full
	// queues; always 0 under PolicyBlock).
	Dropped int `json:"dropped"`
}

// StreamStatsResponse is one stream's live accounting.
type StreamStatsResponse struct {
	Stream     uint32 `json:"stream"`
	Samples    uint64 `json:"samples"`
	Detections uint64 `json:"detections"`
	Rejected   uint64 `json:"rejected"`
	// Monitors is the per-assertion breakdown from the live suite.
	Monitors []StreamMonitorStats `json:"monitors"`
}

// StreamMonitorStats is one monitor's row in StreamStatsResponse.
type StreamMonitorStats struct {
	Name       string `json:"name"`
	Class      string `json:"class"`
	Tests      uint64 `json:"tests"`
	Violations uint64 `json:"violations"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// bodyPool recycles ingest request bodies: batch payloads arrive at a
// high rate, and reading each into a fresh buffer would make the HTTP
// layer the only allocating stage of the ingest path.
var bodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// readBody reads r fully into a pooled buffer. The caller must return
// the buffer with putBody when done with the bytes.
func readBody(r io.Reader) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return bp, nil
		}
		if err != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, err
		}
	}
}

func putBody(bp *[]byte) { bodyPool.Put(bp) }

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /api/v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /api/v1/flush", s.handleFlush)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/detections", s.handleDetections)
	mux.HandleFunc("GET /api/v1/streams/{id}/stats", s.handleStreamStats)
	return mux
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	bp, err := readBody(r.Body)
	if err != nil {
		// A client killed mid-request lands here: the short read is
		// rejected whole, nothing was applied.
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	accepted, dropped, err := s.Ingest(*bp)
	putBody(bp)
	if err != nil {
		status := http.StatusBadRequest
		if err == ErrClosed {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Accepted: accepted, Dropped: dropped})
}

func (s *Service) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.Flush(); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Service) handleDetections(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/tab-separated-values")
	if err := s.DetectionsTo(w); err != nil {
		// Headers may be gone already; the line-oriented format lets the
		// client fall back to the complete-lines prefix (CompleteLines).
		return
	}
}

func (s *Service) handleStreamStats(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad stream ID %q", r.PathValue("id"))
		return
	}
	stats, samples, detections, rejected, ok := s.StreamStats(uint32(id))
	if !ok {
		writeErr(w, http.StatusNotFound, "no samples seen from stream %d", id)
		return
	}
	resp := StreamStatsResponse{
		Stream:     uint32(id),
		Samples:    samples,
		Detections: detections,
		Rejected:   rejected,
		Monitors:   make([]StreamMonitorStats, 0, len(stats)),
	}
	for _, st := range stats {
		resp.Monitors = append(resp.Monitors, StreamMonitorStats{
			Name:       st.Name,
			Class:      st.Class.String(),
			Tests:      st.Tests,
			Violations: st.Violations,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes an ErrorResponse.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
