package campaignd

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ffis/internal/experiments"
	"ffis/internal/results"
)

// Wire types of the coordinator protocol. Everything is JSON over HTTP —
// net/http and encoding/json only, matching the repository's no-new-deps
// rule — and every request that mutates state names its lease, which is
// the protocol's only fencing token: a revoked lease gets 410 Gone and
// the worker abandons the spec.

// LeaseRequest asks for the next pending spec.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant is a granted work lease: run indices [Start, Spec.Runs) of
// Spec, valid while heartbeats arrive within the TTL.
type LeaseGrant struct {
	LeaseID   string               `json:"lease_id"`
	Spec      experiments.WireSpec `json:"spec"`
	Start     int                  `json:"start"`
	TTLMillis int64                `json:"ttl_ms"`
}

// LeaseResponse wraps a grant with the two no-work cases: Done (grid
// finished, worker should exit) and Retry (everything leased out or
// awaiting expiry, poll again).
type LeaseResponse struct {
	Done  bool        `json:"done,omitempty"`
	Retry bool        `json:"retry,omitempty"`
	Grant *LeaseGrant `json:"grant,omitempty"`
}

// HeartbeatRequest extends a lease. The optional Worker name plus
// cumulative stage aggregates — summed worker-side from its run-event
// stream — feed the coordinator's /metrics view; a bare lease renewal
// leaves them zero. Reused counts the done runs that copied an earlier
// record instead of executing; the stage sums cover executed runs only.
type HeartbeatRequest struct {
	LeaseID        string `json:"lease_id"`
	Worker         string `json:"worker,omitempty"`
	Done           int64  `json:"done,omitempty"`
	Reused         int64  `json:"reused,omitempty"`
	CloneMicros    int64  `json:"clone_us,omitempty"`
	WorkloadNanos  int64  `json:"workload_ns,omitempty"`
	ClassifyMicros int64  `json:"classify_us,omitempty"`
	SimNanos       int64  `json:"sim_ns,omitempty"`
}

// RecordsRequest streams a batch of finished records. Header rides along
// on the lease's first batch only.
type RecordsRequest struct {
	LeaseID string           `json:"lease_id"`
	Header  *results.Header  `json:"header,omitempty"`
	Records []results.Record `json:"records,omitempty"`
}

// CompleteRequest finalizes a fully delivered spec.
type CompleteRequest struct {
	LeaseID string `json:"lease_id"`
}

// ProgressResponse is the live grid view.
type ProgressResponse struct {
	Done  bool           `json:"done"`
	Specs []SpecProgress `json:"specs"`
}

// Handler exposes the coordinator over HTTP:
//
//	POST /lease      LeaseRequest     -> LeaseResponse
//	POST /heartbeat  HeartbeatRequest -> 204 | 410
//	POST /records    RecordsRequest   -> 204 | 409 | 410
//	POST /complete   CompleteRequest  -> 204 | 409 | 410
//	GET  /progress                    -> ProgressResponse
//	GET  /metrics                     -> Metrics
//	GET  /report?format=text|csv|json|markdown -> rendered report
//
// With AuthToken set, every route requires "Authorization: Bearer
// <token>" and answers 401 otherwise.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		grant, ok, done, err := c.Lease(req.Worker)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := LeaseResponse{Done: done}
		if ok {
			resp.Grant = &grant
		} else if !done {
			resp.Retry = true
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		if !c.Heartbeat(req) {
			http.Error(w, errLeaseGone.Error(), http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/records", func(w http.ResponseWriter, r *http.Request) {
		var req RecordsRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Ingest(req.LeaseID, req.Header, req.Records); err != nil {
			http.Error(w, err.Error(), ingestStatus(err))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Complete(req.LeaseID); err != nil {
			http.Error(w, err.Error(), ingestStatus(err))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ProgressResponse{Done: c.Done(), Specs: c.Progress()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Metrics())
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		out, err := c.Report(r.URL.Query().Get("format"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, out)
	})
	if c.AuthToken != "" {
		return requireBearer(c.AuthToken, mux)
	}
	return mux
}

// requireBearer gates next behind a shared-secret bearer token, compared
// in constant time.
func requireBearer(token string, next http.Handler) http.Handler {
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if len(got) != len(want) || subtle.ConstantTimeCompare(got, want) != 1 {
			http.Error(w, "campaignd: missing or invalid bearer token", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ingestStatus maps coordinator errors to HTTP: a dead lease is Gone (the
// worker should walk away quietly), everything else about a live lease —
// out-of-order records, header drift, store refusals — is a Conflict the
// worker must treat as fatal for the spec.
func ingestStatus(err error) int {
	if errors.Is(err, errLeaseGone) {
		return http.StatusGone
	}
	return http.StatusConflict
}

// decode reads a POST body that holds exactly one JSON value into v, and
// answers 405 or 400 otherwise. Trailing data is refused, not ignored: a
// request is acted on only when all of it was understood.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil && dec.Decode(&json.RawMessage{}) != io.EOF {
		err = errors.New("trailing data after the JSON value")
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("campaignd: bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
