package campaignd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ffis/internal/results"
)

// TestPostRoutesRejectMalformedRequests sends every POST route a wrong
// method, bodies that are not one JSON value of the route's request type,
// and bodies cut short. Each must answer 4xx without a panic, and none may
// touch the store: the partial record file a live lease has written stays
// byte-identical, and the lease then accepts its next batch as if nothing
// had happened.
func TestPostRoutesRejectMalformedRequests(t *testing.T) {
	coord, ws, _ := coordForOneSpec(t, 10, 3, time.Minute)
	g, ok, _, err := coord.Lease("a")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	h := wireHeader(t, ws, 11)
	if err := coord.Ingest(g.LeaseID, &h, []results.Record{{Index: 0, Outcome: "benign"}, {Index: 1, Outcome: "SDC", Fired: true}}); err != nil {
		t.Fatal(err)
	}
	before := storeBytes(t, coord.store.Dir())

	next := RecordsRequest{LeaseID: g.LeaseID, Records: []results.Record{{Index: 2, Outcome: "crash", Fired: true, RunErr: "boom"}}}
	valid := map[string]any{
		"/lease":     LeaseRequest{Worker: "b"},
		"/heartbeat": HeartbeatRequest{LeaseID: g.LeaseID, Worker: "a", Done: 2},
		"/records":   next,
		"/complete":  CompleteRequest{LeaseID: g.LeaseID},
	}
	serve := func(method, route string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(method, route, bytes.NewReader(body)))
		return rec
	}
	for _, route := range []string{"/lease", "/heartbeat", "/records", "/complete"} {
		body, err := json.Marshal(valid[route])
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name, method string
			body         []byte
		}{
			{"GET", http.MethodGet, body},
			{"PUT", http.MethodPut, body},
			{"not JSON", http.MethodPost, []byte("lease please")},
			{"empty body", http.MethodPost, nil},
			{"wrong field type", http.MethodPost, []byte(`{"lease_id":7,"worker":[],"records":"none"}`)},
			{"array", http.MethodPost, []byte(`[` + string(body) + `]`)},
			{"trailing garbage", http.MethodPost, append(append([]byte(nil), body...), []byte(`}{"x"`)...)},
			{"two values", http.MethodPost, append(append([]byte(nil), body...), body...)},
			{"truncated", http.MethodPost, body[:len(body)/2]},
			{"truncated by one byte", http.MethodPost, body[:len(body)-1]},
		}
		for _, tc := range cases {
			rec := serve(tc.method, route, tc.body)
			if rec.Code < 400 || rec.Code >= 500 {
				t.Errorf("%s %s (%s): status %d, want 4xx; body %q", tc.method, route, tc.name, rec.Code, rec.Body.String())
			}
		}
	}
	if after := storeBytes(t, coord.store.Dir()); !sameFiles(before, after) {
		t.Fatal("a rejected request changed the results store")
	}
	if p := coord.Progress(); len(p) != 1 || p[0].State != "leased" || p[0].Worker != "a" || p[0].Persisted != 2 {
		t.Fatalf("progress after rejected requests = %+v, want leased by a with 2 persisted", p)
	}
	body, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(http.MethodPost, "/records", body); rec.Code != http.StatusNoContent {
		t.Fatalf("valid /records after rejected requests: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// sameFiles reports whether two storeBytes snapshots hold the same files
// with the same contents.
func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}
