package coordinator

// The advertiser API's status codes, pinned on both surfaces: the same raw
// HTTP requests go to a single-process marketing server and to a 2-shard
// router, and each must answer with the same status. Router-only rows cover
// what only a fleet can answer: topology conflicts, a quarantined shard, and
// a diverging or unreachable shard.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
)

// Shard fault modes for the router-only rows.
const (
	shardHealthy = iota
	shardDiverges
	shardUnreachable
)

// shardFault misbehaves on demand in front of one backend: it answers
// campaign creates with an ID no other shard allocated (divergence), or
// drops every connection without an answer (an unreachable shard).
type shardFault struct{ mode atomic.Int32 }

func (f *shardFault) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch f.mode.Load() {
		case shardDiverges:
			if r.URL.Path == "/v1/campaigns" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusCreated)
				fmt.Fprint(w, `{"id":"c-diverged"}`)
				return
			}
		case shardUnreachable:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		next.ServeHTTP(w, r)
	})
}

type statusRow struct {
	name   string
	method string
	path   string
	body   string
	want   int
}

// send issues one raw request and returns the status, the Retry-After header,
// and the decoded error envelope.
func send(t *testing.T, base string, row statusRow) (int, string, marketing.ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(row.method, base+row.path, strings.NewReader(row.body))
	if err != nil {
		t.Fatal(err)
	}
	if row.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", row.name, err)
	}
	var env marketing.ErrorResponse
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		t.Errorf("%s: error body %q is not a JSON envelope: %v", row.name, raw, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), env
}

func checkRow(t *testing.T, surface, base string, row statusRow) (retryAfter string) {
	t.Helper()
	code, retryAfter, env := send(t, base, row)
	if code != row.want {
		t.Errorf("%s: %s = %d (%s), want %d", surface, row.name, code, env.Error, row.want)
	}
	if env.Error == "" {
		t.Errorf("%s: %s: empty error message", surface, row.name)
	}
	return retryAfter
}

func TestAdvertiserAPIStatusCodes(t *testing.T) {
	singleURL := newBackend(t, nil)
	single, err := marketing.NewClient(singleURL)
	if err != nil {
		t.Fatal(err)
	}
	singleAds := setupAccount(t, single, 1)

	fault := &shardFault{}
	backends := []string{newBackend(t, nil), newBackend(t, fault.wrap)}
	coord, err := New(Config{Backends: backends, DayBackoff: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	router, err := NewRouter(coord, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	fleet, err := marketing.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fleetAds := setupAccount(t, fleet, 1)
	if singleAds[0] != fleetAds[0] {
		t.Fatalf("surfaces allocated different ad IDs: %s vs %s", singleAds[0], fleetAds[0])
	}
	ad := fleetAds[0]

	oversized := `{"name":"` + strings.Repeat("a", int(marketing.DefaultServerLimits().MaxBodyBytes)) + `"}`
	rows := []statusRow{
		{"bad objective", "POST", "/v1/campaigns", `{"name":"x","objective":"FAME"}`, 400},
		{"malformed JSON", "POST", "/v1/campaigns", `{"name":`, 400},
		{"unknown field", "POST", "/v1/customaudiences", `{"name":"x","colour":"red"}`, 400},
		{"body over MaxBodyBytes", "POST", "/v1/customaudiences", oversized, 413},
		{"GET unknown ad", "GET", "/v1/ads/ad-missing", "", 404},
		{"insights unknown ad", "GET", "/v1/insights?ad_id=ad-missing", "", 404},
		{"appeal unknown ad", "POST", "/v1/ads/ad-missing/appeal", "", 404},
		{"appeal active ad", "POST", "/v1/ads/" + ad + "/appeal", "", 400},
		{"insights missing ad_id", "GET", "/v1/insights", "", 400},
		{"insights unknown breakdown", "GET", "/v1/insights?ad_id=" + ad + "&breakdown=age,shoe", "", 400},
		{"deliver workers -1", "POST", "/v1/deliver", `{"ad_ids":["` + ad + `"],"seed":1,"workers":-1}`, 400},
	}
	for _, row := range rows {
		checkRow(t, "single", singleURL, row)
		checkRow(t, "router", ts.URL, row)
	}

	// Router-only rows, in an order where each fault leaves the next row's
	// precondition intact: the divergence desynchronizes shard 1's ID
	// allocator for good, and quarantine is never lifted.
	checkRow(t, "router", ts.URL, statusRow{"deliver workers != shards", "POST", "/v1/deliver",
		`{"ad_ids":["` + ad + `"],"seed":1,"workers":3}`, 400})

	// Insights need a delivered day before a healthy fleet can answer them.
	if err := fleet.Deliver(context.Background(), fleetAds, 1); err != nil {
		t.Fatal(err)
	}
	fault.mode.Store(shardUnreachable)
	checkRow(t, "router", ts.URL, statusRow{"insights, unreachable shard", "GET", "/v1/insights?ad_id=" + ad, "", 502})

	fault.mode.Store(shardDiverges)
	checkRow(t, "router", ts.URL, statusRow{"create campaign, diverging shard", "POST", "/v1/campaigns",
		`{"name":"x","objective":"TRAFFIC"}`, 502})

	fault.mode.Store(shardHealthy)
	coord.Quarantine(1)
	if ra := checkRow(t, "router", ts.URL, statusRow{"insights, quarantined shard", "GET", "/v1/insights?ad_id=" + ad, "", 503}); ra != "2" {
		t.Errorf("quarantined-shard insights Retry-After = %q, want \"2\"", ra)
	}
}
