package coordinator

// The router's HTTP surface is the marketing server itself, serving the
// Coordinator as its backend: the same handlers, resilience chain, request
// validation and error-to-status map a single adplatform process uses, so
// audit tooling points at a router exactly as it would at one backend. The
// router adds one operator route, GET /v1/topology. Its server runs with
// privacy off: Coordinator.Insights privatizes the merged report itself.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// TopologyResponse describes the fleet behind the router, including each
// shard's health state and whether it is currently admitted to the fan-out.
type TopologyResponse struct {
	Shards   int      `json:"shards"`
	Backends []string `json:"backends"`
	Health   []string `json:"health,omitempty"`
	Admitted []bool   `json:"admitted,omitempty"`
}

// Router serves the advertiser API over a Coordinator.
type Router struct {
	c   *Coordinator
	srv *marketing.Server
}

// NewRouter wraps a coordinator in the HTTP API, instrumenting into the
// given registry (nil for a private one).
func NewRouter(c *Coordinator, reg *obs.Registry) (*Router, error) {
	if c == nil {
		return nil, fmt.Errorf("coordinator: nil coordinator")
	}
	srv, err := marketing.NewBackendServer(c, marketing.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	return &Router{c: c, srv: srv}, nil
}

// Metrics returns the router's metrics registry.
func (rt *Router) Metrics() *obs.Registry { return rt.srv.Metrics() }

// Handler returns the marketing server's routing table plus the topology
// route.
func (rt *Router) Handler() http.Handler {
	mux := rt.srv.Handler()
	mux.HandleFunc("GET /v1/topology", rt.handleTopology)
	return mux
}

func (rt *Router) handleTopology(w http.ResponseWriter, _ *http.Request) {
	states := rt.c.Health().States()
	health := make([]string, len(states))
	admitted := make([]bool, len(states))
	for i, st := range states {
		health[i] = st.String()
		admitted[i] = rt.c.isAdmitted(i)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(TopologyResponse{
		Shards:   rt.c.Shards(),
		Backends: rt.c.Backends(),
		Health:   health,
		Admitted: admitted,
	})
}
