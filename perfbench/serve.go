package main

import (
	"context"
	"os"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/store"
)

// serveRate is the serve workload's advertiser arrival rate: 330 requests a
// second, well below what two connections sustain, so that the latencies
// are service times more than queueing behind hiccups of a shared host.
const serveRate = 30

// serveWorld is one state of tens of thousands of voters. It is the same
// world for every seed: the seed varies the traffic, so that seed-to-seed
// differences in the serving figures come from the load and not from a
// different trained model.
var serveWorld = WorldSpec{Seed: 1, States: []demo.State{demo.StateFL}, VotersPerState: 30000, TrainingLogRows: 30000}

// servePrivacy is insights privacy at k-anonymity plus DP noise.
func servePrivacy(seed int64) privacy.Config {
	cfg, _ := privacy.FromFlags(10, 1, seed) // constant, valid arguments
	return cfg
}

// serveStack is a single marketing server with the WAL store, configured as
// adplatform is by default (-fsync always, -snapshot-every 5000).
type serveStack struct {
	world  *World
	reg    *obs.Registry
	store  *store.Store
	dir    string
	server *apiServer
}

func buildServe(o Options, tracer *Tracer) (*serveStack, SetupTimes, error) {
	start := time.Now()
	w, err := buildWorld(serveWorld)
	if err != nil {
		return nil, SetupTimes{}, err
	}
	plat, newDur, err := w.newPlatform()
	if err != nil {
		return nil, SetupTimes{}, err
	}
	reg := obs.NewRegistry()
	plat.SetObserver(reg, nil)
	dir, err := os.MkdirTemp(o.ScratchDir, "wal-")
	if err != nil {
		return nil, SetupTimes{}, err
	}
	s := &serveStack{world: w, reg: reg, dir: dir}
	s.store, err = store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways, SnapshotEvery: 5000, Metrics: reg})
	if err != nil {
		return s, SetupTimes{}, err
	}
	if _, err := s.store.Recover(plat); err != nil {
		return s, SetupTimes{}, err
	}
	var persister marketing.Persister = s.store
	if tracer != nil {
		persister = tracedPersister{p: s.store, t: tracer}
	}
	srv, err := marketing.NewServer(plat,
		marketing.WithRegistry(reg),
		marketing.WithPersister(persister),
		marketing.WithPrivacy(servePrivacy(o.Seed)))
	if err != nil {
		return s, SetupTimes{}, err
	}
	if s.server, err = serveHTTP(wrapServer(tracer, "marketing", srv.Handler())); err != nil {
		return s, SetupTimes{}, err
	}
	return s, w.setupTimes(start, newDur), nil
}

func (s *serveStack) close() error {
	var err error
	if s.server != nil {
		err = s.server.close()
	}
	if s.store != nil {
		if _, cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func runServe(o Options) (*Report, error) {
	var tracer *Tracer
	if o.Trace {
		tracer = newTracer()
	}
	var stack *serveStack
	setups, err := repeatSetup(func() (func() error, SetupTimes, error) {
		s, st, err := buildServe(o, tracer)
		if err != nil {
			if s != nil {
				_ = s.close()
			}
			return nil, st, err
		}
		stack = s
		return s.close, st, nil
	})
	if err != nil {
		return nil, err
	}
	defer stack.close()

	shape := LoadShape{Rate: serveRate, Window: o.Window}
	sessions, err := makeSessions(stack.world, shape, o.Seed)
	if err != nil {
		return nil, err
	}
	var tr *ClientTransport
	if tracer != nil {
		tr = &ClientTransport{Tracer: tracer}
	}
	client, base, err := newAPIClient(stack.server.url, loadConns, tr)
	if err != nil {
		return nil, err
	}
	defer base.CloseIdleConnections()

	var before RegistryMark
	var rt runtimeMark
	res := runLoad(context.Background(), client, sessions, tracer, servePrivacy(o.Seed), func() {
		before, rt = markRegistry(stack.reg), markRuntime()
	})
	gc := rt.since()
	after := markRegistry(stack.reg)

	rep := newLoadReport(o, setups, shape, res, gc)
	if tracer != nil {
		spans := tracer.Spans()
		layers := rep.Layers
		addSpanLayers(layers, spans, "marketing")
		addDayLayers(layers, after.minus(before), 1, layers["marketing.deliver.server_ms"])
		addStoreLayers(layers, spans, after.minus(before))
		layers["privacy.privatized_responses"] = float64(res.Privatized)
		layers["privacy.suppressed_cells"] = float64(res.SuppressedCell)
		rep.SelfTimes = selfTimes(spans)
	}
	return rep, nil
}
