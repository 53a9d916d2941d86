package main

// fleet_churn: open-loop Poisson arrivals mixing compile and execute
// requests into a two-node in-process fleet. Each node has one worker,
// its own plan store and a cache smaller than the plan set; requests
// enter at either node, so about half take a forwarding hop. A fixed
// share of requests are first-seen small nests (compiles and store
// writes); the rest are memory hits or, after eviction, store reads and
// rehydrates.

import (
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"commfree/internal/cluster"
	"commfree/internal/loadgen"
	"commfree/internal/service"
	"commfree/internal/store"
)

const (
	// fleetRate is the offered load, about half of the 600-700/s the two
	// one-worker nodes sustain without shedding on a 2-vCPU host.
	fleetRate = 300.0
	// fleetLimit is the latency limit goodput counts against.
	fleetLimit = 100 * time.Millisecond
	// fleetCacheEntries bounds each node's plan cache, well under the
	// half of the plan set each node is home to, so a large share of
	// requests miss and rehydrate from the store.
	fleetCacheEntries = 24
	// Every fleetFirstSeenEvery-th request compiles a nest never seen
	// before: a fixed share, evenly spread, so first-seen compiles do
	// not cluster by chance. At 2% the 99th percentile falls among
	// them and the 90th among rehydrates, not at the edge of either
	// group. Of the others, loadgen's default share execute and the
	// rest compile.
	fleetFirstSeenEvery = 50
	fleetHeavyStride    = 3
	fleetSetups         = 3
	// fleetTraceRing is how many traces each node keeps in a traced run
	// (the queue_wait and rehydrate spans are read from them).
	fleetTraceRing = 4096
	fleetReplayMax = 4000
)

// fleetNests are the plan-set nests beyond the corpus: the smallest
// members of each family. Larger ones made every rehydrate and
// first-seen compile a long stall on a one-worker node, and the tail
// percentiles then swung from run to run.
func fleetNests() []string {
	return []string{matmulSrc(4), matmulSrc(5), stencilSrc(8), stencilSrc(10), conv2dSrc(2), conv2dSrc(3)}
}

type fleetSetup struct {
	dir       string
	stores    []store.Store
	timed     []*timedStore
	transport *timedTransport
	svcs      []*service.Service
	handlers  []http.Handler
	plans     []plan
	execReqs  []request
	spmd      []int     // generated SPMD bytes per plan
	sim       []float64 // simulated run time per plan, from set-up
	arrivals  []arrival
	digest    string
}

func (f *fleetSetup) close() {
	for _, svc := range f.svcs {
		svc.Close()
	}
	for _, st := range f.stores {
		_ = st.Close() // the store directory is removed next
	}
	_ = os.RemoveAll(f.dir) // best effort: it lives under the scratch directory
}

// newFleetSetup builds the fleet (stores, services, nodes, transport),
// compiles and executes every plan once, and draws the schedule. With
// traced set, the store and the transport are wrapped in timers.
func newFleetSetup(cfg runConfig, window time.Duration) (*fleetSetup, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleetSetup{dir: dir}
	mt := cluster.NewMapTransport()
	var rt http.RoundTripper = mt
	if cfg.trace {
		f.transport = &timedTransport{inner: mt}
		rt = f.transport
	}
	names := []string{"n0", "n1"}
	var peers []cluster.Peer
	for _, n := range names {
		peers = append(peers, cluster.Peer{Name: n, URL: "http://" + n})
	}
	for _, n := range names {
		fs, err := store.Open(filepath.Join(dir, n), store.Options{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.stores = append(f.stores, fs)
		var st store.Store = fs
		scfg := service.Config{Workers: 1, CacheEntries: fleetCacheEntries, QueueDepth: stallQueueDepth, SLOTarget: stallSLO}
		if cfg.trace {
			ts := &timedStore{Store: fs}
			f.timed = append(f.timed, ts)
			st = ts
			scfg.TraceRing = fleetTraceRing
		}
		scfg.Store = st
		svc, err := service.NewWithStore(scfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		node, err := cluster.NewNode(svc, cluster.Config{Self: n, Peers: peers, Replicas: 1, Transport: rt})
		if err != nil {
			f.close()
			return nil, err
		}
		mt.Register(n, node.Handler())
		f.handlers = append(f.handlers, node.Handler())
	}

	rnd := rand.New(rand.NewSource(cfg.seed))
	corpus := loadgen.DefaultCorpus()
	nests := append(corpus, fleetNests()...)
	f.plans = rankedPlans(rnd, nests, func(i int) bool { return i >= len(corpus) }, fleetHeavyStride)
	var compileReqs []request
	for i, p := range f.plans {
		f.execReqs = append(f.execReqs, newRequest("/v1/execute", p.Source, p.Strategy, p.Processors, i))
		compileReqs = append(compileReqs, newRequest("/v1/compile", p.Source, p.Strategy, p.Processors, i))
	}
	if f.spmd, f.sim, err = warmPlans(f.handlers, f.execReqs); err != nil {
		f.close()
		return nil, err
	}

	fresh := newColdStream(rnd, firstSeenLadder, len(f.plans))
	sched := steadySchedule(cfg.seed, fleetRate, window, f.plans, 0)
	for i, q := range sched {
		a := arrival{Due: q.At, Entry: rnd.Intn(len(names))}
		switch {
		case i%fleetFirstSeenEvery == fleetFirstSeenEvery-1:
			a.Req = fresh.Next()
		case q.Kind == "execute":
			a.Req = f.execReqs[q.Corpus]
		default:
			a.Req = compileReqs[q.Corpus]
		}
		f.arrivals = append(f.arrivals, a)
	}
	f.digest = loadgen.Digest(sched) + "-" + digest(f.arrivals)
	return f, nil
}

func runFleetChurn(cfg runConfig) (*outcome, error) {
	window := time.Duration(cfg.seconds) * time.Second
	f, setupS, err := setupTimes(fleetSetups, func() (*fleetSetup, error) { return newFleetSetup(cfg, window) },
		(*fleetSetup).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	o := &outcome{metrics: metrics{}, digest: f.digest}

	storesBefore := countStores(f.timed)
	var fwdBefore [2]int64
	if f.transport != nil {
		fwdBefore = f.transport.counts()
	}
	before := snapshotServices(f.svcs)
	start := time.Now()
	res, elapsed := openLoop(f.handlers, f.arrivals)
	after := snapshotServices(f.svcs)

	var t tally
	mt := newMachineTotals()
	var planSim float64
	spmdSeen := map[int]bool{}
	var spmd int
	for i, r := range res {
		req := f.arrivals[i].Req
		t.attempted++
		if r.Refused {
			t.fail("generator outstanding bound full")
			continue
		}
		if req.Path == "/v1/compile" {
			resp, ok := checkCompile(&t, req, r.Status, r.Body)
			if !ok {
				continue
			}
			t.ok(r.Latency, fleetLimit)
			if !spmdSeen[req.Plan] {
				spmdSeen[req.Plan] = true
				spmd += len(resp.Plan.SPMDGo)
			}
			continue
		}
		ex, ok := checkExecute(&t, req, r.Status, r.Body)
		if !ok || !checkSim(&t, req.Plan, f.sim[req.Plan], ex) {
			continue
		}
		t.ok(r.Latency, fleetLimit)
		if !mt.seen[req.Plan] {
			planSim += ex.SimElapsedS
		}
		mt.add(req.Plan, ex)
		if !spmdSeen[req.Plan] {
			spmdSeen[req.Plan] = true
			spmd += f.spmd[req.Plan]
		}
	}
	o.tally = t
	m := o.metrics
	if !cfg.trace {
		endToEnd(m, &t, elapsed)
		m.set("setup_s", setupS, "s")
		m.set("plan_sim_s", planSim, "s")
		m.set("spmd_bytes", float64(spmd), "bytes")
		return o, nil
	}

	serviceMetrics(m, f.svcs, before, after, start)
	mt.report(m)
	m.set("loadgen.late_ms_p99", percentile(lateness(res), 99), "ms")
	storeMetrics(m, storesBefore, countStores(f.timed))
	clusterMetrics(m, fwdBefore, f.transport.counts(), len(f.arrivals))
	return o, traceOpenLoop(m, f.plans, f.arrivals, fleetReplayMax)
}
