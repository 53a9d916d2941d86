package main

// execute_hot: open-loop Poisson arrivals into one node running the
// default kernel engine. Set-up compiles and executes every plan once,
// so every timed request is a memory hit on an already-specialized
// kernel: the kernel, the cache-hit front end and the pool do all the
// work, and no compile stage runs.

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"commfree/internal/loadgen"
	"commfree/internal/service"
)

const (
	// hotRate is the offered load. One node with two workers starts to
	// shed at about 3000-3500/s on a 2-vCPU host; at half that rate the
	// 90th percentile swung by more than its bound from run to run, so
	// the rate is about a third of it.
	hotRate = 1000.0
	// hotLimit is the latency limit goodput counts against.
	hotLimit = 10 * time.Millisecond
	// hotHeavyStride puts a BENCH_exec-sized plan at every 4th rank.
	hotHeavyStride = 4
	hotSetups      = 3
	// hotReplayMax caps how many timed arrivals the traced replay
	// re-executes through the layer entry points.
	hotReplayMax = 8000
)

type hotSetup struct {
	svc      *service.Service
	h        http.Handler
	plans    []plan
	execReqs []request
	spmd     []int     // generated SPMD bytes per plan
	sim      []float64 // simulated run time per plan, from set-up
	arrivals []arrival
	digest   string
}

// newHotSetup builds the node, compiles and executes every plan of the
// seeded plan set once (two clients, one per worker), and draws the
// arrival schedule.
func newHotSetup(seed int64, window time.Duration, traceRing int) (*hotSetup, error) {
	rnd := rand.New(rand.NewSource(seed))
	corpus := loadgen.DefaultCorpus()
	nests := append(corpus, benchExecNests()...)
	plans := rankedPlans(rnd, nests, func(i int) bool { return i >= len(corpus) }, hotHeavyStride)
	svc := service.New(service.Config{Workers: 2, QueueDepth: stallQueueDepth, SLOTarget: stallSLO, TraceRing: traceRing})
	s := &hotSetup{svc: svc, h: svc.Handler(), plans: plans}
	for i, p := range plans {
		s.execReqs = append(s.execReqs, newRequest("/v1/execute", p.Source, p.Strategy, p.Processors, i))
	}
	var err error
	if s.spmd, s.sim, err = warmPlans([]http.Handler{s.h}, s.execReqs); err != nil {
		svc.Close()
		return nil, err
	}
	sched := steadySchedule(seed, hotRate, window, plans, 1)
	for _, q := range sched {
		s.arrivals = append(s.arrivals, arrival{Due: q.At, Req: s.execReqs[q.Corpus]})
	}
	s.digest = loadgen.Digest(sched) + "-" + digest(s.arrivals)
	return s, nil
}

// warmPlans compiles and then executes every plan once with two
// concurrent clients, entering at handler i mod len(handlers), and
// returns each plan's generated SPMD size and simulated run time.
func warmPlans(handlers []http.Handler, execReqs []request) (spmd []int, sim []float64, err error) {
	spmd, sim = make([]int, len(execReqs)), make([]float64, len(execReqs))
	var mu sync.Mutex
	var t tally
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				h := handlers[i%len(handlers)]
				r := execReqs[i]
				code, body := serve(h, "/v1/compile", r.Body)
				cb, cok := code, body
				code, body = serve(h, r.Path, r.Body)
				mu.Lock()
				if resp, ok := checkCompile(&t, r, cb, cok); ok {
					spmd[i] = len(resp.Plan.SPMDGo)
				}
				if ex, ok := checkExecute(&t, r, code, body); ok {
					sim[i] = ex.SimElapsedS
				}
				mu.Unlock()
			}
		}()
	}
	for i := range execReqs {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.failed > 0 {
		return nil, nil, fmt.Errorf("warming the plan set: %v %v", t.errors, t.breaches)
	}
	return spmd, sim, nil
}

// checkSim is a breach when an execute of a plan simulates another run
// time than the plan's execute at set-up: the same plan must always be
// the same partition, also after eviction and rehydration.
func checkSim(t *tally, plan int, want float64, ex *service.ExecuteResponse) bool {
	if math.Abs(ex.SimElapsedS-want) > 1e-9*math.Abs(want) {
		t.breach("plan %d simulated %g s, %g s at set-up", plan, ex.SimElapsedS, want)
		return false
	}
	return true
}

func runExecuteHot(cfg runConfig) (*outcome, error) {
	window := time.Duration(cfg.seconds) * time.Second
	traceRing := 0
	if cfg.trace {
		traceRing = fleetTraceRing
	}
	s, setupS, err := setupTimes(hotSetups, func() (*hotSetup, error) { return newHotSetup(cfg.seed, window, traceRing) },
		func(s *hotSetup) { s.svc.Close() })
	if err != nil {
		return nil, err
	}
	defer s.svc.Close()
	o := &outcome{metrics: metrics{}, digest: s.digest}

	svcs := []*service.Service{s.svc}
	before := snapshotServices(svcs)
	start := time.Now()
	res, elapsed := openLoop([]http.Handler{s.h}, s.arrivals)
	after := snapshotServices(svcs)

	var t tally
	mt := newMachineTotals()
	var planSim float64
	var spmd int
	for i, r := range res {
		req := s.arrivals[i].Req
		t.attempted++
		if r.Refused {
			t.fail("generator outstanding bound full")
			continue
		}
		ex, ok := checkExecute(&t, req, r.Status, r.Body)
		if !ok || !checkSim(&t, req.Plan, s.sim[req.Plan], ex) {
			continue
		}
		t.ok(r.Latency, hotLimit)
		if !mt.seen[req.Plan] {
			planSim += ex.SimElapsedS
			spmd += s.spmd[req.Plan]
		}
		mt.add(req.Plan, ex)
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

	serviceMetrics(m, svcs, before, after, start)
	mt.report(m)
	m.set("loadgen.late_ms_p99", percentile(lateness(res), 99), "ms")
	noFleet(m)
	return o, traceOpenLoop(m, s.plans, s.arrivals, hotReplayMax)
}
