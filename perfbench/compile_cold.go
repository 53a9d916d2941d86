package main

// compile_cold: closed loop, one client, one service with no store.
// Every request is a distinct nest, so every request is a full cold
// compile; the selector and the enumerating stages do almost all the
// work and the kernel does none.

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"commfree/internal/machine"
	"commfree/internal/service"
)

const (
	// coldPrefix is the deterministic prefix of the stream (one deck
	// cycle): plan_sim_s and spmd_bytes are summed over it, and the
	// traced pass replays it.
	coldPrefix = 24
	// coldLimit is the compile latency limit goodput counts against.
	coldLimit = 2 * time.Second
	// coldSetups is how many times set-up runs; setup_s is the median.
	coldSetups = 3
	// coldMinCycles is the fewest deck cycles a run times, so that the
	// 90th percentile has at least ten compiles beyond it.
	coldMinCycles = 5
)

type coldSetup struct {
	svc    *service.Service
	h      http.Handler
	stream *coldStream
	prefix []request
}

// newColdSetup builds the service, generates the deterministic prefix
// and warms up with two compiles per family, at sizes and salts outside
// the stream.
func newColdSetup(seed int64) (*coldSetup, error) {
	svc := service.New(service.Config{Workers: 1})
	s := &coldSetup{svc: svc, h: svc.Handler(), stream: newColdStream(rand.New(rand.NewSource(seed)), coldLadder, 0)}
	for i := 0; i < coldPrefix; i++ {
		s.prefix = append(s.prefix, s.stream.Next())
	}
	var t tally
	for i, src := range []string{matmulSrc(5), matmulSrc(7), stencilSrc(12), stencilSrc(20), conv2dSrc(5), conv2dSrc(6)} {
		r := newRequest("/v1/compile", salted(src, -1-i), strategies[i%len(strategies)], 16, -1)
		code, body := serve(s.h, r.Path, r.Body)
		if _, ok := checkCompile(&t, r, code, body); !ok {
			svc.Close()
			return nil, fmt.Errorf("compile_cold warm-up: %v %v", t.errors, t.breaches)
		}
	}
	return s, nil
}

func runCompileCold(cfg runConfig) (*outcome, error) {
	s, setupS, err := setupTimes(coldSetups, func() (*coldSetup, error) { return newColdSetup(cfg.seed) },
		func(s *coldSetup) { s.svc.Close() })
	if err != nil {
		return nil, err
	}
	defer s.svc.Close()
	o := &outcome{metrics: metrics{}, digest: digest(closedLoop(s.prefix))}
	if cfg.trace {
		return o, traceCompileCold(s, o)
	}

	// Timed phase: the prefix first, then the stream, in whole deck
	// cycles until the window has closed (and at least coldMinCycles),
	// so every run measures the same mix.
	type done struct {
		req     request
		status  int
		body    []byte
		latency time.Duration
	}
	var runs []done
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i%len(coldLadder) != 0 || i < coldMinCycles*len(coldLadder) || time.Now().Before(deadline); i++ {
		r := s.stream.Next()
		if i < len(s.prefix) {
			r = s.prefix[i]
		}
		t0 := time.Now()
		code, body := serve(s.h, r.Path, r.Body)
		runs = append(runs, done{r, code, body, time.Since(t0)})
	}
	elapsed := time.Since(start)

	// Off the clock: check every plan and execute it once.
	var t tally
	for _, d := range runs {
		t.attempted++
		if _, ok := checkCompile(&t, d.req, d.status, d.body); !ok {
			continue
		}
		code, body := serve(s.h, "/v1/execute", d.req.Body)
		if _, ok := checkExecute(&t, d.req, code, body); !ok {
			continue
		}
		t.ok(d.latency, coldLimit)
	}
	planSim, spmd := prefixPlans(s, &t)

	o.tally = t
	endToEnd(o.metrics, &t, elapsed)
	o.metrics.set("setup_s", setupS, "s")
	o.metrics.set("plan_sim_s", planSim, "s")
	o.metrics.set("spmd_bytes", float64(spmd), "bytes")
	return o, nil
}

// prefixPlans compiles (a cache hit once the timed phase has compiled
// them) and executes the deterministic prefix, and returns the plan
// counts over it: simulated run time and generated SPMD bytes. Any
// incorrect plan is a breach recorded in t.
func prefixPlans(s *coldSetup, t *tally) (planSim float64, spmd int) {
	var check tally
	for _, r := range s.prefix {
		code, body := serve(s.h, r.Path, r.Body)
		resp, ok := checkCompile(&check, r, code, body)
		if !ok {
			continue
		}
		code, body = serve(s.h, "/v1/execute", r.Body)
		ex, ok := checkExecute(&check, r, code, body)
		if !ok {
			continue
		}
		planSim += ex.SimElapsedS
		spmd += len(resp.Plan.SPMDGo)
	}
	if check.failed > 0 {
		t.breach("deterministic prefix: %v %v", check.errors, check.breaches)
	}
	return planSim, spmd
}

// replayCold runs the deterministic prefix through the layer entry
// points: front end, compile, kernel preparation and one validated run
// per plan.
func replayCold(prefix []request, on bool) (*tracer, time.Duration, error) {
	rp := &replayer{t: newTracer(on), cost: machine.Transputer()}
	t0 := time.Now()
	for _, r := range prefix {
		canon, err := rp.frontEnd(r.Source)
		if err != nil {
			return nil, 0, err
		}
		p, err := rp.compile(canon, r.Strategy, r.Processors)
		if err != nil {
			return nil, 0, err
		}
		if err := rp.prepare(p, r.Processors); err != nil {
			return nil, 0, err
		}
		if err := rp.run(p); err != nil {
			return nil, 0, err
		}
	}
	return rp.t, time.Since(t0), nil
}

// traceCompileCold sends the deterministic prefix through the service
// (the measured compile wall time), then replays it through the layer
// entry points untimed and timed. The per-stage busy time is accounted
// against the service's wall time.
func traceCompileCold(s *coldSetup, o *outcome) error {
	svcs := []*service.Service{s.svc}
	before := snapshotServices(svcs)
	start := time.Now()
	var wall time.Duration
	var t tally
	for _, r := range s.prefix {
		t0 := time.Now()
		code, body := serve(s.h, r.Path, r.Body)
		wall += time.Since(t0)
		t.attempted++
		if _, ok := checkCompile(&t, r, code, body); ok {
			t.ok(0, coldLimit)
		}
	}
	after := snapshotServices(svcs)
	mt := newMachineTotals()
	for i, r := range s.prefix {
		code, body := serve(s.h, "/v1/execute", r.Body)
		if ex, ok := checkExecute(&t, r, code, body); ok {
			mt.add(i, ex)
		}
	}

	tr, overhead, err := traceOverhead(func(on bool) (*tracer, time.Duration, error) { return replayCold(s.prefix, on) })
	if err != nil {
		return err
	}

	o.tally = t
	m := o.metrics
	layerMetrics(m, tr)
	serviceMetrics(m, svcs, before, after, start)
	accounted := tr.compileBusy()
	m.set("compile.wall_ms", ms(wall), "ms")
	m.set("compile.unaccounted_ms", ms(wall-accounted), "ms")
	m.set("compile.accounted_frac", ratio(float64(accounted), float64(wall)), "ratio")
	m.set("obs.trace_overhead_frac", overhead, "ratio")
	mt.report(m)
	noFleet(m)
	m.set("loadgen.late_ms_p99", 0, "ms")
	return nil
}
