package main

// The traced pass: the workload's inputs replayed through each layer's
// public entry point, in the order the service calls them, with a timer
// around every call. The replay adds no span to the program; the only
// spans it reads are the ones partition.ComputeWithTrace and
// mars.ComputeWithTrace already emit around deps.Analyze,
// redundant.Eliminate and the partition step proper.

import (
	"context"
	"fmt"
	"time"

	"commfree/internal/assign"
	"commfree/internal/codegen"
	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/mars"
	"commfree/internal/normalize"
	"commfree/internal/obs"
	"commfree/internal/partition"
	"commfree/internal/selector"
	"commfree/internal/transform"
)

// compileLayers are the layers a cold compile passes through; their
// busy time is what the compile wall time is accounted against.
var compileLayers = []string{
	"normalize", "lang", "selector", "deps", "redundant", "partition", "mars",
	"verify", "transform", "assign", "codegen",
}

// tracer accumulates per-layer call counts, busy time and work counts.
// A tracer that is off runs every call untimed, so the same replay
// measures the cost of the timing itself.
type tracer struct {
	on     bool
	calls  map[string]int64
	busy   map[string]time.Duration
	counts map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, calls: map[string]int64{}, busy: map[string]time.Duration{}, counts: map[string]float64{}}
}

// time runs fn and charges its duration to the layer and, when class is
// non-empty, to the layer's size class as well.
func (t *tracer) time(layer, class string, fn func()) {
	if !t.on {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	t.charge(layer, class, time.Since(t0))
}

func (t *tracer) charge(layer, class string, d time.Duration) {
	t.calls[layer]++
	t.busy[layer] += d
	if class != "" {
		t.busy[layer+"."+class] += d
	}
}

func (t *tracer) add(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

// absorb adds another tracer's call counts and busy time for the named
// layers.
func (t *tracer) absorb(o *tracer, layers ...string) {
	for _, l := range layers {
		t.calls[l] += o.calls[l]
		t.busy[l] += o.busy[l]
	}
}

// compileBusy sums the busy time of the compile layers.
func (t *tracer) compileBusy() time.Duration {
	var d time.Duration
	for _, l := range compileLayers {
		d += t.busy[l]
	}
	return d
}

// replayPlan is the replay's counterpart of a cache entry.
type replayPlan struct {
	res  *partition.Result
	kern *exec.Kernel
	seq  map[string]float64
}

// replayer drives the layer entry points the way Service does.
type replayer struct {
	t    *tracer
	cost machine.CostModel
}

// frontEnd is the work the service does on every request, hit or miss:
// normalize the source and render its canonical form (the cache key).
func (r *replayer) frontEnd(src string) (string, error) {
	var nres *normalize.Result
	var err error
	r.t.time("normalize", "", func() { nres, err = normalize.Source(src) })
	if err != nil {
		return "", err
	}
	var canon string
	r.t.time("lang", "", func() { canon = lang.Canonical(nres.Nest) })
	return canon, nil
}

// compile mirrors Service.compile: re-parse the canonical source, price
// every alternative, partition under the chosen strategy, verify, then
// transform, assign and generate the SPMD program.
func (r *replayer) compile(canon, strategy string, procs int) (*replayPlan, error) {
	var cn *loop.Nest
	var err error
	r.t.time("lang", "", func() { cn, err = lang.Parse(canon) })
	if err != nil {
		return nil, err
	}
	iters := cn.NumIterations()
	class := sizeClass(iters)

	var best selector.Candidate
	var ranking []selector.Candidate
	r.t.time("selector", class, func() { best, ranking, err = selector.Best(cn, procs, r.cost) })
	if err != nil {
		return nil, err
	}
	r.t.add("selector.candidates", float64(len(ranking)))

	strat := partition.NonDuplicate
	var dup map[string]bool
	if strategy == "auto" {
		strat = best.Strategy
		if strat == partition.Selective {
			dup = map[string]bool{}
			for _, a := range best.Duplicated {
				dup[a] = true
			}
		}
	} else if st, ok := wireStrategies[strategy]; ok {
		strat = st
	} else {
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}

	// The partition entry points run deps.Analyze and
	// redundant.Eliminate themselves and already wrap each step in a
	// span; a traced replay passes a trace and reads those spans back.
	var trc *obs.Trace
	if r.t.on {
		trc = obs.New("replay")
	}
	var res *partition.Result
	switch strat {
	case partition.Selective:
		res, err = partition.ComputeSelectiveWithTrace(cn, dup, trc, 0)
	case partition.Mars:
		res, err = mars.ComputeWithTrace(cn, trc, 0)
	default:
		res, err = partition.ComputeWithTrace(cn, strat, trc, 0)
	}
	if err != nil {
		return nil, err
	}
	partLayer := "partition"
	if strat == partition.Mars {
		partLayer = "mars"
	}
	trc.EachDuration(func(name string, durNS int64) {
		switch name {
		case "deps", "redundant":
			r.t.charge(name, "", time.Duration(durNS))
		case "partition":
			r.t.charge(partLayer, class, time.Duration(durNS))
		}
	})
	r.t.add(partLayer+".blocks", float64(res.Iter.NumBlocks()))
	r.t.add("partition.iterations", float64(iters))
	r.t.add("deps.dependences", float64(len(res.Analysis.AllDependences())))
	if res.Redundant != nil {
		r.t.add("redundant.eliminated", float64(res.Redundant.NumRedundant()))
	}

	r.t.time("verify", class, func() { err = res.Verify() })
	if err != nil {
		return nil, err
	}
	var tr *transform.Transformed
	r.t.time("transform", "", func() { tr, err = transform.Transform(cn, res.Psi) })
	if err != nil {
		return nil, err
	}
	var asg *assign.Assignment
	r.t.time("assign", "", func() { asg = assign.Assign(tr, procs) })
	var spmd string
	r.t.time("codegen", "", func() {
		opts := codegen.Options{}
		if res.Strategy == partition.Mars {
			opts.PEIterations = codegen.PETable(res, tr, asg)
		}
		spmd, err = codegen.Generate(tr, asg, opts)
	})
	if err != nil {
		return nil, err
	}
	r.t.add("codegen.bytes", float64(len(spmd)))
	return &replayPlan{res: res}, nil
}

// prepare builds the plan's specialized kernel and its sequential
// reference, as the first execution of a cache entry does.
func (r *replayer) prepare(p *replayPlan, procs int) error {
	var err error
	var prog *exec.Program
	r.t.time("exec.specialize", "", func() {
		prog, err = exec.CompileNest(p.res.Analysis.Nest, p.res.Redundant)
		if err == nil {
			p.kern, err = prog.Specialize(p.res, procs)
		}
	})
	if err != nil {
		return err
	}
	r.t.time("exec.sequential", "", func() { p.seq = prog.Sequential() })
	return nil
}

// run executes the kernel and validates it against the sequential
// reference; any disagreement is an error.
func (r *replayer) run(p *replayPlan) error {
	var rep *exec.Report
	var err error
	budget := machine.NewBudget(context.Background(), 1<<22)
	r.t.time("exec.run", "", func() { rep, err = p.kern.Run(r.cost, exec.Options{Budget: budget}) })
	if err != nil {
		return err
	}
	var iters int64
	for _, n := range rep.IterationsPerNode {
		iters += n
	}
	r.t.add("exec.iterations", float64(iters))
	if rep.Machine.InterNodeMessages() != 0 {
		return fmt.Errorf("replay: %d inter-node messages", rep.Machine.InterNodeMessages())
	}
	for k, want := range p.seq {
		if rep.Final[k] != want {
			return fmt.Errorf("replay: element %s = %v, sequential %v", k, rep.Final[k], want)
		}
	}
	return nil
}

// layerMetrics renders the tracer as the per-layer metric set. Every
// metric is always present (zero where the workload never reaches the
// layer), so all workloads print the same names.
func layerMetrics(m metrics, t *tracer) {
	busy := func(name string) float64 { return ms(t.busy[name]) }
	m.set("normalize.calls", float64(t.calls["normalize"]), "count")
	m.set("normalize.busy_ms", busy("normalize"), "ms")
	m.set("lang.canonical_busy_ms", busy("lang"), "ms")
	m.set("selector.calls", float64(t.calls["selector"]), "count")
	m.set("selector.busy_ms", busy("selector"), "ms")
	m.set("selector.candidates", t.counts["selector.candidates"], "count")
	m.set("selector.useful_ratio", ratio(float64(t.calls["selector"]), t.counts["selector.candidates"]), "ratio")
	m.set("deps.busy_ms", busy("deps"), "ms")
	m.set("deps.dependences", t.counts["deps.dependences"], "count")
	m.set("redundant.busy_ms", busy("redundant"), "ms")
	m.set("redundant.eliminated", t.counts["redundant.eliminated"], "count")
	m.set("partition.busy_ms", busy("partition"), "ms")
	m.set("partition.blocks", t.counts["partition.blocks"], "count")
	m.set("partition.iterations", t.counts["partition.iterations"], "count")
	m.set("mars.busy_ms", busy("mars"), "ms")
	m.set("mars.blocks", t.counts["mars.blocks"], "count")
	m.set("verify.busy_ms", busy("verify"), "ms")
	for _, layer := range []string{"selector", "partition", "mars", "verify"} {
		for _, c := range []string{"S", "M", "L"} {
			m.set(layer+".busy_ms."+c, busy(layer+"."+c), "ms")
		}
	}
	m.set("transform.busy_ms", busy("transform"), "ms")
	m.set("assign.busy_ms", busy("assign"), "ms")
	m.set("codegen.busy_ms", busy("codegen"), "ms")
	m.set("codegen.bytes", t.counts["codegen.bytes"], "bytes")
	m.set("exec.specialize_calls", float64(t.calls["exec.specialize"]), "count")
	m.set("exec.specialize_busy_ms", busy("exec.specialize"), "ms")
	m.set("exec.run_calls", float64(t.calls["exec.run"]), "count")
	m.set("exec.run_busy_ms", busy("exec.run"), "ms")
	m.set("exec.ns_per_iteration", ratio(float64(t.busy["exec.run"]), t.counts["exec.iterations"]), "ns")
	m.set("exec.sequential_busy_ms", busy("exec.sequential"), "ms")
}

// traceOverheadPairs is how many untimed and timed replays alternate.
// The overhead is the median of the pairs' ratios, so a host stall in
// one pass moves one ratio, not the result.
const traceOverheadPairs = 10

// traceOverhead runs pairs of untimed and timed replays of the same
// inputs, alternating which side of a pair runs first so that warm-up
// favours neither, and returns the last timed tracer and the tracing
// overhead, the median over the pairs of (timed − untimed) ÷ untimed.
func traceOverhead(replay func(on bool) (*tracer, time.Duration, error)) (*tracer, float64, error) {
	var tr *tracer
	var ratios []float64
	for i := 0; i < traceOverheadPairs; i++ {
		var took [2]time.Duration // untimed, timed
		for _, on := range [2]bool{i%2 == 1, i%2 == 0} {
			t, d, err := replay(on)
			if err != nil {
				return nil, 0, err
			}
			if on {
				tr, took[1] = t, d
			} else {
				took[0] = d
			}
		}
		ratios = append(ratios, ratio(float64(took[1]-took[0]), float64(took[0])))
	}
	return tr, median(ratios), nil
}

// traceOpenLoop is the traced pass of an open-loop workload. It replays
// the set-up (compile and prepare every plan of the set) and then the
// timed arrivals, in order and closed loop: the front end on every
// request, a full compile for each first-seen nest, the prepared kernel
// for each execute of a plan. Compile stages run only in the replayed
// set-up and for first-seen nests, so on execute_hot every compile-stage
// count of the timed phase is zero. The specialize and sequential
// reference counts include set-up, where that work happens. Eviction
// and rehydration are not replayed; they show in the store, service and
// rehydrate-span metrics of the run itself.
func traceOpenLoop(m metrics, plans []plan, arr []arrival, max int) error {
	setupT := newTracer(true)
	rp := &replayer{t: setupT, cost: machine.Transputer()}
	prepared := make([]*replayPlan, len(plans))
	for i, p := range plans {
		canon, err := rp.frontEnd(p.Source)
		if err != nil {
			return err
		}
		if prepared[i], err = rp.compile(canon, p.Strategy, p.Processors); err != nil {
			return err
		}
		if err := rp.prepare(prepared[i], p.Processors); err != nil {
			return err
		}
	}
	if len(arr) > max {
		arr = arr[:max]
	}
	replay := func(on bool) (*tracer, time.Duration, error) {
		rp.t = newTracer(on)
		t0 := time.Now()
		for _, a := range arr {
			canon, err := rp.frontEnd(a.Req.Source)
			if err != nil {
				return nil, 0, err
			}
			switch {
			case a.Req.Plan >= len(prepared):
				_, err = rp.compile(canon, a.Req.Strategy, a.Req.Processors)
			case a.Req.Path == "/v1/execute":
				err = rp.run(prepared[a.Req.Plan])
			}
			if err != nil {
				return nil, 0, err
			}
		}
		return rp.t, time.Since(t0), nil
	}
	timedT, overhead, err := traceOverhead(replay)
	if err != nil {
		return err
	}
	timedT.absorb(setupT, "exec.specialize", "exec.sequential")
	layerMetrics(m, timedT)
	m.set("obs.trace_overhead_frac", overhead, "ratio")
	noCompileAccounting(m)
	return nil
}

// noCompileAccounting reports the compile accounting of a workload whose
// traced pass does not measure a service compile wall time.
func noCompileAccounting(m metrics) {
	m.set("compile.wall_ms", 0, "ms")
	m.set("compile.unaccounted_ms", 0, "ms")
	m.set("compile.accounted_frac", 0, "ratio")
}
