package main

// Seeded inputs: every nest, strategy, processor count, popularity
// rank and arrival time a workload uses is a pure function of --seed.
// The program under test only ever sees the generated request bodies.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"commfree/internal/lang"
	"commfree/internal/loadgen"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
	"commfree/internal/service"
)

// strategies are the five pinned wire strategies plus "auto".
var strategies = []string{
	"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars", "auto",
}

// processorChoices are the machine sizes requests draw from.
var processorChoices = []int{4, 8, 16}

// wireStrategies maps the pinned wire strategy names to strategies.
var wireStrategies = map[string]partition.Strategy{
	"non-duplicate":         partition.NonDuplicate,
	"duplicate":             partition.Duplicate,
	"minimal-non-duplicate": partition.MinimalNonDuplicate,
	"minimal-duplicate":     partition.MinimalDuplicate,
	"mars":                  partition.Mars,
}

// pinnedLabel is the plan strategy label a pinned compile must return
// ("" for auto, whose label must instead be its ranking's first entry).
func pinnedLabel(wire string) string {
	if s, ok := wireStrategies[wire]; ok {
		return s.String()
	}
	return ""
}

func matmulSrc(n int) string {
	return fmt.Sprintf("for i = 1 to %d\n  for j = 1 to %d\n    for k = 1 to %d\n"+
		"      C[i,j] = C[i,j] + A[i,k] * B[k,j]\n    end\n  end\nend\n", n, n, n)
}

func stencilSrc(n int) string {
	return fmt.Sprintf("for i = 1 to %d\n  for j = 1 to %d\n"+
		"    B[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1]\n  end\nend\n", n, n)
}

func conv2dSrc(n int) string {
	return fmt.Sprintf("for i = 1 to %d\n  for j = 1 to %d\n    for ki = 1 to 3\n      for kj = 1 to 3\n"+
		"        Y[i,j] = Y[i,j] + X[i+ki-1, j+kj-1] * W[ki,kj]\n      end\n    end\n  end\nend\n", n, n)
}

// benchExecNests are the three nests the executor trajectory
// (BENCH_exec.json) measures: matmul 12³, stencil 24², conv2d 12². The
// stencil, whose kernels run longest, comes last, so it takes the least
// popular heavy ranks in execute_hot and the 90th percentile falls
// among the matmul and conv2d kernels instead of at the knee of the
// stencil's tail.
func benchExecNests() []string {
	return []string{matmulSrc(12), conv2dSrc(12), stencilSrc(24)}
}

// loopgenNest renders a loopgen nest (biased toward MARS-relevant
// usage structure when usage is set) as source. The shapes are small
// enough to compile in milliseconds and large enough to exercise every
// stage. Two statements at most: with three or four statements on one
// array a few dozen iterations can take half a second to compile, and
// such outliers made the latency percentiles swing from seed to seed.
func loopgenNest(rnd *rand.Rand, usage bool) string {
	cfg := loopgen.DefaultConfig()
	cfg.MaxExtent = 6
	cfg.MaxStmts = 2
	if usage {
		return lang.Canonical(loopgen.GenerateUsage(rnd, cfg))
	}
	return lang.Canonical(loopgen.Generate(rnd, cfg))
}

// salted returns the canonical rendering of src with "+ k" appended to
// its first statement's right-hand side. The result is a different
// program (a different cache key and canonical nest) whose compile
// cost is that of src, so a stream of salted copies is a stream of
// distinct cold compiles of known size.
func salted(src string, k int) string {
	nest, err := lang.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated source does not parse: %v\n%s", err, src))
	}
	lines := strings.Split(lang.Canonical(nest), "\n")
	for i, l := range lines {
		t := strings.TrimSpace(l)
		if t == "" || strings.HasPrefix(t, "for ") || t == "end" {
			continue
		}
		lines[i] = fmt.Sprintf("%s + %d", l, k)
		break
	}
	return strings.Join(lines, "\n")
}

// Size classes split the enumerating stages by iteration count.
const (
	classMBoundary = 512  // S: fewer than 512 iterations
	classLBoundary = 2048 // M: 512..2047; L: 2048 and more
)

func sizeClass(iters int64) string {
	switch {
	case iters < classMBoundary:
		return "S"
	case iters < classLBoundary:
		return "M"
	}
	return "L"
}

// request is one generated service request.
type request struct {
	Path       string // "/v1/compile" or "/v1/execute"
	Source     string
	Strategy   string
	Processors int
	Plan       int // index into the workload's plan list (-1: first-seen nest)
	Body       []byte
}

func newRequest(path, src, strategy string, procs, plan int) request {
	body, err := json.Marshal(service.CompileRequest{Source: src, Strategy: strategy, Processors: procs})
	if err != nil {
		panic(err)
	}
	return request{Path: path, Source: src, Strategy: strategy, Processors: procs, Plan: plan, Body: body}
}

// digest fingerprints what a workload sends: the entry node, body and
// plan of every request, in order. loadgen.Digest fingerprints the
// open-loop arrival schedule (times, ranks, kinds); this covers the
// request contents it indexes. One seed must reproduce both exactly,
// and another seed must not.
func digest(arr []arrival) string {
	h := fnv.New64a()
	for _, a := range arr {
		fmt.Fprintf(h, "%d|%s|%s|%d|", a.Entry, a.Req.Path, a.Req.Body, a.Req.Plan)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// steadySchedule is the open-loop arrival schedule: one Poisson phase
// at rate over the window, with popularity Zipfian over the ranked plan
// set (rank 0 hottest) and execFrac of the requests executes. The skew
// is loadgen's default; execFrac 0 takes loadgen's default execute
// share too.
func steadySchedule(seed int64, rate float64, window time.Duration, plans []plan, execFrac float64) []loadgen.Request {
	corpus := make([]string, len(plans))
	for i, p := range plans {
		corpus[i] = p.Source
	}
	return loadgen.Schedule(loadgen.Config{
		Seed:        seed,
		Phases:      []loadgen.Phase{{Name: "steady", Duration: window, Rate: rate}},
		Corpus:      corpus,
		ExecuteFrac: execFrac,
	})
}

// closedLoop wraps requests that are sent one after another.
func closedLoop(reqs []request) []arrival {
	out := make([]arrival, len(reqs))
	for i, r := range reqs {
		out[i] = arrival{Req: r}
	}
	return out
}

// coldLadder is one cycle of the compile_cold mix: a fixed size ladder
// per family plus seeded generated nests and corpus picks. The ladder
// is densest around its median compile cost, so the median latency
// falls inside a cluster of similar compiles rather than in the gap
// between the small nests and the large ones. Strategy and
// processor count rotate through the deck by position and cycle; the
// seed draws the order and the generated nests, and corpus entries
// take the corpus nests in turn. So every cycle, for every seed, holds
// the same compile work apart from the small generated nests, and the
// latency distribution of a run stays close to that of any other seed.
type deckEntry struct {
	family string
	size   int
}

var coldLadder = []deckEntry{
	{"matmul", 4}, {"matmul", 6}, {"matmul", 8}, {"matmul", 9}, {"matmul", 10}, {"matmul", 12}, {"matmul", 14}, {"matmul", 16},
	{"stencil", 8}, {"stencil", 16}, {"stencil", 24}, {"stencil", 28}, {"stencil", 32}, {"stencil", 48}, {"stencil", 64},
	{"conv2d", 4}, {"conv2d", 8}, {"conv2d", 10}, {"conv2d", 12}, {"conv2d", 16},
	{"loopgen", 0}, {"usage", 0}, {"corpus", 0}, {"corpus", 0},
}

// firstSeenLadder is the deck of fleet_churn's first-seen nests: small
// members of the families plus corpus nests in turn, so each is a
// compile of similar cost and every seed compiles the same mix. Generated nests stay out: a few of them take hundreds
// of milliseconds to compile at a few dozen iterations, and one such
// compile on a one-worker node stalls every request queued behind it.
var firstSeenLadder = []deckEntry{
	{"matmul", 4}, {"stencil", 8}, {"conv2d", 2},
	{"corpus", 0}, {"corpus", 0}, {"corpus", 0},
}

// coldStream generates a stream of first-seen compile requests: cycles
// of the shuffled deck, every request a distinct (salted) nest. In
// compile_cold the first cycle is the deterministic prefix the plan
// counts are taken over.
type coldStream struct {
	rnd    *rand.Rand
	ladder []deckEntry
	corpus []string
	next   []request
	n      int
	cycle  int
	plan0  int // plan index of the stream's first request
	// corpusAt is the next corpus nest: corpus entries take the
	// corpus in turn, so the compile work of a run does not depend on
	// which nests the seed would have drawn.
	corpusAt int
}

func newColdStream(rnd *rand.Rand, ladder []deckEntry, plan0 int) *coldStream {
	return &coldStream{rnd: rnd, ladder: ladder, corpus: loadgen.DefaultCorpus(), plan0: plan0}
}

func (c *coldStream) source(e deckEntry) string {
	switch e.family {
	case "matmul":
		return matmulSrc(e.size)
	case "stencil":
		return stencilSrc(e.size)
	case "conv2d":
		return conv2dSrc(e.size)
	case "loopgen":
		return loopgenNest(c.rnd, false)
	case "usage":
		return loopgenNest(c.rnd, true)
	}
	src := c.corpus[c.corpusAt%len(c.corpus)]
	c.corpusAt++
	return src
}

// Next returns the next request of the stream.
func (c *coldStream) Next() request {
	if len(c.next) == 0 {
		for _, i := range c.rnd.Perm(len(c.ladder)) {
			src := salted(c.source(c.ladder[i]), c.n+len(c.next)+1)
			strat := strategies[(i+c.cycle)%len(strategies)]
			procs := processorChoices[(i+i/len(strategies)+c.cycle)%len(processorChoices)]
			c.next = append(c.next, newRequest("/v1/compile", src, strat, procs, c.plan0+c.n+len(c.next)))
		}
		c.cycle++
	}
	r := c.next[0]
	c.next = c.next[1:]
	c.n++
	return r
}

// plan is one member of an open-loop workload's plan set.
type plan struct {
	Source     string
	Strategy   string
	Processors int
}

// rankedPlans crosses nests with every strategy and orders the set for
// Zipfian popularity: heavy plans take every stride-th rank, light
// plans the others, each group in nest and strategy order. Processor
// counts rotate through the choices in a fixed order, except in the
// less popular half of the ranking, where the seed draws them. So every
// seed sends the same shares of traffic to the same plans where the
// traffic is, and each seed still executes a plan set of its own.
func rankedPlans(rnd *rand.Rand, nests []string, heavy func(i int) bool, stride int) []plan {
	var light, heavyPlans []plan
	for i, src := range nests {
		for j, s := range strategies {
			p := plan{Source: src, Strategy: s, Processors: processorChoices[(i+j)%len(processorChoices)]}
			if heavy(i) {
				heavyPlans = append(heavyPlans, p)
			} else {
				light = append(light, p)
			}
		}
	}
	out := make([]plan, 0, len(light)+len(heavyPlans))
	for r := 0; len(light)+len(heavyPlans) > 0; r++ {
		if len(heavyPlans) > 0 && (r%stride == stride-1 || len(light) == 0) {
			out, heavyPlans = append(out, heavyPlans[0]), heavyPlans[1:]
		} else {
			out, light = append(out, light[0]), light[1:]
		}
	}
	for r := len(out) / 2; r < len(out); r++ {
		out[r].Processors = processorChoices[rnd.Intn(len(processorChoices))]
	}
	return out
}
