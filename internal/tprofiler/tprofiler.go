// Package tprofiler reproduces TProfiler (§3 of the paper): a profiler
// that, given transaction demarcation and per-function latency spans,
// attributes overall transaction latency *variance* to individual
// functions in the call graph.
//
// The analysis follows the paper exactly:
//
//   - Per transaction, the time spent in each call-tree node is summed
//     across invocations (a node is a call path, aggregated per function
//     name across call sites when scoring).
//   - Across transactions, each node gets a variance, and sibling pairs
//     get covariances, so that a parent's variance decomposes as
//     Var(ΣXi) = Σ Var(Xi) + 2 Σ Cov(Xi, Xj)            (eq. 1)
//     where the children include the parent's own "body" time.
//   - Factors (a node's variance, or a sibling pair's covariance) are
//     ranked by score(φ) = specificity(φ) · Σ V(φi), with
//     specificity(φ) = (height(callgraph) − height(φ))²   (eqs. 2, 3)
//     so that deep, specific functions outrank their enclosing parents
//     even though a parent's variance always exceeds its children's.
//
// Iterative refinement (instrumenting only a subset of functions per run
// to bound overhead) is modelled by the Instrument set: spans for
// functions outside the set cost nothing and collapse into their
// parent's body time, exactly like uninstrumented source.
package tprofiler

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vats/internal/stats"
)

// Profiler collects variance trees over many transactions. All methods
// are safe for concurrent use; a nil *Profiler is a valid no-op sink so
// instrumented code needs no conditionals.
type Profiler struct {
	mu      sync.Mutex
	enabled map[string]bool // nil = instrument everything

	// Online state: collection is deliberately cheap (append a totals
	// map per transaction); the variance/covariance analysis is offline,
	// as in the paper's "online trace collection, offline variance
	// analysis" flow, so instrumentation overhead stays minimal.
	traces []map[string]float64
	depths map[string]int
	txns   stats.Welford // per-transaction total latency (ms)
	count  int64

	// Cached offline analysis, invalidated when traces grow.
	analyzed int
	nodes    map[string]*nodeAcc
	covs     map[[2]string]*stats.Cov

	// ProbeCost adds busy-wait per probe to emulate heavyweight
	// instrumentation (the DTrace baseline in fig. 5 left). Zero for
	// TProfiler itself.
	ProbeCost time.Duration

	// now is the clock spans are timed with (time.Now; tests substitute
	// a manual clock to feed exact durations).
	now func() time.Time
}

type nodeAcc struct {
	path   string
	depth  int
	height int // max depth of subtree beneath (0 = leaf), updated as seen
	acc    stats.Welford
}

// New returns an empty profiler instrumenting every span.
func New() *Profiler {
	return &Profiler{
		depths: make(map[string]int),
		now:    time.Now,
	}
}

// Instrument restricts collection to the named functions (and the
// transaction root). Other spans become part of their parent's body.
func (p *Profiler) Instrument(names ...string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enabled = make(map[string]bool, len(names))
	for _, n := range names {
		p.enabled[n] = true
	}
}

// InstrumentAll removes any restriction.
func (p *Profiler) InstrumentAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.enabled = nil
	p.mu.Unlock()
}

func (p *Profiler) instrumented(name string) bool {
	if p.enabled == nil {
		return true
	}
	return p.enabled[name]
}

// TxnCount returns the number of completed transactions observed.
func (p *Profiler) TxnCount() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// --- Per-transaction context ----------------------------------------

// TxnCtx demarcates one transaction (the paper's manual annotation). It
// is single-goroutine; VoltDB-style task-concurrent engines create one
// TxnCtx per transaction id and feed it execution intervals.
type TxnCtx struct {
	p       *Profiler
	start   time.Time
	stack   []frame
	totals  map[string]float64 // per-path total ms within this txn
	depths  map[string]int
	heights map[string]int
	snap    map[string]bool // enabled-set snapshot for this txn
}

type frame struct {
	name    string
	path    string
	start   time.Time
	childMs float64
	on      bool // instrumented?
}

// StartTxn opens a transaction context. Returns nil (a valid no-op) on a
// nil profiler.
func (p *Profiler) StartTxn() *TxnCtx {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	var snap map[string]bool
	if p.enabled != nil {
		snap = p.enabled
	}
	p.mu.Unlock()
	return &TxnCtx{
		p:       p,
		start:   p.now(),
		totals:  make(map[string]float64, 16),
		depths:  make(map[string]int, 16),
		heights: make(map[string]int, 16),
		snap:    snap,
	}
}

func (tc *TxnCtx) on(name string) bool {
	if tc.snap == nil {
		return true
	}
	return tc.snap[name]
}

// Enter opens a span for function name nested under the current span.
// The returned token must be passed to Exit.
func (tc *TxnCtx) Enter(name string) int {
	if tc == nil {
		return 0
	}
	on := tc.on(name)
	path := name
	if n := len(tc.stack); n > 0 {
		// Nest under the nearest *instrumented* ancestor so disabled
		// middle frames collapse, like uninstrumented source.
		for i := n - 1; i >= 0; i-- {
			if tc.stack[i].on {
				path = tc.stack[i].path + "/" + name
				break
			}
		}
	}
	if tc.p.ProbeCost > 0 && on {
		spin(tc.p.ProbeCost)
	}
	tc.stack = append(tc.stack, frame{name: name, path: path, start: tc.p.now(), on: on})
	return len(tc.stack)
}

// Exit closes the span opened by the matching Enter.
func (tc *TxnCtx) Exit(token int) {
	if tc == nil {
		return
	}
	if token != len(tc.stack) || token == 0 {
		panic(fmt.Sprintf("tprofiler: unbalanced Exit (token %d, depth %d)", token, len(tc.stack)))
	}
	f := tc.stack[len(tc.stack)-1]
	tc.stack = tc.stack[:len(tc.stack)-1]
	if !f.on {
		return
	}
	if tc.p.ProbeCost > 0 {
		spin(tc.p.ProbeCost)
	}
	dur := float64(tc.p.now().Sub(f.start)) / float64(time.Millisecond)
	tc.addSpan(f.path, dur, f.childMs)
}

// Record attributes an explicit duration to a leaf function under the
// current span, for costs measured elsewhere (e.g. the buffer pool's
// internal mutex wait).
func (tc *TxnCtx) Record(name string, d time.Duration) {
	if tc == nil || d < 0 {
		return
	}
	if !tc.on(name) {
		return
	}
	path := name
	for i := len(tc.stack) - 1; i >= 0; i-- {
		if tc.stack[i].on {
			path = tc.stack[i].path + "/" + name
			break
		}
	}
	tc.addSpan(path, float64(d)/float64(time.Millisecond), 0)
}

func (tc *TxnCtx) addSpan(path string, durMs, childMs float64) {
	tc.totals[path] += durMs
	depth := strings.Count(path, "/") + 1
	tc.depths[path] = depth
	// Propagate child time into the nearest instrumented ancestor's
	// child accumulator for body-time computation.
	for i := len(tc.stack) - 1; i >= 0; i-- {
		if tc.stack[i].on {
			tc.stack[i].childMs += durMs
			break
		}
	}
	// Track subtree heights.
	if childMs > 0 {
		body := durMs - childMs
		if body < 0 {
			body = 0
		}
		tc.totals[path+"/[body]"] += body
		tc.depths[path+"/[body]"] = depth + 1
	}
}

// End closes the transaction and folds its per-node totals into the
// profiler. Unbalanced spans panic.
func (tc *TxnCtx) End() {
	if tc == nil {
		return
	}
	if len(tc.stack) != 0 {
		panic("tprofiler: End with open spans")
	}
	total := float64(tc.p.now().Sub(tc.start)) / float64(time.Millisecond)
	tc.totals["txn"] = total
	tc.depths["txn"] = 0

	p := tc.p
	p.mu.Lock()
	p.count++
	p.txns.Add(total)
	p.traces = append(p.traces, tc.totals)
	for path, d := range tc.depths {
		p.depths[path] = d
	}
	p.mu.Unlock()
}

// AddTrace folds one externally collected transaction into the
// profiler: totalMs is the end-to-end latency and spans maps span
// paths (slash-separated, as produced by Enter/Exit nesting or a flat
// set of leaf names) to their total time within the transaction. The
// live observability layer uses this to replay retained
// slow-transaction traces into the same variance analysis that
// harness-profiled runs feed.
func (p *Profiler) AddTrace(totalMs float64, spans map[string]float64) {
	if p == nil {
		return
	}
	totals := make(map[string]float64, len(spans)+1)
	depths := make(map[string]int, len(spans)+1)
	for path, ms := range spans {
		totals[path] = ms
		depths[path] = strings.Count(path, "/") + 1
	}
	totals["txn"] = totalMs
	depths["txn"] = 0
	p.mu.Lock()
	p.count++
	p.txns.Add(totalMs)
	p.traces = append(p.traces, totals)
	for path, d := range depths {
		p.depths[path] = d
	}
	p.mu.Unlock()
}

// analyzeLocked runs (or reuses) the offline variance analysis over the
// collected traces: per-node variance accumulators, sibling
// covariances, and subtree heights. Caller holds p.mu.
func (p *Profiler) analyzeLocked() {
	if p.nodes != nil && p.analyzed == len(p.traces) {
		return
	}
	p.nodes = make(map[string]*nodeAcc, len(p.depths))
	for path, d := range p.depths {
		p.nodes[path] = &nodeAcc{path: path, depth: d}
	}
	paths := make([]string, 0, len(p.nodes))
	for path := range p.nodes {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// Sibling pairs (excluding the root, which is the parent of the
	// top-level spans, not their sibling).
	p.covs = make(map[[2]string]*stats.Cov)
	var pairs [][2]string
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if paths[i] == "txn" || paths[j] == "txn" {
				continue
			}
			if siblings(paths[i], paths[j]) {
				key := [2]string{paths[i], paths[j]}
				p.covs[key] = &stats.Cov{}
				pairs = append(pairs, key)
			}
		}
	}
	// One pass over the traces; absent nodes count as 0, keeping
	// Var/Cov mathematically consistent across transactions.
	for _, tr := range p.traces {
		for _, path := range paths {
			p.nodes[path].acc.Add(tr[path])
		}
		for _, key := range pairs {
			p.covs[key].Add(tr[key[0]], tr[key[1]])
		}
	}
	// Subtree heights.
	for path, n := range p.nodes {
		h := 0
		prefix := path + "/"
		for other := range p.nodes {
			if strings.HasPrefix(other, prefix) {
				d := strings.Count(other[len(prefix):], "/") + 1
				if d > h {
					h = d
				}
			}
		}
		n.height = h
	}
	p.analyzed = len(p.traces)
}

func siblings(a, b string) bool {
	return parentOf(a) == parentOf(b)
}

func parentOf(path string) string {
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return ""
	}
	return path[:i]
}

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
