// Package core assembles the native XML-DBMS: parse → rewrite to TPM →
// merge relfors → optimize → execute. An Engine is one configuration of
// that pipeline over one stored document.
//
// The configurations correspond to the course milestones and to the
// engines compared in Figure 7 of the paper:
//
//	ModeM1         milestone 1: in-memory evaluation over the DOM
//	ModeM2         milestone 2: node-at-a-time over secondary storage
//	ModeNaiveTPM   TPM without merging or optimization (plan QP0 shape)
//	ModeM3         milestone 3: merged relfors, heuristic optimization
//	ModeM4         milestone 4: cost-based optimization with indexes
//	ModeM4BadStats milestone 4 with uniform statistics (the paper's
//	               engine 2, whose "unlucky estimates" pick a disastrous
//	               join order on efficiency test 5)
//
// An Engine is safe for concurrent queries: each query runs under its own
// budget and context, counters are returned per query (Engine.Counters
// keeps the last completed run for the CLI), and Handle gives callers a
// per-query cancel that cannot hit a neighbor's query.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"xqdb/internal/dom"
	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/mem"
	"xqdb/internal/naive"
	"xqdb/internal/opt"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xq"
)

// Mode selects an engine configuration.
type Mode int

// Engine configurations (see package comment).
const (
	ModeM1 Mode = iota
	ModeM2
	ModeNaiveTPM
	ModeM3
	ModeM4
	ModeM4BadStats
)

// String returns the short engine name used in reports.
func (m Mode) String() string {
	switch m {
	case ModeM1:
		return "M1-mem"
	case ModeM2:
		return "M2-naive"
	case ModeNaiveTPM:
		return "TPM-naive"
	case ModeM3:
		return "M3-heuristic"
	case ModeM4:
		return "M4-costbased"
	case ModeM4BadStats:
		return "M4-badstats"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Modes lists all engine configurations.
func Modes() []Mode {
	return []Mode{ModeM1, ModeM2, ModeNaiveTPM, ModeM3, ModeM4, ModeM4BadStats}
}

// Config tunes an Engine beyond its Mode.
type Config struct {
	Mode Mode
	// Timeout bounds each query (0 = unlimited); timed-out queries
	// return limit.ErrTimeout, which the testbed converts into the
	// paper's "assigned the cap" rule.
	Timeout time.Duration
	// SortBudget bounds operator memory (spools, sorts) in bytes.
	SortBudget int
	// MemBudget caps the total buffered bytes of one query across all its
	// operators (0 = unlimited); past the cap operators spill to disk
	// instead of growing.
	MemBudget int
	// FaultHook, when set, is consulted before operator temp-file writes;
	// the fault-injection harness uses it.
	FaultHook func(op string) error
	// Opt overrides the optimizer configuration derived from Mode
	// (used by the ablation benchmarks).
	Opt *opt.Config
	// NoMerge disables relfor merging regardless of Mode (ablations).
	NoMerge bool
	// BatchSize sets the operator batch capacity of the milestone 3/4
	// executor (0 uses exec.DefaultBatchSize). The fuzz and robustness
	// harnesses run awkward sizes (1, 7) to shake out batch-boundary bugs;
	// a negative value fails every query with ErrBatchSize.
	BatchSize int
	// PlanCache, when set, caches compiled plans for the milestone 3/4
	// modes, keyed by CacheDoc, the normalized query text, and the
	// planner-relevant configuration; hits skip parse+optimize entirely.
	// The engine stores pristine plans and executes clones, so one cache
	// may serve many engines and concurrent queries.
	PlanCache *plancache.Cache
	// CacheDoc identifies the document (catalog name + stats epoch) this
	// engine's store serves, for plan-cache keying. Required whenever
	// PlanCache is shared across documents; the zero value is fine for a
	// single-document cache.
	CacheDoc plancache.DocVersion
}

// ErrBatchSize rejects a negative Config.BatchSize.
var ErrBatchSize = errors.New("core: negative BatchSize")

// Engine evaluates XQ queries over one stored document under a fixed
// configuration. All methods are safe for concurrent use.
type Engine struct {
	st  *store.Store
	cfg Config

	mu       sync.Mutex
	last     exec.Counters              // counters of the last completed query
	inflight map[*limit.Budget]struct{} // budgets of running queries, for Cancel

	domMu   sync.Mutex
	domRoot *dom.Node // lazily reconstructed for ModeM1
}

// New returns an engine over st.
func New(st *store.Store, cfg Config) *Engine {
	return &Engine{st: st, cfg: cfg, inflight: make(map[*limit.Budget]struct{})}
}

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// Mode returns the engine's mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Counters returns the physical-operator counters of the last completed
// query (milestone 3/4 modes only). With concurrent queries "last
// completed" is whichever finished most recently; concurrent callers
// should read Result.Counters from their own Handle instead.
func (e *Engine) Counters() exec.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// optConfig derives the optimizer configuration for the mode.
func (e *Engine) optConfig() opt.Config {
	if e.cfg.Opt != nil {
		return *e.cfg.Opt
	}
	var cfg opt.Config
	switch e.cfg.Mode {
	case ModeNaiveTPM:
		cfg = opt.NaiveTPM()
	case ModeM3:
		cfg = opt.M3()
	case ModeM4BadStats:
		cfg = opt.M4BadStats()
	default:
		cfg = opt.M4()
	}
	cfg.SpoolBudget = e.cfg.SortBudget
	return cfg
}

func (e *Engine) merging() bool {
	if e.cfg.NoMerge {
		return false
	}
	return e.cfg.Mode != ModeNaiveTPM
}

// Result is the outcome of one query.
type Result struct {
	// XML is the serialized result forest.
	XML string
	// Counters are this run's physical-operator counters (milestone 3/4
	// modes; zero for M1/M2).
	Counters exec.Counters
	// CacheHit reports whether the plan came from the plan cache
	// (parse and optimize were skipped).
	CacheHit bool
}

// Handle runs queries with a per-query Cancel. A Handle is cheap; sessions
// create one per request so canceling one request cannot abort another.
// Cancel may be called from any goroutine, before or during Query: a
// cancel that arrives before execution starts aborts the query at its
// first budget poll. M1/M2 queries are not cancelable (they are bounded by
// Timeout only).
type Handle struct {
	e        *Engine
	mu       sync.Mutex
	budget   *limit.Budget
	canceled bool
}

// NewHandle returns a fresh query handle.
func (e *Engine) NewHandle() *Handle { return &Handle{e: e} }

// Cancel aborts the handle's query: the next budget poll returns
// limit.ErrCanceled and every operator unwinds, removing temp files and
// releasing pins. Canceling an idle or finished handle marks it so a
// subsequent Query aborts immediately.
func (h *Handle) Cancel() {
	h.mu.Lock()
	h.canceled = true
	b := h.budget
	h.mu.Unlock()
	b.Cancel() // nil-safe
}

func (h *Handle) attach(b *limit.Budget) {
	h.mu.Lock()
	h.budget = b
	canceled := h.canceled
	h.mu.Unlock()
	if canceled {
		b.Cancel()
	}
}

func (h *Handle) detach() {
	h.mu.Lock()
	h.budget = nil
	h.mu.Unlock()
}

// Query parses and evaluates an XQ query under this handle, consulting the
// engine's plan cache when configured.
func (h *Handle) Query(src string) (*Result, error) {
	e := h.e
	e.st.ReadLock() // updates drain and stay out for the whole query
	defer e.st.ReadUnlock()
	switch e.cfg.Mode {
	case ModeM1, ModeM2:
		q, err := xq.Parse(src)
		if err != nil {
			return nil, err
		}
		out, err := e.evalDirect(q)
		if err != nil {
			return nil, err
		}
		return &Result{XML: out}, nil
	}
	dl := limit.After(e.cfg.Timeout)
	key, cached := e.cacheKey(src)
	if cached {
		if plan, hit := e.cfg.PlanCache.Get(key); hit {
			out, counters, err := e.runPlan(exec.ClonePlan(plan), dl, h)
			if err != nil {
				return nil, err
			}
			return &Result{XML: string(out), Counters: counters, CacheHit: true}, nil
		}
	}
	q, err := xq.Parse(src)
	if err != nil {
		return nil, err
	}
	xplan, err := e.compile(q)
	if err != nil {
		return nil, err
	}
	if cached {
		// Store the pristine tree and run a clone: plan nodes accumulate
		// runtime state, so the cached plan itself must never execute.
		e.cfg.PlanCache.Put(key, xplan)
		xplan = exec.ClonePlan(xplan)
	}
	out, counters, err := e.runPlan(xplan, dl, h)
	if err != nil {
		return nil, err
	}
	return &Result{XML: string(out), Counters: counters}, nil
}

// cacheKey returns the plan-cache key for a query text, and whether the
// cache applies (configured engine, plan-producing mode).
func (e *Engine) cacheKey(src string) (plancache.Key, bool) {
	if e.cfg.PlanCache == nil {
		return plancache.Key{}, false
	}
	return plancache.Key{
		Doc:   e.cfg.CacheDoc,
		Query: plancache.Normalize(src),
		Cfg:   e.optConfig(),
		Merge: e.merging(),
	}, true
}

// Query parses and evaluates an XQ query, returning serialized XML.
func (e *Engine) Query(src string) (string, error) {
	res, err := e.NewHandle().Query(src)
	if err != nil {
		return "", err
	}
	return res.XML, nil
}

// QueryExpr evaluates an already-parsed query (bypassing the plan cache,
// which keys on query text).
func (e *Engine) QueryExpr(q xq.Expr) (string, error) {
	e.st.ReadLock()
	defer e.st.ReadUnlock()
	switch e.cfg.Mode {
	case ModeM1, ModeM2:
		return e.evalDirect(q)
	}
	out, _, _, err := e.compileAndRun(q, limit.After(e.cfg.Timeout), nil)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// evalDirect runs the plan-less milestone 1/2 evaluators.
func (e *Engine) evalDirect(q xq.Expr) (string, error) {
	switch e.cfg.Mode {
	case ModeM1:
		root, err := e.domDocument()
		if err != nil {
			return "", err
		}
		res, err := mem.New(root).Eval(q)
		if err != nil {
			return "", err
		}
		return dom.SerializeForest(res), nil
	default: // ModeM2
		ev := naive.New(e.st)
		ev.Deadline = limit.After(e.cfg.Timeout)
		return ev.Eval(q)
	}
}

// compileAndRun is the shared milestone 3/4 execution path: compile to a
// physical plan, execute it, and record the run's counters. Query and
// ExplainAnalyze both go through it so analyzed runs execute under exactly
// the conditions of real queries.
func (e *Engine) compileAndRun(q xq.Expr, dl *limit.Deadline, h *Handle) ([]byte, exec.XPlan, exec.Counters, error) {
	xplan, err := e.compile(q)
	if err != nil {
		return nil, nil, exec.Counters{}, err
	}
	out, counters, err := e.runPlan(xplan, dl, h)
	return out, xplan, counters, err
}

// runPlan executes a compiled plan under a fresh per-query budget,
// registered in the in-flight set (for Engine.Cancel) and attached to h
// (for per-query cancel) for the duration of the run.
func (e *Engine) runPlan(xplan exec.XPlan, dl *limit.Deadline, h *Handle) ([]byte, exec.Counters, error) {
	ctx, budget, err := e.execCtx(dl)
	if err != nil {
		return nil, exec.Counters{}, err
	}
	if h != nil {
		h.attach(budget)
	}
	out, err := exec.Run(ctx, xplan)
	if h != nil {
		h.detach()
	}
	e.mu.Lock()
	delete(e.inflight, budget)
	e.last = ctx.Counters
	e.mu.Unlock()
	return out, ctx.Counters, err
}

func (e *Engine) execCtx(dl *limit.Deadline) (*exec.Ctx, *limit.Budget, error) {
	if e.cfg.BatchSize < 0 {
		return nil, nil, ErrBatchSize
	}
	tmp, err := e.st.TempDir()
	if err != nil {
		return nil, nil, err
	}
	budget := limit.NewBudget(e.cfg.MemBudget, dl)
	e.mu.Lock()
	e.inflight[budget] = struct{}{}
	e.mu.Unlock()
	ctx := &exec.Ctx{
		Store:      e.st,
		TempDir:    tmp,
		Budget:     budget,
		Env:        exec.Env{},
		SortBudget: e.cfg.SortBudget,
		FaultHook:  e.cfg.FaultHook,
		BatchSize:  e.cfg.BatchSize,
	}
	return ctx, budget, nil
}

// Cancel aborts every in-flight query on the engine: each one's next
// budget poll returns limit.ErrCanceled and its operators unwind, removing
// temp files and releasing pins. For canceling one specific query among
// concurrent ones, use a Handle. Safe to call from another goroutine and
// when idle.
func (e *Engine) Cancel() {
	e.mu.Lock()
	budgets := make([]*limit.Budget, 0, len(e.inflight))
	for b := range e.inflight {
		budgets = append(budgets, b)
	}
	e.mu.Unlock()
	for _, b := range budgets {
		b.Cancel()
	}
}

// compile runs the milestone 3/4 pipeline up to the executable plan.
func (e *Engine) compile(q xq.Expr) (exec.XPlan, error) {
	plan := tpm.Rewrite(q)
	if e.merging() {
		plan = tpm.Merge(plan)
	}
	planner := opt.New(e.st, e.optConfig())
	return planner.Plan(plan)
}

// ExplainAnalyze compiles AND executes a query, returning the physical
// plan annotated with per-operator runtime row counts and the query-wide
// counters — which join operator actually ran, how many rows it produced,
// and (for structural merge joins) the ancestor-stack high-water mark.
// Composite partial-twig plans render as a k-ary twig-join subtree (one
// stream per twig node, branch glyphs, per-stream actual rows) under the
// binary joins that take the uncovered relations. Only the milestone 3/4
// modes have a physical plan to analyze. ExplainAnalyze bypasses the plan
// cache: it exists to show what compilation produces.
func (e *Engine) ExplainAnalyze(src string) (string, error) {
	q, err := xq.Parse(src)
	if err != nil {
		return "", err
	}
	switch e.cfg.Mode {
	case ModeM1, ModeM2:
		return "", fmt.Errorf("core: %s has no physical plan to analyze", e.cfg.Mode)
	}
	e.st.ReadLock()
	defer e.st.ReadUnlock()
	out, xplan, counters, err := e.compileAndRun(q, limit.After(e.cfg.Timeout), nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %s\nquery:  %s\n\n-- physical plan (analyzed) --\n", e.cfg.Mode, q)
	b.WriteString(exec.ExplainAnalyze(xplan, counters))
	fmt.Fprintf(&b, "result: %d bytes\n", len(out))
	return b.String(), nil
}

// domDocument reconstructs the in-memory DOM from the store (milestone 1
// operates on the parsed document; the store is the single source of
// truth here).
func (e *Engine) domDocument() (*dom.Node, error) {
	e.domMu.Lock()
	defer e.domMu.Unlock()
	if e.domRoot != nil {
		return e.domRoot, nil
	}
	xml, err := e.st.AppendSubtree(nil, store.RootIn)
	if err != nil {
		return nil, err
	}
	root, err := dom.Parse(bytes.NewReader(xml))
	if err != nil {
		return nil, err
	}
	e.domRoot = root
	return root, nil
}

// Explain compiles the query and renders every pipeline stage: the parsed
// query, the TPM plan before and after merging, and the physical plan
// with cost estimates. Explain bypasses the plan cache.
func (e *Engine) Explain(src string) (string, error) {
	q, err := xq.Parse(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %s\nquery:  %s\n\n", e.cfg.Mode, q)
	switch e.cfg.Mode {
	case ModeM1, ModeM2:
		b.WriteString("(no algebraic plan: this mode evaluates the query directly)\n")
		return b.String(), nil
	}
	plan := tpm.Rewrite(q)
	b.WriteString("-- TPM (rewritten) --\n")
	b.WriteString(tpm.Format(plan))
	if e.merging() {
		plan = tpm.Merge(plan)
		b.WriteString("\n-- TPM (merged) --\n")
		b.WriteString(tpm.Format(plan))
	}
	e.st.ReadLock() // the planner reads statistics and index heights
	planner := opt.New(e.st, e.optConfig())
	xplan, err := planner.Plan(plan)
	e.st.ReadUnlock()
	if err != nil {
		return "", err
	}
	b.WriteString("\n-- physical plan --\n")
	b.WriteString(exec.Explain(xplan))
	fmt.Fprintf(&b, "\nestimated total cost: %.1f\n", exec.PlanCost(xplan))
	return b.String(), nil
}
