// Morsel-style intra-query parallelism. An Exchange node partitions its
// leaf scan's in-range into interval-aligned morsels, runs the scan (with
// its pushed-down residual conditions) on a pool of workers that claim
// morsels from a shared counter, and merges the workers' document-ordered
// batch streams back into one globally ordered stream with a loser-tree
// gather. Workers exchange whole Batches over channels — one send per
// batch, never per row — so the transfer cost stays amortized exactly like
// the rest of the batch contract.
//
// Ordering argument: morsels are disjoint, ascending in-ranges and each
// worker claims monotonically increasing morsel indexes, so every worker's
// own stream is in-sorted and any two batches from different streams cover
// disjoint in-ranges. Comparing only the first In of each stream's head
// batch therefore suffices to emit whole batches in global document order
// — the Stack-Tree and TwigStack consumers downstream see exactly the
// serial scan's stream.
package exec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"xqdb/internal/store"
	"xqdb/internal/tpm"
)

const (
	// DefaultMorselRows is the target rows per morsel. Morsels deliberately
	// oversubscribe the worker pool (a few batches each) so dynamic
	// claiming absorbs skew from uneven interval density.
	DefaultMorselRows = 2048
	// morselsPerWorker oversubscribes arithmetic range splits.
	morselsPerWorker = 4
	// exchangeChanBuf is the per-worker channel depth, in batches.
	exchangeChanBuf = 2
	// exchangeMinBatch is the smallest batch capacity the budget backoff
	// shrinks to before giving up on parallelism.
	exchangeMinBatch = 16
	// exchangeTupleBytes is the accounting weight of one in-flight tuple.
	exchangeTupleBytes = 48
)

// exchangeBytes is the memory an exchange reserves for in-flight batches:
// per worker one batch being filled plus the channel depth, plus the
// gather's head batch per stream and the batch exposed to the consumer.
func exchangeBytes(dop, capRows int) int {
	batches := dop*(exchangeChanBuf+3) + 1
	return batches * capRows * exchangeTupleBytes
}

// Exchange runs its child scan in parallel on DOP workers and merges the
// per-worker batch streams back into document order. It degrades to a
// plain child open — same results, no workers — whenever parallelism is
// unavailable: an INL-parameterized open, a range too small to split, or
// a memory budget too tight for the in-flight batches.
type Exchange struct {
	Child *Scan
	// DOP is the planned worker count (the runtime Ctx.DOP may cap it).
	DOP int
	// MorselRows overrides the target rows per morsel (0 = default); the
	// fuzz and robustness harnesses shrink it to force many tiny morsels.
	MorselRows int
	Est_       Est

	stats OpStats
	// morsels/lastDOP record the most recent parallel open for EXPLAIN.
	morsels int64
	lastDOP int
	// workerBatches records how many batches each worker produced in the
	// most recent parallel run (merged under the gather's close).
	workerBatches []int64
}

// NewExchange builds an exchange over a partitionable leaf scan.
func NewExchange(child *Scan, dop int) *Exchange {
	return &Exchange{Child: child, DOP: dop}
}

// ExchangeEligible reports whether a scan can sit under an Exchange: its
// access path must be a full, range, or label scan whose bounds do not
// reference an outer row (INL inners re-resolve bounds per probe, which a
// pre-partitioned worker pool cannot do).
func ExchangeEligible(s *Scan) bool {
	switch s.Access.Kind {
	case AccessFull, AccessRange, AccessLabel:
	default:
		return false
	}
	if s.Access.Bounded {
		if s.Access.Lo.Kind == tpm.OpAttr || s.Access.Hi.Kind == tpm.OpAttr {
			return false
		}
	}
	return true
}

// Schema implements PlanNode.
func (e *Exchange) Schema() *Schema { return e.Child.Schema() }

// Children implements PlanNode.
func (e *Exchange) Children() []PlanNode { return []PlanNode{e.Child} }

// Estimate implements PlanNode.
func (e *Exchange) Estimate() Est { return e.Est_ }

// Stats implements PlanNode.
func (e *Exchange) Stats() *OpStats { return &e.stats }

// Describe implements PlanNode.
func (e *Exchange) Describe() string {
	if e.morsels > 0 {
		return fmt.Sprintf("exchange [dop=%d morsels=%d]", e.lastDOP, e.morsels)
	}
	return fmt.Sprintf("exchange [dop=%d]", e.DOP)
}

// WorkerBatches returns the per-worker batch counts of the most recent
// parallel run (nil when the exchange fell back to serial). The partition
// of batches over workers is scheduling-dependent; only the sum is
// deterministic.
func (e *Exchange) WorkerBatches() []int64 { return e.workerBatches }

func (e *Exchange) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	dop := e.DOP
	if ctx.DOP > 0 && ctx.DOP < dop {
		dop = ctx.DOP
	}
	if outer != nil || dop < 2 {
		e.stats.Opens++
		return e.Child.open(ctx, outer, outerSchema)
	}
	var lo, hi uint32
	if e.Child.Access.Bounded {
		v, err := resolveIn(e.Child.Access.Lo, nil, nil, ctx.Env)
		if err != nil {
			return nil, err
		}
		lo = v + e.Child.Access.LoAdd
		hv, err := resolveIn(e.Child.Access.Hi, nil, nil, ctx.Env)
		if err != nil {
			return nil, err
		}
		if hv != 0 || e.Child.Access.HiAdd != 0 {
			hi = hv + e.Child.Access.HiAdd
		}
		if hi != 0 && lo >= hi {
			e.stats.Opens++
			return emptyIter{}, nil
		}
	}
	target := e.MorselRows
	if target <= 0 {
		target = DefaultMorselRows
	}
	var parts []store.Interval
	var err error
	switch e.Child.Access.Kind {
	case AccessLabel:
		parts, err = ctx.Store.SplitLabelRange(e.Child.Access.Type, e.Child.Access.Value, lo, hi, target)
	case AccessFull, AccessRange:
		parts, err = ctx.Store.SplitRange(lo, hi, dop*morselsPerWorker)
	default:
		e.stats.Opens++
		return e.Child.open(ctx, outer, outerSchema)
	}
	if err != nil {
		return nil, err
	}
	if len(parts) < 2 {
		e.stats.Opens++
		return e.Child.open(ctx, outer, outerSchema)
	}
	if dop > len(parts) {
		dop = len(parts)
	}
	// Reserve the in-flight batch memory up front, shrinking the transfer
	// batch capacity under tight budgets rather than giving up outright.
	capRows := ctx.batchCap()
	reserved := 0
	for {
		need := exchangeBytes(dop, capRows)
		if ctx.Budget.Reserve(need) {
			reserved = need
			break
		}
		if capRows <= exchangeMinBatch {
			e.stats.Opens++
			return e.Child.open(ctx, outer, outerSchema)
		}
		capRows /= 2
	}
	e.stats.Opens++
	e.morsels = int64(len(parts))
	e.lastDOP = dop
	e.workerBatches = make([]int64, dop)
	g := &exchangeIter{
		ctx:      ctx,
		e:        e,
		parts:    parts,
		done:     make(chan struct{}),
		out:      make([]chan exMsg, dop),
		workers:  make([]*exWorker, dop),
		reserved: reserved,
	}
	for w := 0; w < dop; w++ {
		wctx := &Ctx{
			Store:      ctx.Store,
			TempDir:    ctx.TempDir,
			Budget:     ctx.Budget,
			Env:        cloneEnv(ctx.Env),
			SortBudget: ctx.SortBudget,
			FaultHook:  ctx.FaultHook,
			BatchSize:  capRows,
			DOP:        ctx.DOP,
		}
		sc := &Scan{Alias: e.Child.Alias, Access: e.Child.Access,
			Conds: e.Child.Conds, Est_: e.Child.Est_, schema: e.Child.schema}
		g.out[w] = make(chan exMsg, exchangeChanBuf)
		g.workers[w] = &exWorker{id: w, ctx: wctx, scan: sc}
		g.wg.Add(1)
		go g.runWorker(g.workers[w])
	}
	return g, nil
}

// cloneEnv snapshots the outer bindings for one worker: runRelFor mutates
// the driver's Env per emitted row, while a worker only ever needs the
// bindings as they stood when its exchange opened.
func cloneEnv(env Env) Env {
	if env == nil {
		return nil
	}
	c := make(Env, len(env))
	for k, v := range env {
		c[k] = v
	}
	return c
}

// exMsg is one batch (or the worker's terminal error) in flight.
type exMsg struct {
	b   *Batch
	err error
}

// exWorker is one worker's private execution state: its own Ctx (private
// Env snapshot and Counters) and its own Scan copy (private stats and
// compiled conditions), so nothing the hot loop touches is shared.
type exWorker struct {
	id   int
	ctx  *Ctx
	scan *Scan
}

// exhaustedKey sorts an ended stream after every real in label.
const exhaustedKey = math.MaxUint64

type exchangeIter struct {
	ctx      *Ctx
	e        *Exchange
	parts    []store.Interval
	next     atomic.Int64
	out      []chan exMsg
	done     chan struct{}
	wg       sync.WaitGroup
	workers  []*exWorker
	pool     sync.Pool
	reserved int

	// Gather state: one head batch per live stream, keyed by its first In.
	heads  []*Batch
	keys   []uint64
	tree   *loserTree
	inited bool
	cur    *Batch // batch currently exposed to the consumer
	err    error  // sticky
	closed bool
}

func (g *exchangeIter) getBatch() *Batch {
	if b, ok := g.pool.Get().(*Batch); ok {
		return b
	}
	return &Batch{}
}

func (g *exchangeIter) putBatch(b *Batch) { g.pool.Put(b) }

// morselAccess restricts the child's access path to one morsel interval.
func (g *exchangeIter) morselAccess(iv store.Interval) Access {
	a := g.e.Child.Access
	if a.Kind == AccessFull {
		a.Kind = AccessRange
	}
	a.Bounded = true
	a.Lo = tpm.Operand{Kind: tpm.OpConstIn, In: iv.Lo}
	a.Hi = tpm.Operand{Kind: tpm.OpConstIn, In: iv.Hi}
	a.LoAdd, a.HiAdd = 0, 0
	return a
}

// runWorker claims morsels from the shared counter until none remain (or
// the gather shuts down), scanning each and shipping whole batches.
func (g *exchangeIter) runWorker(w *exWorker) {
	defer g.wg.Done()
	defer close(g.out[w.id])
	for {
		m := int(g.next.Add(1)) - 1
		if m >= len(g.parts) {
			return
		}
		if !g.runMorsel(w, g.parts[m]) {
			return
		}
	}
}

// runMorsel scans one morsel interval, sending every batch it produces.
// It returns false when the worker should stop (error sent or shutdown).
func (g *exchangeIter) runMorsel(w *exWorker, iv store.Interval) bool {
	w.scan.Access = g.morselAccess(iv)
	it, err := w.scan.open(w.ctx, nil, nil)
	if err != nil {
		g.send(w.id, exMsg{err: err})
		return false
	}
	for {
		b := g.getBatch()
		n, err := it.NextBatch(b)
		if err != nil {
			g.putBatch(b)
			it.Close()
			g.send(w.id, exMsg{err: err})
			return false
		}
		if n == 0 {
			g.putBatch(b)
			break
		}
		if !g.send(w.id, exMsg{b: b}) {
			it.Close()
			return false
		}
	}
	it.Close()
	return true
}

// send ships one message on the worker's stream, giving up (false) when
// the gather has shut down — the only way a worker blocked on a full
// channel unwinds after an early close.
func (g *exchangeIter) send(id int, m exMsg) bool {
	select {
	case g.out[id] <- m:
		return true
	case <-g.done:
		return false
	}
}

// refill replaces stream i's head with its next batch, blocking until the
// worker delivers one or closes the stream.
func (g *exchangeIter) refill(i int) error {
	if g.heads[i] != nil {
		g.putBatch(g.heads[i])
		g.heads[i] = nil
	}
	m, ok := <-g.out[i]
	if !ok {
		g.keys[i] = exhaustedKey
		return nil
	}
	if m.err != nil {
		g.keys[i] = exhaustedKey
		return m.err
	}
	g.heads[i] = m.b
	g.keys[i] = uint64(m.b.Cols[0][m.b.rowIdx(0)].In)
	return nil
}

func (g *exchangeIter) initMerge() error {
	k := len(g.out)
	g.heads = make([]*Batch, k)
	g.keys = make([]uint64, k)
	for i := 0; i < k; i++ {
		if err := g.refill(i); err != nil {
			return err
		}
	}
	g.tree = newLoserTree(g.keys)
	return nil
}

// fail records the first error, shuts the pool down so nothing leaks, and
// returns the sentinel for the caller to propagate.
func (g *exchangeIter) fail(err error) error {
	if g.err == nil {
		g.err = err
	}
	g.shutdown()
	return g.err
}

// NextBatch emits the next whole batch in global document order: the head
// batch with the smallest first In among all worker streams. One loser-
// tree comparison path per batch — the gather does no per-row work at all.
func (g *exchangeIter) NextBatch(b *Batch) (int, error) {
	if g.err != nil {
		return 0, g.err
	}
	if g.cur != nil {
		g.putBatch(g.cur)
		g.cur = nil
	}
	if !g.inited {
		g.inited = true
		if err := g.initMerge(); err != nil {
			return 0, g.fail(err)
		}
	}
	w := g.tree.winner()
	if g.keys[w] == exhaustedKey {
		return 0, nil
	}
	win := g.heads[w]
	g.heads[w] = nil // ownership moves to the consumer until next call
	if err := g.refill(w); err != nil {
		g.putBatch(win)
		return 0, g.fail(err)
	}
	g.tree.fix(w)
	g.cur = win
	b.Cols = win.Cols
	b.Sel = win.Sel
	b.n = win.n
	return g.ctx.produced(&g.e.stats, win.Len()), nil
}

// shutdown stops the pool exactly once: wake any worker blocked on a send,
// join them all, then — single-threaded again — merge the per-worker stats
// and counters into the shared plan node and query counters and release
// the in-flight memory reservation.
func (g *exchangeIter) shutdown() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.done)
	g.wg.Wait()
	for _, w := range g.workers {
		g.e.workerBatches[w.id] = w.scan.stats.Batches
		g.e.Child.stats.merge(&w.scan.stats)
		g.ctx.Counters.merge(&w.ctx.Counters)
	}
	if g.reserved > 0 {
		g.ctx.Budget.Release(g.reserved)
		g.reserved = 0
	}
}

func (g *exchangeIter) Close() error {
	g.shutdown()
	return nil
}

// loserTree is a tournament tree over k streams keyed by uint64; winner()
// is O(1) and fix() after replacing the winner's key is O(log k). Leaves
// sit at node positions k..2k-1; node[1..k-1] hold the loser of each
// internal match and node[0] the overall winner.
type loserTree struct {
	k    int
	node []int
	key  []uint64
}

// newLoserTree builds the tree over keys; the slice is retained and the
// caller updates it in place before calling fix.
func newLoserTree(keys []uint64) *loserTree {
	k := len(keys)
	t := &loserTree{k: k, key: keys, node: make([]int, k)}
	if k == 1 {
		t.node[0] = 0
		return t
	}
	winners := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = i
	}
	for n := k - 1; n >= 1; n-- {
		a, b := winners[2*n], winners[2*n+1]
		if t.key[a] <= t.key[b] {
			winners[n], t.node[n] = a, b
		} else {
			winners[n], t.node[n] = b, a
		}
	}
	t.node[0] = winners[1]
	return t
}

// winner returns the leaf index with the minimum key.
func (t *loserTree) winner() int { return t.node[0] }

// fix replays the path from leaf w to the root after key[w] changed.
func (t *loserTree) fix(w int) {
	if t.k == 1 {
		return
	}
	for n := (w + t.k) / 2; n >= 1; n /= 2 {
		if t.key[t.node[n]] < t.key[w] {
			t.node[n], w = w, t.node[n]
		}
	}
	t.node[0] = w
}
