package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"xqdb/internal/recfile"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// TwigJoin is the holistic twig join (the TwigStack family): one
// document-ordered stream per twig node and one chained stack per node
// evaluate the whole k-node path pattern in a single multi-stream pass.
// Where a chain of binary structural joins materializes (and re-sorts)
// every pairwise intermediate result, the holistic operator buffers only
// root-to-leaf path solutions — for ancestor/descendant-only twigs these
// are guaranteed to contribute to the final answer, so intermediate space
// is bounded by the twig output. Parent/child edges keep the operator
// correct (they are checked during path enumeration) but may buffer some
// path solutions the merge phase discards, exactly as in the original
// TwigStack.
//
// Execution has three phases inside one iterator:
//
//  1. stream phase: getNext-style advancement picks the next useful head
//     tuple across all k streams (skipping runs that cannot extend any
//     match via the cursors' SeekGE), maintaining per-node stacks whose
//     entries link to their parent-stack position;
//  2. enumeration: every leaf push expands the stack encoding into
//     root-to-leaf path solutions;
//  3. merge: path solutions join on their shared branch nodes into full
//     twig matches, residual conditions are applied, and the result is
//     emitted sorted by the in-labels of OutOrder — the plan's required
//     vartuple order, so no repair sort is needed above the operator.
//
// The operator is an ordinary PlanNode producing multi-alias rows, so it
// also serves as the *leading input stream of a parent join* (partial-twig
// adoption): the planner seeds a pipeline with the twig over the covered
// relations and joins the uncovered ones on top via NL/INL/structural
// operators. For that composite use OutOrder names just the covered
// vartuple relations (in vartuple order) — the emission stays sorted by
// exactly those in-labels, which is the prefix contract the parent
// pipeline and the final deduplicating projection rely on.
type TwigJoin struct {
	// Streams holds one document-ordered input per twig node, aligned
	// with Twig.Nodes; each must produce single-alias rows for the node's
	// alias (the planner builds them as Scans).
	Streams []PlanNode
	// Twig is the pattern: node aliases with parent links and edge axes.
	Twig tpm.Twig
	// Conds are residual cross conditions evaluated per merged row.
	Conds []tpm.Cmp
	// OutOrder lists the aliases whose in-labels define the emission
	// order (lexicographic). Aliases must be twig nodes; they may be a
	// strict subset (the covered vartuple relations of a partial twig) —
	// rows tying on all OutOrder labels emit in arbitrary but grouped
	// order. An empty OutOrder leaves the emission order unspecified.
	OutOrder []string
	Est_     Est

	schema   *Schema
	compiled compiledConds
	children [][]int // node -> child node indices
	leafPath []int   // leaf node -> index into paths (-1 for inner nodes)
	paths    [][]int // root-to-leaf node index lists, DFS preorder
	outSlots []int
}

// NewTwigJoin builds a holistic twig join. streams must be aligned 1:1
// with twig.Nodes and produce single-alias rows in document order.
func NewTwigJoin(streams []PlanNode, twig tpm.Twig, conds []tpm.Cmp, outOrder []string) *TwigJoin {
	j := &TwigJoin{Streams: streams, Twig: twig, Conds: conds,
		OutOrder: append([]string(nil), outOrder...),
		schema:   NewSchema(twig.Aliases()...)}
	j.children = make([][]int, len(twig.Nodes))
	j.leafPath = make([]int, len(twig.Nodes))
	for i := range twig.Nodes {
		j.children[i] = twig.Children(i)
		j.leafPath[i] = -1
	}
	// Root-to-leaf paths in DFS preorder, so each path's prefix up to its
	// branch point is covered by the paths before it (the merge relies on
	// this).
	var walk func(i int, trail []int)
	walk = func(i int, trail []int) {
		trail = append(trail, i)
		if len(j.children[i]) == 0 {
			j.leafPath[i] = len(j.paths)
			j.paths = append(j.paths, append([]int(nil), trail...))
			return
		}
		for _, c := range j.children[i] {
			walk(c, trail)
		}
	}
	walk(0, nil)
	for _, a := range j.OutOrder {
		j.outSlots = append(j.outSlots, j.schema.Slot(a))
	}
	j.compiled = compileConds(conds, j.schema)
	return j
}

// Schema implements PlanNode.
func (j *TwigJoin) Schema() *Schema { return j.schema }

// Children implements PlanNode.
func (j *TwigJoin) Children() []PlanNode { return append([]PlanNode(nil), j.Streams...) }

// Estimate implements PlanNode.
func (j *TwigJoin) Estimate() Est { return j.Est_ }

// Describe implements PlanNode.
func (j *TwigJoin) Describe() string {
	d := fmt.Sprintf("twig-join %s [holistic, %d streams]", j.Twig.String(), len(j.Streams))
	if len(j.Conds) > 0 {
		d += fmt.Sprintf(" σ(%s)", condsString(j.Conds))
	}
	return d
}

func (j *TwigJoin) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	if outer != nil {
		return nil, fmt.Errorf("exec: twig join cannot be an INL inner")
	}
	if j.compiled.err != nil {
		return nil, j.compiled.err
	}
	k := len(j.Streams)
	it := &twigJoinIter{
		ctx:     ctx,
		j:       j,
		st:      &ctx.record(j).OpStats,
		its:     make([]batchIter, k),
		streams: make([]*batchStream, k),
		heads:   make([]xasr.Tuple, k),
		have:    make([]bool, k),
		eofs:    make([]bool, k),
		stacks:  make([][]twigEntry, k),
		sols:    make([]*recfile.BoundedBuf, len(j.paths)),
	}
	for pi := range j.paths {
		it.sols[pi] = it.newBuf("twigsol")
	}
	for i, s := range j.Streams {
		si, err := s.open(ctx, nil, nil)
		if err != nil {
			for _, prev := range it.its[:i] {
				prev.Close()
			}
			return nil, err
		}
		it.its[i] = si
		it.streams[i] = newBatchStream(si, 0)
	}
	it.st.Opens++
	return it, nil
}

// twigEntry is one stack slot: a node tuple plus the index of the top of
// the parent node's stack at push time. All parent entries up to ptr
// started before this tuple; the ones still containing it are its twig
// ancestors (checked per edge axis during enumeration).
type twigEntry struct {
	t   xasr.Tuple
	ptr int
}

type twigJoinIter struct {
	ctx     *Ctx
	j       *TwigJoin
	st      *OpStats
	its     []batchIter
	streams []*batchStream // batch-buffered view over its
	heads   []xasr.Tuple   // peeked head per stream
	have    []bool
	eofs    []bool
	stacks  [][]twigEntry
	// sols buffers path solutions per path, each encoded with appendRow;
	// the buffers spill to temp run files past the budget.
	sols    []*recfile.BoundedBuf
	scratch []byte

	// merge-phase state, kept on the iterator so Close can clean up after
	// an error at any point.
	acc    *recfile.BoundedBuf // accumulated partial matches (full-width rows)
	sorter *recfile.Sorter     // final emission sort, live only during merge
	sorted *recfile.Iterator   // sorted full matches
	keyLen int
	rowbuf Row // decode scratch
	ran    bool
}

// newBuf returns a BoundedBuf wired to the query's budget and fault hook.
func (it *twigJoinIter) newBuf(prefix string) *recfile.BoundedBuf {
	b := recfile.NewBoundedBuf(it.ctx.TempDir, prefix, it.ctx.softBudget(), it.ctx.Budget)
	b.SetHook(it.ctx.FaultHook)
	return b
}

// closeBuf folds a buffer's spill activity into the counters and removes
// its temp file. Each buffer must pass through here exactly once.
func (it *twigJoinIter) closeBuf(b *recfile.BoundedBuf) {
	it.ctx.Counters.SpilledTuples += b.SpilledRecs()
	it.ctx.Counters.SpilledBytes += b.SpilledBytes()
	it.ctx.Counters.SpillRuns += int64(b.SpillRuns())
	it.st.SpilledBytes += b.SpilledBytes()
	it.st.SpillRuns += int64(b.SpillRuns())
	b.Close()
}

// ensureHead pulls the next tuple of stream i into heads[i] if none is
// pending; it reports whether a head is available.
func (it *twigJoinIter) ensureHead(i int) (bool, error) {
	if it.have[i] {
		return true, nil
	}
	if it.eofs[i] {
		return false, nil
	}
	s := it.streams[i]
	ok, err := s.ensure()
	if err != nil {
		return false, err
	}
	if !ok {
		it.eofs[i] = true
		return false, nil
	}
	it.heads[i] = s.tup(s.pos)
	it.have[i] = true
	return true, nil
}

// dropHead consumes stream i's pending head.
func (it *twigJoinIter) dropHead(i int) {
	it.have[i] = false
	it.streams[i].pos++
}

// markEOF drops the remainder of stream i: its tuples can no longer
// contribute to any new twig match.
func (it *twigJoinIter) markEOF(i int) {
	it.eofs[i] = true
	it.have[i] = false
}

// end reports whether every leaf stream is exhausted — the TwigStack
// termination condition (no leaf tuple left means no new path solution).
func (it *twigJoinIter) end() bool {
	for i := range it.j.Twig.Nodes {
		if it.j.leafPath[i] >= 0 && (it.have[i] || !it.eofs[i]) {
			return false
		}
	}
	return true
}

// getNext picks the next node whose head tuple should be processed — the
// core TwigStack stream-advancement routine. It returns (q, true) when
// node q has a valid head that is "self-satisfied" (its interval may
// extend to a match with every live child subtree), or (q, false) when
// q's whole subtree is exhausted. Internal nodes whose remaining tuples
// can no longer pair with some child subtree (that subtree's streams ran
// dry) are dropped wholesale instead of drained row by row.
func (it *twigJoinIter) getNext(q int) (int, bool, error) {
	kids := it.j.children[q]
	if len(kids) == 0 {
		ok, err := it.ensureHead(q)
		return q, ok, err
	}
	anyLive := false
	anyDead := false
	nmin, nmax := -1, -1
	for _, qi := range kids {
		ni, ok, err := it.getNext(qi)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			anyDead = true
			continue
		}
		anyLive = true
		if ni != qi {
			return ni, true, nil
		}
		if nmin < 0 || it.heads[qi].In < it.heads[nmin].In {
			nmin = qi
		}
		if nmax < 0 || it.heads[qi].In > it.heads[nmax].In {
			nmax = qi
		}
	}
	if !anyLive {
		// Every child subtree is exhausted: no future q tuple can close a
		// match, so q's subtree is done too.
		it.markEOF(q)
		return q, false, nil
	}
	if anyDead {
		// Some child subtree ran dry: future q tuples cannot contain any
		// of its (fully consumed) tuples, so they are useless — existing
		// stack entries keep serving the live subtrees.
		it.markEOF(q)
	} else {
		// Skip q tuples that end before the latest child head starts:
		// they cannot contain the heads of every child stream.
		for {
			ok, err := it.ensureHead(q)
			if err != nil {
				return 0, false, err
			}
			if !ok || it.heads[q].Out >= it.heads[nmax].In {
				break
			}
			it.dropHead(q)
		}
	}
	if it.have[q] && it.heads[q].In < it.heads[nmin].In {
		return q, true, nil
	}
	return nmin, true, nil
}

// cleanStack pops node n's entries whose intervals end before pos: they
// can contain no tuple at or after the current merge position.
func (it *twigJoinIter) cleanStack(n int, pos uint32) {
	s := it.stacks[n]
	for len(s) > 0 && s[len(s)-1].t.Out < pos {
		s = s[:len(s)-1]
	}
	it.stacks[n] = s
}

// push moves node q's head onto its stack, linking it to the current top
// of the parent stack.
func (it *twigJoinIter) push(q int) {
	parent := it.j.Twig.Nodes[q].Parent
	ptr := -1
	if parent >= 0 {
		ptr = len(it.stacks[parent]) - 1
	}
	it.stacks[q] = append(it.stacks[q], twigEntry{t: it.heads[q], ptr: ptr})
	it.dropHead(q)
	depth := int64(len(it.stacks[q]))
	if depth > it.st.StackMax {
		it.st.StackMax = depth
	}
	if depth > it.ctx.Counters.StructStackMax {
		it.ctx.Counters.StructStackMax = depth
	}
}

// edgeOK checks the structural edge between a parent-stack entry and a
// child tuple. The stack invariant already guarantees the parent starts
// first and spans the child's start; the explicit check enforces strict
// containment (rejecting self-pairs) and parent/child equality.
func edgeOK(axis tpm.Axis, p, c xasr.Tuple) bool {
	if axis == tpm.AxisChild {
		return c.ParentIn == p.In
	}
	return p.In < c.In && c.Out < p.Out
}

// emitPathSols expands the just-pushed leaf entry into root-to-leaf path
// solutions by walking the stack pointer chains, checking each edge's
// axis, and buffers them for the merge phase. The buffer spills past the
// budget, so a deep enumeration also polls the deadline per solution.
func (it *twigJoinIter) emitPathSols(leaf int) error {
	pi := it.j.leafPath[leaf]
	path := it.j.paths[pi]
	m := len(path) - 1
	sol := make([]xasr.Tuple, len(path))
	top := it.stacks[leaf][len(it.stacks[leaf])-1]
	sol[m] = top.t
	var rec func(level int, child twigEntry) error
	rec = func(level int, child twigEntry) error {
		if level < 0 {
			if err := it.ctx.check(); err != nil {
				return err
			}
			it.scratch = appendRow(it.scratch[:0], sol)
			if err := it.sols[pi].Append(it.scratch); err != nil {
				return err
			}
			it.ctx.Counters.TwigPathSolutions++
			return nil
		}
		node := path[level]
		axis := it.j.Twig.Nodes[path[level+1]].Axis
		s := it.stacks[node]
		limit := child.ptr
		if limit >= len(s) {
			limit = len(s) - 1
		}
		for i := 0; i <= limit; i++ {
			if edgeOK(axis, s[i].t, child.t) {
				sol[level] = s[i].t
				if err := rec(level-1, s[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(m-1, top)
}

// run executes the stream phase to completion, then merges the buffered
// path solutions into sorted full twig matches.
func (it *twigJoinIter) run() error {
	j := it.j
	for {
		if err := it.ctx.check(); err != nil {
			return err
		}
		if it.end() {
			break
		}
		q, ok, err := it.getNext(0)
		if err != nil {
			return err
		}
		if !ok {
			break // every stream exhausted
		}
		qIn := it.heads[q].In
		parent := j.Twig.Nodes[q].Parent
		if parent >= 0 {
			it.cleanStack(parent, qIn)
		}
		if parent < 0 || len(it.stacks[parent]) > 0 {
			it.cleanStack(q, qIn)
			it.push(q)
			if j.leafPath[q] >= 0 {
				if err := it.emitPathSols(q); err != nil {
					return err
				}
				it.stacks[q] = it.stacks[q][:len(it.stacks[q])-1]
			}
			continue
		}
		// No potential ancestor on the parent stack: everything before
		// the parent stream's next tuple cannot match — leap forward.
		pOK, err := it.ensureHead(parent)
		if err != nil {
			return err
		}
		if !pOK {
			// Parent stream dry with an empty stack: q's subtree is dead.
			it.markEOF(q)
			continue
		}
		it.dropHead(q)
		if _, err := it.streams[q].seekInGE(it.heads[parent].In + 1); err != nil {
			return err
		}
	}
	return it.merge()
}

// merge joins the buffered path solutions across paths on their shared
// prefix nodes, applies residual conditions, and sorts the full matches
// by the OutOrder in-labels. All intermediate state lives in BoundedBufs
// and an external sorter, so the phase degrades to disk past the budget
// instead of holding every partial match in memory. On error the
// iterator's Close sweeps whatever buffers remain.
func (it *twigJoinIter) merge() error {
	j := it.j
	k := len(j.Twig.Nodes)
	covered := make([]bool, k)

	for pi, path := range j.paths {
		if err := it.ctx.check(); err != nil {
			return err
		}
		sb := it.sols[pi]
		if sb.Len() == 0 {
			return nil // a path with no solution means no match at all
		}
		if pi == 0 {
			// Seed the accumulator with the first path's solutions
			// scattered into full-width rows.
			it.acc = it.newBuf("twigacc")
			solIt, err := sb.Iter()
			if err != nil {
				return err
			}
			solRow := make(Row, len(path))
			row := make(Row, k)
			for {
				rec, err := solIt.Next()
				if err == io.EOF {
					break
				}
				if err == nil {
					err = it.ctx.check()
				}
				if err == nil {
					err = decodeRowInto(solRow, rec)
				}
				if err != nil {
					solIt.Close()
					return err
				}
				for li, n := range path {
					row[n] = solRow[li]
				}
				it.scratch = appendRow(it.scratch[:0], row)
				if err := it.acc.Append(it.scratch); err != nil {
					solIt.Close()
					return err
				}
			}
			solIt.Close()
			it.closeBuf(sb)
			it.sols[pi] = nil
			for _, n := range path {
				covered[n] = true
			}
			continue
		}
		// DFS preorder guarantees the shared nodes are a prefix of path.
		shared := 0
		for shared < len(path) && covered[path[shared]] {
			shared++
		}
		next, err := it.joinPath(path, shared, sb)
		if err != nil {
			return err
		}
		it.closeBuf(sb)
		it.sols[pi] = nil
		it.closeBuf(it.acc)
		it.acc = next
		for _, n := range path[shared:] {
			covered[n] = true
		}
		if it.acc.Len() == 0 {
			return nil
		}
	}
	return it.finalize()
}

// joinPath block-hash-joins the accumulated partial matches with one
// path's solutions on the shared prefix nodes: solutions are read in
// budget-bounded blocks, each block is hashed on the shared in-labels, and
// the accumulator streams once per block probing it. Order is repaired by
// the finalize sort. On error the returned buffer has been discarded; the
// caller's sb and acc stay live for Close to sweep.
func (it *twigJoinIter) joinPath(path []int, shared int, sb *recfile.BoundedBuf) (*recfile.BoundedBuf, error) {
	j := it.j
	k := len(j.Twig.Nodes)
	soft := it.ctx.softBudget()
	next := it.newBuf("twigacc")
	solIt, err := sb.Iter()
	if err != nil {
		next.Close()
		return nil, err
	}
	defer solIt.Close()

	solRow := make(Row, len(path))
	probeRow := make(Row, k)
	combined := make(Row, k)
	var kb []byte
	eof := false
	for !eof {
		// Load one block of this path's solutions, hashed on the shared
		// prefix in-labels. Values survive the shared decode string, so
		// retained copies are safe.
		index := make(map[string][]Row)
		blockBytes, blockCount := 0, 0
		for blockBytes <= soft {
			rec, err := solIt.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err == nil {
				err = it.ctx.check()
			}
			if err == nil {
				err = decodeRowInto(solRow, rec)
			}
			if err != nil {
				next.Close()
				return nil, err
			}
			s := append(Row(nil), solRow...)
			kb = kb[:0]
			for li := 0; li < shared; li++ {
				kb = binary.BigEndian.AppendUint32(kb, s[li].In)
			}
			index[string(kb)] = append(index[string(kb)], s)
			for _, t := range s {
				blockBytes += 16 + len(t.Value)
			}
			blockCount++
		}
		if blockCount == 0 {
			break
		}
		// Stream the accumulator against this block.
		accIt, err := it.acc.Iter()
		if err != nil {
			next.Close()
			return nil, err
		}
		for {
			rec, err := accIt.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = it.ctx.check()
			}
			if err == nil {
				err = decodeRowInto(probeRow, rec)
			}
			if err != nil {
				accIt.Close()
				next.Close()
				return nil, err
			}
			kb = kb[:0]
			for _, n := range path[:shared] {
				kb = binary.BigEndian.AppendUint32(kb, probeRow[n].In)
			}
			for _, s := range index[string(kb)] {
				copy(combined, probeRow)
				for li := shared; li < len(path); li++ {
					combined[path[li]] = s[li]
				}
				it.scratch = appendRow(it.scratch[:0], combined)
				if err := next.Append(it.scratch); err != nil {
					accIt.Close()
					next.Close()
					return nil, err
				}
			}
		}
		accIt.Close()
	}
	return next, nil
}

// finalize streams the accumulated full matches through the residual
// conditions into an external sort on the OutOrder in-labels, from which
// NextBatch decodes rows. With an empty OutOrder the stable sort preserves
// the accumulation order (the emission order is unspecified anyway).
func (it *twigJoinIter) finalize() error {
	j := it.j
	it.keyLen = 4 * len(j.outSlots)
	keyLen := it.keyLen
	sorter := recfile.NewSorter(it.ctx.TempDir, func(a, b []byte) int {
		return bytes.Compare(a[:keyLen], b[:keyLen])
	}, it.ctx.SortBudget)
	sorter.SetGovernor(it.ctx.Budget)
	sorter.SetHook(it.ctx.FaultHook)
	it.sorter = sorter

	accIt, err := it.acc.Iter()
	if err != nil {
		return err
	}
	row := make(Row, len(j.Twig.Nodes))
	var rec []byte
	for {
		r, err := accIt.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = it.ctx.check()
		}
		if err == nil {
			err = decodeRowInto(row, r)
		}
		if err != nil {
			accIt.Close()
			return err
		}
		if len(j.Conds) > 0 {
			pass, err := j.compiled.eval(row, it.ctx.Env)
			if err != nil {
				accIt.Close()
				return err
			}
			if !pass {
				continue
			}
		}
		rec = rec[:0]
		for _, s := range j.outSlots {
			rec = binary.BigEndian.AppendUint32(rec, row[s].In)
		}
		rec = appendRow(rec, row)
		if err := sorter.Add(rec); err != nil {
			// A failed Add already removed the sorter's run files.
			it.sorter = nil
			accIt.Close()
			return err
		}
	}
	accIt.Close()
	it.closeBuf(it.acc)
	it.acc = nil
	sorted, err := sorter.Sort()
	if err != nil {
		it.sorter = nil
		return err
	}
	st := sorter.Stats()
	it.ctx.Counters.SpilledBytes += st.Spilled
	it.ctx.Counters.SpillRuns += int64(st.Runs)
	it.st.SpilledBytes += st.Spilled
	it.st.SpillRuns += int64(st.Runs)
	it.sorter = nil // run files now owned by the sorted iterator
	it.sorted = sorted
	return nil
}

func (it *twigJoinIter) NextBatch(b *Batch) (int, error) {
	capRows := b.reset(it.ctx, len(it.j.Twig.Nodes))
	if !it.ran {
		it.ran = true
		if err := it.run(); err != nil {
			return 0, err
		}
		it.rowbuf = make(Row, len(it.j.Twig.Nodes))
	}
	if it.sorted == nil {
		return 0, nil
	}
	for b.n < capRows {
		rec, err := it.sorted.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if err := decodeRowInto(it.rowbuf, rec[it.keyLen:]); err != nil {
			return 0, err
		}
		b.appendRow(it.rowbuf)
	}
	it.ctx.Counters.RowsTwig += int64(b.n)
	return it.ctx.produced(it.st, b.n), nil
}

func (it *twigJoinIter) Close() error {
	var first error
	for _, s := range it.its {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for pi, sb := range it.sols {
		if sb != nil {
			it.closeBuf(sb)
			it.sols[pi] = nil
		}
	}
	if it.acc != nil {
		it.closeBuf(it.acc)
		it.acc = nil
	}
	if it.sorter != nil {
		it.sorter.Abort()
		it.sorter = nil
	}
	if it.sorted != nil {
		it.sorted.Close()
		it.sorted = nil
	}
	return first
}
