package core

import (
	"sort"

	"xqdb/internal/store"
	"xqdb/internal/xasr"
	"xqdb/internal/xq"
)

// UpdateResult reports what an update statement did.
type UpdateResult struct {
	// Targets is how many nodes the target path selected.
	Targets int
	// Applied is how many subtree operations were actually performed
	// (nested targets consumed by an enclosing delete are skipped). It is
	// 0 when the statement aborts; after a Commit error it still counts
	// the operations, which may be durable.
	Applied int
	// Seq is the store's applied-update sequence after this statement;
	// unchanged when the statement was a no-op.
	Seq uint64
}

// Update parses and applies one update statement. The whole statement is
// one atomic store transaction: either every selected target is updated
// and the change is durable, or the store is unchanged. Concurrent
// updates return store.ErrBusy; callers serialize.
func (e *Engine) Update(src string) (UpdateResult, error) {
	u, err := xq.ParseUpdate(src)
	if err != nil {
		return UpdateResult{}, err
	}
	return e.UpdateParsed(u)
}

// UpdateParsed applies an already-parsed update statement.
func (e *Engine) UpdateParsed(u *xq.Update) (UpdateResult, error) {
	// Begin first: it excludes queries AND other updates, so the target
	// set resolved below cannot be invalidated before it is applied.
	tx, err := e.st.Begin()
	if err != nil {
		return UpdateResult{Seq: e.st.AppliedSeq()}, err
	}
	targets, err := e.resolveTargets(u.Path)
	if err != nil {
		tx.Abort()
		return UpdateResult{Seq: e.st.AppliedSeq()}, err
	}
	res := UpdateResult{Targets: len(targets), Seq: e.st.AppliedSeq()}
	if len(targets) == 0 {
		tx.Abort()
		return res, nil
	}
	switch u.Kind {
	case xq.UInsert:
		pos := store.InsertInto
		switch u.Where {
		case xq.Before:
			pos = store.InsertBefore
		case xq.After:
			pos = store.InsertAfter
		}
		// Doc order; Translate maps labels moved by an earlier relabel.
		for _, t := range targets {
			if err = tx.InsertSubtree(tx.Translate(t.In), pos, u.FragXML); err != nil {
				break
			}
			res.Applied++
		}
	case xq.UDelete, xq.UReplace:
		// Reverse doc order, so a nested target is handled before any
		// enclosing one; a target that vanished inside an already-deleted
		// subtree is skipped, not an error.
		for i := len(targets) - 1; i >= 0; i-- {
			opErr := error(nil)
			in := tx.Translate(targets[i].In)
			if u.Kind == xq.UDelete {
				opErr = tx.DeleteSubtree(in)
			} else {
				opErr = tx.ReplaceSubtree(in, u.FragXML)
			}
			if opErr == store.ErrNoNode {
				continue
			}
			if opErr != nil {
				err = opErr
				break
			}
			res.Applied++
		}
	}
	if err != nil {
		// The abort rolls back the targets already done: none is applied.
		tx.Abort()
		res.Applied = 0
		return res, err
	}
	err = tx.Commit()
	// The stored tree may have changed even when Commit reports an error
	// (a post-durability fault): drop the cached M1 DOM unconditionally.
	e.domMu.Lock()
	e.domRoot = nil
	e.domMu.Unlock()
	res.Seq = e.st.AppliedSeq()
	return res, err
}

// resolveTargets walks the target path over the stored tree and returns
// the selected tuples in document order.
func (e *Engine) resolveTargets(path []xq.PathStep) ([]xasr.Tuple, error) {
	root, err := e.st.Root()
	if err != nil {
		return nil, err
	}
	cur := []xasr.Tuple{root}
	for _, stp := range path {
		seen := make(map[uint32]struct{})
		var next []xasr.Tuple
		add := func(t xasr.Tuple) bool {
			if !matchesTest(stp.Test, t) {
				return true
			}
			if _, dup := seen[t.In]; dup {
				return true
			}
			seen[t.In] = struct{}{}
			next = append(next, t)
			return true
		}
		for _, n := range cur {
			if stp.Axis == xq.Descendant {
				err = e.st.ScanDescendants(n.In, n.Out, add)
			} else {
				err = e.st.ScanChildren(n.In, add)
			}
			if err != nil {
				return nil, err
			}
		}
		// Nested context nodes can interleave each other's results.
		sort.Slice(next, func(i, j int) bool { return next[i].In < next[j].In })
		cur = next
	}
	return cur, nil
}

func matchesTest(t xq.NodeTest, tp xasr.Tuple) bool {
	switch t.Kind {
	case xq.TestLabel:
		return tp.Type == xasr.TypeElem && tp.Value == t.Label
	case xq.TestStar:
		return tp.Type == xasr.TypeElem
	case xq.TestText:
		return tp.Type == xasr.TypeText
	}
	return false
}
