package store

import "xqdb/internal/xasr"

// recomputeStats rebuilds the document statistics and the text-hash
// multisets from a single primary-tree scan, mirroring exactly what the
// shredder would collect for the document in its current state. Open uses
// it when the stats file's AppliedSeq stamp does not match the WAL: the
// page data is authoritative after redo, while commits never rewrite the
// stats file, so after a crash it lags by every unit since the last Load
// or clean Close.
func (s *Store) recomputeStats(lastSeq uint64) error {
	stats := &xasr.Stats{LabelCount: map[string]int64{}, LabelSubtreeSum: map[string]int64{}}
	texts := xasr.TextHashes{}
	type open struct {
		out    uint32
		label  string
		fanout int32
		seenAt int64
		isElem bool
	}
	var stack []open
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.fanout > stats.MaxFanout {
			stats.MaxFanout = top.fanout
		}
		if top.isElem {
			stats.LabelSubtreeSum[top.label] += stats.Nodes - top.seenAt
		}
	}
	err := s.ScanAll(func(t xasr.Tuple) bool {
		for len(stack) > 0 && stack[len(stack)-1].out < t.In {
			pop()
		}
		if len(stack) > 0 {
			stack[len(stack)-1].fanout++
		}
		stats.Nodes++
		d := int32(len(stack)) // number of ancestors, root included
		stats.SumDepth += int64(d)
		if d > stats.MaxDepth {
			stats.MaxDepth = d
		}
		switch t.Type {
		case xasr.TypeRoot:
			stats.MaxIn = t.Out
			stack = append(stack, open{out: t.Out, seenAt: stats.Nodes})
		case xasr.TypeElem:
			stats.Elems++
			stats.LabelCount[t.Value]++
			stack = append(stack, open{out: t.Out, label: t.Value, seenAt: stats.Nodes, isElem: true})
		case xasr.TypeText:
			stats.Texts++
			if top := &stack[len(stack)-1]; top.isElem {
				texts.Add(top.label, t.Value)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for len(stack) > 0 {
		pop()
	}
	stats.LabelDistinctTexts = texts.Distinct()
	s.stats.Store(stats)
	s.textHashes = texts
	s.appliedSeq.Store(lastSeq)
	s.maxIn.Store(stats.MaxIn)
	return nil
}
