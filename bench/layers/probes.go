package layers

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"xqdb/internal/btree"
	"xqdb/internal/core"
	"xqdb/internal/pager"
	"xqdb/internal/store"
	"xqdb/internal/wal"
	"xqdb/internal/xasr"
	"xqdb/internal/xmltok"
	"xqdb/internal/xq"
)

// probeSeed fixes the probes' random choices; the inputs they choose from
// already vary with the run's seed.
const probeSeed = 12

// millions returns n per second in millions: MB/s for bytes, M/s for
// tuples, entries and keys.
func millions(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

// storeProbes times the load path, the three store cursors, point access,
// serialization and the update transaction on a private store holding the
// workload's update document.
func storeProbes(dir string, xml []byte, cycle []string, scale int, tr *Trace, res *Result) error {
	v := res.Values

	// Load path, bottom up: tokenizer only, shredder with a no-op emit,
	// then the whole Store.Load.
	id := tr.Begin("xmltok.tokenize", -1, -1)
	tz := xmltok.New(bytes.NewReader(xml))
	for {
		if _, err := tz.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	v["xmltok.tokenize_mbps"] = millions(len(xml), tr.End(id))

	id = tr.Begin("xasr.shred", -1, -1)
	if _, err := xasr.Shred(xmltok.New(bytes.NewReader(xml)), func(xasr.Tuple) error { return nil }); err != nil {
		return err
	}
	v["xasr.shred_mbps"] = millions(len(xml), tr.End(id))

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	id = tr.Begin("store.load", -1, -1)
	if err := st.Load(bytes.NewReader(xml)); err != nil {
		return err
	}
	v["store.load_mbps"] = millions(len(xml), tr.End(id))

	// Cursors: the whole primary tree, then the label index for "author".
	var elems []uint32 // element nodes, the population for point probes
	batch := make([]xasr.Tuple, 256)
	tuples := 0
	id = tr.Begin("store.scan", -1, -1)
	tc, err := st.OpenRange(0, 0)
	if err != nil {
		return err
	}
	for {
		n, err := tc.NextBatch(batch)
		if err != nil {
			tc.Close()
			return err
		}
		if n == 0 {
			break
		}
		tuples += n
		for _, t := range batch[:n] {
			if t.Type == xasr.TypeElem {
				elems = append(elems, t.In)
			}
		}
	}
	tc.Close()
	v["store.scan_mtuples_s"] = millions(tuples, tr.End(id))

	entries := make([]store.LabelEntry, 256)
	nAuthors := 0
	id = tr.Begin("store.label_scan", -1, -1)
	lc, err := st.OpenLabelRange(xasr.TypeElem, "author", 0, 0)
	if err != nil {
		return err
	}
	for {
		n, err := lc.NextBatch(entries)
		if err != nil {
			lc.Close()
			return err
		}
		if n == 0 {
			break
		}
		nAuthors += n
	}
	lc.Close()
	v["store.label_scan_mentries_s"] = millions(nAuthors, tr.End(id))
	if len(elems) == 0 || nAuthors == 0 {
		return errors.New("the update document has no author elements to probe")
	}

	// Point access on seeded random elements.
	rng := rand.New(rand.NewSource(probeSeed))
	probes := 2000 / scale
	s := samples{}
	for i := 0; i < probes; i++ {
		in := elems[rng.Intn(len(elems))]
		id = tr.Begin("store.child_probe", -1, -1)
		cc, err := st.OpenChildren(in)
		if err != nil {
			return err
		}
		for {
			n, err := cc.NextBatch(batch)
			if err != nil {
				cc.Close()
				return err
			}
			if n == 0 {
				break
			}
		}
		cc.Close()
		s.add("child", tr.End(id))
	}
	v["store.child_probe_us"] = s.medianOf("child", time.Microsecond)
	read0 := st.PagerStats().PagesRead
	for i := 0; i < probes; i++ {
		in := elems[rng.Intn(len(elems))]
		id = tr.Begin("store.lookup", -1, -1)
		_, ok, err := st.Lookup(in)
		s.add("lookup", tr.End(id))
		if err != nil || !ok {
			return fmt.Errorf("lookup of node %d: found=%v err=%v", in, ok, err)
		}
	}
	v["store.lookup_us"] = s.medianOf("lookup", time.Microsecond)
	v["store.lookup_pages"] = float64(st.PagerStats().PagesRead-read0) / float64(probes)

	// Serialization: every inproceedings subtree.
	var roots []uint32
	if err := st.ScanLabel(xasr.TypeElem, "inproceedings", func(e store.LabelEntry) bool {
		roots = append(roots, e.In)
		return true
	}); err != nil {
		return err
	}
	var out []byte
	serialized := 0
	id = tr.Begin("store.serialize", -1, -1)
	for _, in := range roots {
		if out, err = st.AppendSubtree(out[:0], in); err != nil {
			return err
		}
		serialized += len(out)
	}
	v["store.serialize_mbps"] = millions(serialized, tr.End(id))

	return txProbe(st, cycle, tr, res)
}

// txProbe runs the update cycle three times through the store's
// transaction entry points, one span each for Begin, the subtree
// operations and Commit. resolveTargets and apply below repeat what
// core.Engine does inside one call, so the cycle first runs once through
// core.Engine.Update, and every probed statement must select and apply as
// many nodes as core did and the cycles must restore the document: a
// replica that drifts from the engine fails the run.
func txProbe(st *store.Store, cycle []string, tr *Trace, res *Result) error {
	before, err := st.AppendSubtree(nil, store.RootIn)
	if err != nil {
		return err
	}
	eng := core.New(st, core.Config{Mode: core.ModeM4})
	want := make([]core.UpdateResult, len(cycle))
	for i, src := range cycle {
		if want[i], err = eng.Update(src); err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
	}
	s := samples{}
	logPos := func() int64 { return int64(st.LastCheckpointLSN()) + st.WALBytes() }
	wal0 := logPos()
	stmts := 0
	for round := 0; round < 3; round++ {
		for i, src := range cycle {
			u, err := xq.ParseUpdate(src)
			if err != nil {
				return err
			}
			top := tr.Begin("store.tx", -1, -1)
			id := tr.Begin("store.tx_begin", top, -1)
			tx, err := st.Begin()
			s.add("begin", tr.End(id))
			if err != nil {
				return err
			}
			targets, err := resolveTargets(st, u.Path)
			if err != nil {
				tx.Abort()
				return err
			}
			if len(targets) == 0 {
				tx.Abort()
				tr.End(top)
				res.check(want[i].Targets == 0, "transaction probe: %s selected no node, core.Engine %d", src, want[i].Targets)
				continue
			}
			id = tr.Begin("store.tx_apply", top, -1)
			applied, err := apply(tx, u, targets)
			s.add("apply", tr.End(id))
			if err != nil {
				tx.Abort()
				return fmt.Errorf("%s: %w", src, err)
			}
			res.check(len(targets) == want[i].Targets && applied == want[i].Applied,
				"transaction probe: %s selected %d and applied %d, core.Engine %d and %d", src, len(targets), applied, want[i].Targets, want[i].Applied)
			id = tr.Begin("store.tx_commit", top, -1)
			err = tx.Commit()
			s.add("commit", tr.End(id))
			if err != nil {
				return fmt.Errorf("%s: commit: %w", src, err)
			}
			s.add("stmt", tr.End(top))
			stmts++
		}
	}
	after, err := st.AppendSubtree(nil, store.RootIn)
	if err != nil {
		return err
	}
	res.check(bytes.Equal(before, after), "transaction probe: the update cycle did not restore the document")
	v := res.Values
	v["store.tx_begin_us"] = s.medianOf("begin", time.Microsecond)
	v["store.tx_apply_us"] = s.medianOf("apply", time.Microsecond)
	v["store.tx_commit_us"] = s.medianOf("commit", time.Microsecond)
	v["wal.bytes_per_stmt"] = ratio(logPos()-wal0, int64(stmts))
	v["wal.fsync_share"] = float64(s.sum("commit")) / float64(max(s.sum("stmt"), 1))
	res.Samples["tx.statements"] = stmts
	return nil
}

// resolveTargets walks a rooted child path and returns the selected nodes
// in document order (the update script uses child steps with label tests
// only).
func resolveTargets(st *store.Store, path []xq.PathStep) ([]xasr.Tuple, error) {
	root, err := st.Root()
	if err != nil {
		return nil, err
	}
	cur := []xasr.Tuple{root}
	for _, step := range path {
		if step.Axis != xq.Child || step.Test.Kind != xq.TestLabel {
			return nil, fmt.Errorf("transaction probe handles child steps with label tests, not %v", step)
		}
		var next []xasr.Tuple
		for _, n := range cur {
			err := st.ScanChildren(n.In, func(t xasr.Tuple) bool {
				if t.Type == xasr.TypeElem && t.Value == step.Test.Label {
					next = append(next, t)
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		cur = next
	}
	return cur, nil
}

// apply performs the statement's subtree operations as core.Engine does:
// inserts in document order, deletes and replaces in reverse, each target
// translated through the transaction's relabeling map. It returns how many
// subtree operations were performed.
func apply(tx *store.Tx, u *xq.Update, targets []xasr.Tuple) (applied int, err error) {
	if u.Kind == xq.UInsert {
		pos := store.InsertInto
		switch u.Where {
		case xq.Before:
			pos = store.InsertBefore
		case xq.After:
			pos = store.InsertAfter
		}
		for _, t := range targets {
			if err := tx.InsertSubtree(tx.Translate(t.In), pos, u.FragXML); err != nil {
				return applied, err
			}
			applied++
		}
		return applied, nil
	}
	for i := len(targets) - 1; i >= 0; i-- {
		in := tx.Translate(targets[i].In)
		if u.Kind == xq.UDelete {
			err = tx.DeleteSubtree(in)
		} else {
			err = tx.ReplaceSubtree(in, u.FragXML)
		}
		if errors.Is(err, store.ErrNoNode) {
			continue // consumed by an enclosing target
		}
		if err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// fileProbes times btree, pager and wal on files of their own.
func fileProbes(dir string, scale int, tr *Trace, res *Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := btreeProbe(filepath.Join(dir, "btree.pages"), scale, tr, res); err != nil {
		return fmt.Errorf("btree: %w", err)
	}
	if err := pagerProbe(filepath.Join(dir, "pager.pages"), scale, tr, res); err != nil {
		return fmt.Errorf("pager: %w", err)
	}
	if err := walProbe(filepath.Join(dir, "probe.wal"), tr, res); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// btreeProbe uses 200 000 synthetic 8-byte keys (even numbers; odd ones
// are inserted afterwards) with 16-byte values, about the size of an XASR
// index entry.
func btreeProbe(path string, scale int, tr *Trace, res *Result) error {
	keys := 200_000 / scale
	pg, err := pager.Open(path, pager.Options{})
	if err != nil {
		return err
	}
	defer pg.Close()
	key := func(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }
	val := make([]byte, 16)
	v := res.Values

	i := 0
	id := tr.Begin("btree.bulkload", -1, -1)
	tree, err := btree.BulkLoad(pg, func() ([]byte, []byte, bool, error) {
		if i == keys {
			return nil, nil, false, nil
		}
		i++
		return key(2 * i), val, true, nil
	})
	if err != nil {
		return err
	}
	v["btree.bulkload_mkeys_s"] = millions(keys, tr.End(id))

	rng := rand.New(rand.NewSource(probeSeed))
	s := samples{}
	for n := 0; n < keys/10; n++ {
		k := key(2 * (1 + rng.Intn(keys)))
		id = tr.Begin("btree.get", -1, -1)
		_, ok, err := tree.Get(k)
		s.add("get", tr.End(id))
		if err != nil || !ok {
			return fmt.Errorf("get: found=%v err=%v", ok, err)
		}
	}
	v["btree.get_us"] = s.medianOf("get", time.Microsecond)

	decoded := 0
	id = tr.Begin("btree.leaf_decode", -1, -1)
	bc := tree.SeekBatchRange(nil, nil)
	for {
		more, err := bc.NextLeaf(func(k, v []byte) { decoded++ })
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	d := tr.End(id)
	if decoded != keys {
		return fmt.Errorf("leaf scan saw %d of %d keys", decoded, keys)
	}
	v["btree.leaf_decode_mentries_s"] = millions(decoded, d)

	for n := 0; n < keys/10; n++ {
		k := key(2*(1+rng.Intn(keys)) + 1)
		id = tr.Begin("btree.insert", -1, -1)
		err := tree.Insert(k, val)
		s.add("insert", tr.End(id))
		if err != nil {
			return err
		}
	}
	v["btree.insert_us"] = s.medianOf("insert", time.Microsecond)
	return nil
}

// pagerProbe builds a file eight times the default pool and reads it two
// ways: a few resident pages over and over (hits), and every page once in
// seeded random order, twice (nearly all misses; the time is charged to
// the misses the pager counted).
func pagerProbe(path string, scale int, tr *Trace, res *Result) error {
	pg, err := pager.Open(path, pager.Options{})
	if err != nil {
		return err
	}
	defer pg.Close()
	pages := 8 * pager.DefaultCacheFrames / scale
	ids := make([]pager.PageID, 0, pages)
	for i := 0; i < pages; i++ {
		p, err := pg.Allocate()
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p.Data(), uint64(i))
		p.MarkDirty()
		ids = append(ids, p.ID)
		p.Unpin()
	}
	if err := pg.Flush(); err != nil {
		return err
	}

	const hot, batch = 64, 1024
	batches := 200 / scale
	for _, id := range ids[:hot] { // make them resident
		p, err := pg.Read(id)
		if err != nil {
			return err
		}
		p.Unpin()
	}
	s := samples{}
	for b := 0; b < batches; b++ {
		id := tr.Begin("pager.read_hit", -1, -1)
		for i := 0; i < batch; i++ {
			p, err := pg.Read(ids[i%hot])
			if err != nil {
				return err
			}
			p.Unpin()
		}
		s.add("hit", tr.EndN(id, batch))
	}
	res.Values["pager.read_hit_ns"] = s.medianOf("hit", time.Nanosecond)

	rng := rand.New(rand.NewSource(probeSeed))
	miss0 := pg.Stats().CacheMisses
	id := tr.Begin("pager.read_miss", -1, -1)
	for sweep := 0; sweep < 2; sweep++ {
		for _, i := range rng.Perm(pages) {
			p, err := pg.Read(ids[i])
			if err != nil {
				return err
			}
			p.Unpin()
		}
	}
	d := tr.End(id)
	misses := pg.Stats().CacheMisses - miss0
	tr.spans[id].N = int(misses)
	res.Values["pager.read_miss_us"] = float64(d) / float64(time.Microsecond) / float64(max(misses, 1))
	return nil
}

// walProbe appends 4 KiB page images (buffering and checksumming, no
// I/O), then times the group flush of a small commit (four pages and a
// commit record, written and fsynced) and the checkpoint that compacts the
// log.
func walProbe(path string, tr *Trace, res *Result) error {
	log, err := wal.Open(path, nil)
	if err != nil {
		return err
	}
	defer log.Close()
	image := make([]byte, pager.DefaultPageSize)
	for i := range image {
		image[i] = byte(i * 31)
	}
	s := samples{}
	const batches, batch = 16, 256
	for b := 0; b < batches; b++ {
		id := tr.Begin("wal.append", -1, -1)
		for i := 0; i < batch; i++ {
			if _, err := log.AppendPage(uint32(i), image); err != nil {
				return err
			}
		}
		s.add("append", tr.EndN(id, batch))
		log.DropBuffer()
	}
	res.Values["wal.append_mbps"] = float64(len(image)) / s.medianOf("append", time.Microsecond)

	seq := uint64(0)
	for round := 0; round < 5; round++ {
		for c := 0; c < 20; c++ {
			for p := 0; p < 4; p++ {
				if _, err := log.AppendPage(uint32(p), image); err != nil {
					return err
				}
			}
			seq++
			if _, err := log.AppendCommit(seq); err != nil {
				return err
			}
			id := tr.Begin("wal.flush", -1, -1)
			err := log.Flush()
			s.add("flush", tr.End(id))
			if err != nil {
				return err
			}
		}
		id := tr.Begin("wal.checkpoint", -1, -1)
		err := log.Checkpoint(seq)
		s.add("checkpoint", tr.End(id))
		if err != nil {
			return err
		}
	}
	res.Values["wal.flush_ms"] = s.medianOf("flush", time.Millisecond)
	res.Values["wal.checkpoint_ms"] = s.medianOf("checkpoint", time.Millisecond)
	return nil
}
