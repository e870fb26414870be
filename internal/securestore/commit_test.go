package securestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
)

// pathOracle is the tree maintenance Commit used before it walked the dirty
// set: one leaf-to-root walk per written leaf, every node of every level
// visited on the way, one freshly keyed HMAC per recomputed node. It is kept
// as the reference the dirty-set algorithm is compared with, node for node
// and tag for tag.
type pathOracle struct {
	s      *Store // keys only
	levels [][][]byte
}

func (o *pathOracle) updatePath(idx int) {
	lvl := 1
	for len(o.levels[lvl-1]) > 1 {
		below := o.levels[lvl-1]
		want := (len(below) + arity - 1) / arity
		if lvl >= len(o.levels) {
			o.levels = append(o.levels, make([][]byte, want))
		} else if len(o.levels[lvl]) != want {
			grown := make([][]byte, want)
			copy(grown, o.levels[lvl])
			if len(o.levels[lvl]) > want {
				grown = grown[:want]
			}
			o.levels[lvl] = grown
		}
		idx /= arity
		for i := range o.levels[lvl] {
			if o.levels[lvl][i] == nil || i == idx {
				clo, chi := i*arity, i*arity+arity
				if chi > len(below) {
					chi = len(below)
				}
				o.levels[lvl][i] = o.s.hashNode(lvl, i, below[clo:chi])
			}
		}
		lvl++
	}
	o.levels = o.levels[:lvl]
}

// commit applies one commit's leaves the way the old Commit did.
func (o *pathOracle) commit(oldN, newN uint32, entries []uint32, leaves [][]byte) {
	if int(newN) > len(o.levels[0]) {
		grown := make([][]byte, newN)
		copy(grown, o.levels[0])
		o.levels[0] = grown
	}
	for _, idx := range entries {
		o.levels[0][idx] = bytes.Clone(leaves[idx])
	}
	if newN > oldN && oldN > 0 {
		o.updatePath(int(oldN) - 1)
	}
	for _, idx := range entries {
		o.updatePath(int(idx))
	}
}

// tag is rootTag over the oracle's tree.
func (o *pathOracle) tag(n uint32, seq uint64) []byte {
	ref := &Store{treeKey: o.s.treeKey, rootKey: o.s.rootKey, levels: o.levels, nextAlloc: n, seq: seq}
	return ref.rootTag()
}

func sameLevels(a, b [][][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d levels, want %d", len(a), len(b))
	}
	for l := range a {
		if len(a[l]) != len(b[l]) {
			return fmt.Errorf("level %d has %d nodes, want %d", l, len(a[l]), len(b[l]))
		}
		for i := range a[l] {
			if !bytes.Equal(a[l][i], b[l][i]) {
				return fmt.Errorf("node (%d,%d) differs", l, i)
			}
		}
	}
	return nil
}

// treeCommit is one step of the differential sequence: the pages a
// transaction writes, how many fresh pages it allocates and which of those it
// leaves unwritten (gap-fill seals them), and how many pages a transaction
// aborted just before it had reserved.
type treeCommit struct {
	name       string
	overwrite  func(r *rand.Rand, n int) []uint32
	allocate   int
	skipWrites bool
	abortFirst int
}

func treeCommitScript() []treeCommit {
	some := func(k int) func(*rand.Rand, int) []uint32 {
		return func(r *rand.Rand, n int) []uint32 {
			var out []uint32
			for _, i := range r.Perm(n)[:min(k, n)] {
				out = append(out, uint32(i))
			}
			return out
		}
	}
	run := func(k int) func(*rand.Rand, int) []uint32 {
		return func(r *rand.Rand, n int) []uint32 {
			k := min(k, n)
			lo := r.Intn(n - k + 1)
			out := make([]uint32, k)
			for i := range out {
				out[i] = uint32(lo + i)
			}
			return out
		}
	}
	return []treeCommit{
		{name: "first page", allocate: 1},
		{name: "second page", allocate: 1},
		{name: "single overwrite", overwrite: some(1)},
		{name: "grow across the second level by one", allocate: 1},
		{name: "grow with every new page unwritten", allocate: 3, skipWrites: true},
		{name: "single overwrite after growth", overwrite: some(1)},
		{name: "grow across the third level", allocate: 3},
		{name: "dense run", overwrite: run(5)},
		{name: "sparse set", overwrite: some(5)},
		{name: "aborted reservation then growth", abortFirst: 3, allocate: 2},
		{name: "overwrite beside growth", overwrite: some(3), allocate: 1},
		{name: "tail overwrite", overwrite: func(_ *rand.Rand, n int) []uint32 { return []uint32{uint32(n - 1)} }},
		{name: "grow across the fourth level", allocate: 8},
		{name: "sparse set in the grown tree", overwrite: some(9)},
		{name: "grow across the fifth level, new pages unwritten", allocate: 13, skipWrites: true},
		{name: "dense run across the fifth level", overwrite: run(17)},
		{name: "whole store", overwrite: run(1 << 20)},
		{name: "one more page", allocate: 1},
		{name: "single overwrite at the end", overwrite: some(1)},
	}
}

// TestCommitTreeMatchesPathOracle drives a seeded sequence of commits — single
// pages, dense runs, sparse sets, growth across five level boundaries with
// gap-fill, an aborted reservation in between — and after each one demands
// that every level equals a from-scratch rebuild over the leaves and the path
// oracle's tree, that the anchored tag is the oracle's, that MerkleHashes was
// charged the number of distinct ancestors, and that a read of the whole
// store still passes.
func TestCommitTreeMatchesPathOracle(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("arity%d/seed%d", arity, seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dev := pager.NewMemDevice()
			var m simtime.Meter
			anchor := &memAnchor{}
			s, err := OpenWith(dev, staticKeys{}, anchor, &m)
			if err != nil {
				t.Fatal(err)
			}
			oracle := &pathOracle{s: s, levels: [][][]byte{nil}}
			for step, c := range treeCommitScript() {
				oldN := s.NumPages()
				if c.abortFirst > 0 {
					dead := s.Begin()
					for i := 0; i < c.abortFirst; i++ {
						dead.Allocate()
					}
					dead.Abort()
				}
				txn := s.Begin()
				written := map[uint32]bool{}
				page := func(idx uint32) []byte {
					return bytes.Repeat([]byte{byte(step), byte(idx)}, 64)
				}
				if c.overwrite != nil {
					for _, idx := range c.overwrite(r, int(oldN)) {
						if err := txn.WritePage(idx, page(idx)); err != nil {
							t.Fatal(err)
						}
						written[idx] = true
					}
				}
				maxIdx := uint32(0)
				for i := 0; i < c.allocate; i++ {
					idx, err := txn.Allocate()
					if err != nil {
						t.Fatal(err)
					}
					maxIdx = idx
					if !c.skipWrites {
						if err := txn.WritePage(idx, page(idx)); err != nil {
							t.Fatal(err)
						}
						written[idx] = true
					}
				}
				newN := max(oldN, maxIdx+1)
				// The commit's entries: what it wrote, and everything in
				// [oldN, newN) — staged, or sealed by gap-fill.
				entries := make([]uint32, 0, len(written))
				for idx := range written {
					if idx < oldN {
						entries = append(entries, idx)
					}
				}
				for idx := oldN; idx < newN; idx++ {
					entries = append(entries, idx)
				}
				slices.Sort(entries)

				before := m.MerkleHashes.Load()
				if err := txn.Commit(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				charged := m.MerkleHashes.Load() - before
				if got := s.NumPages(); got != newN {
					t.Fatalf("%s: %d pages, want %d", c.name, got, newN)
				}

				// Every rewritten leaf is the leaf MAC of the record on
				// the medium.
				for _, idx := range entries {
					rec, err := dev.ReadBlock(idx)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(s.levels[0][idx], leafMAC(s.treeMAC(), nil, idx, rec[len(rec)-macSize:])) {
						t.Fatalf("%s: leaf %d is not the MAC of its record", c.name, idx)
					}
				}
				rebuilt := &Store{treeKey: s.treeKey}
				rebuilt.rebuildLevels(slices.Clone(s.levels[0]))
				if err := sameLevels(s.levels, rebuilt.levels); err != nil {
					t.Fatalf("%s: against rebuildLevels: %v", c.name, err)
				}
				oracle.commit(oldN, newN, entries, s.levels[0])
				if err := sameLevels(s.levels, oracle.levels); err != nil {
					t.Fatalf("%s: against the path oracle: %v", c.name, err)
				}
				if want := oracle.tag(newN, s.Seq()); !bytes.Equal(anchor.tag, want) {
					t.Fatalf("%s: anchored tag differs from the path oracle's", c.name)
				}

				// Distinct ancestors of the dirty leaves, the old tail
				// leaf among them when the store grew.
				dirty := slices.Clone(entries)
				if newN > oldN && oldN > 0 {
					dirty = append(dirty, oldN-1)
				}
				ancestors := map[[2]int]bool{}
				for _, idx := range dirty {
					i := int(idx)
					for lvl := 1; lvl < len(s.levels); lvl++ {
						i /= arity
						ancestors[[2]int{lvl, i}] = true
					}
				}
				if int(charged) != len(ancestors) {
					t.Fatalf("%s: commit charged %d Merkle hashes, %d distinct ancestors", c.name, charged, len(ancestors))
				}

				// Reads verify against the maintained tree.
				all := seq32(int(newN))
				r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				pages, err := s.ReadPages(all)
				if err != nil {
					t.Fatalf("%s: batched read after commit: %v", c.name, err)
				}
				for k, idx := range all {
					if written[idx] && !bytes.HasPrefix(pages[k], page(idx)) {
						t.Fatalf("%s: page %d reads back other bytes", c.name, idx)
					}
				}
				if _, err := s.ReadPage(uint32(r.Intn(int(newN)))); err != nil {
					t.Fatalf("%s: read after commit: %v", c.name, err)
				}
			}
			// The script grew the tree through five levels above its
			// leaves.
			if len(s.levels) < 6 {
				t.Fatalf("the script grew the tree to %d levels, want 6 or more", len(s.levels))
			}
			// The medium reopens to the same tree: what was maintained
			// incrementally is what a load rebuilds.
			s2, err := OpenWith(dev, staticKeys{}, anchor, &m)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if err := sameLevels(s2.levels, s.levels); err != nil {
				t.Fatalf("reopened tree: %v", err)
			}
		})
	}
}

// commitPages overwrites k consecutive pages starting at lo in one commit.
func commitPages(s *Store, page []byte, lo, k int) error {
	txn := s.Begin()
	for i := 0; i < k; i++ {
		if err := txn.WritePage(uint32(lo+i), page); err != nil {
			return err
		}
	}
	return txn.Commit()
}

// BenchmarkCommit is one commit of 1 and of 256 pages into stores of 1 k and
// 16 k pages: seal, journal record, tree maintenance, in-place writes, anchor.
// ns/op, B/op and allocs/op of a row must not depend on the store's size
// beyond the tree's depth.
func BenchmarkCommit(b *testing.B) {
	page := bytes.Repeat([]byte{0x5c}, pager.PageSize)
	for _, n := range []int{1 << 10, 1 << 14} {
		for _, k := range []int{1, 256} {
			b.Run(fmt.Sprintf("store%d/pages%d", n, k), func(b *testing.B) {
				s, _ := benchStore(b, n)
				b.SetBytes(int64(k) * pager.PageSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := commitPages(s, page, (i*k)%(n-k+1), k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCommitCostIndependentOfStoreSize is the gate behind BenchmarkCommit: a
// one-page commit into a store sixteen times larger allocates the same bytes
// to within a tenth, and a commit that grows the store by a page does not
// copy a level.
func TestCommitCostIndependentOfStoreSize(t *testing.T) {
	page := bytes.Repeat([]byte{0x5c}, pager.PageSize)
	var perCommit [2]uint64
	for k, n := range []int{1 << 9, 1 << 13} {
		dev := pager.NewMemDevice()
		var m simtime.Meter
		s, err := OpenWith(dev, staticKeys{}, &memAnchor{}, &m)
		if err != nil {
			t.Fatal(err)
		}
		txn := s.Begin()
		for i := 0; i < n; i++ {
			txn.Allocate()
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		i := 0
		perCommit[k] = allocatedBytes(20, func() {
			if err := commitPages(s, page, (i*37)%n, 1); err != nil {
				t.Fatal(err)
			}
			i++
		})
		// Growth: one fresh page per commit. Appending to a level reallocates
		// it now and then, amortized; copying all of them every commit would
		// cost 2·n·24 bytes each time.
		grow := allocatedBytes(20, func() {
			txn := s.Begin()
			idx, _ := txn.Allocate()
			txn.WritePage(idx, page)
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		if limit := perCommit[k] + uint64(n)*24/4; grow > limit {
			t.Errorf("store of %d pages: a growing commit allocates %d bytes, a steady one %d — a level is being copied", n, grow, perCommit[k])
		}
	}
	if small, large := perCommit[0], perCommit[1]; large > small+small/10 {
		t.Errorf("one-page commit allocates %d bytes into 512 pages and %d into 8 k pages", small, large)
	}
}
