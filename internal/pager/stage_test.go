package pager

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// writeLog is a PageStore that records the pages written through it, in
// order.
type writeLog struct {
	PageStore
	writes []uint32
}

func (w *writeLog) WritePage(idx uint32, data []byte) error {
	w.writes = append(w.writes, idx)
	return w.PageStore.WritePage(idx, data)
}

// stageFixture is a pager over a medium holding page 0, written "old", and
// a write log over the pager.
func stageFixture(t *testing.T) (*MemDevice, *writeLog) {
	t.Helper()
	dev := NewMemDevice()
	p := NewPager(dev, nil, 4)
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	return dev, &writeLog{PageStore: p}
}

func pageIs(t *testing.T, s PageStore, idx uint32, want []byte) {
	t.Helper()
	got, err := s.ReadPage(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, make([]byte, PageSize-len(want))...)) {
		t.Errorf("page %d holds %q…, want %q", idx, got[:8], want)
	}
}

// TestStageCommitsEachPageOnceInFirstStagedOrder: nothing staged reaches the
// store before Commit; Commit writes each staged page exactly once, with its
// last staged contents, in the order the pages were first staged.
func TestStageCommitsEachPageOnceInFirstStagedOrder(t *testing.T) {
	dev, log := stageFixture(t)
	txn := stage(log)
	a, err := txn.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := txn.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	medium := dev.SnapshotBlocks()
	for _, w := range []struct {
		idx  uint32
		data string
	}{{b, "b1"}, {0, "root1"}, {a, "a1"}, {b, "b2"}, {0, "root2"}} {
		if err := txn.WritePage(w.idx, []byte(w.data)); err != nil {
			t.Fatal(err)
		}
	}
	if len(log.writes) != 0 || !reflect.DeepEqual(dev.SnapshotBlocks(), medium) {
		t.Fatalf("staging wrote pages %v through the store before Commit", log.writes)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{b, 0, a}; !slices.Equal(log.writes, want) {
		t.Errorf("Commit wrote pages %v, want %v", log.writes, want)
	}
	pageIs(t, log, 0, []byte("root2"))
	pageIs(t, log, a, []byte("a1"))
	pageIs(t, log, b, []byte("b2"))
}

// TestStageAbortLeavesPagesUnchanged: after Abort every existing page holds
// what it held and the pages the transaction reserved stay zero, even when
// the aborted transaction is committed.
func TestStageAbortLeavesPagesUnchanged(t *testing.T) {
	_, log := stageFixture(t)
	txn := stage(log)
	idx, err := txn.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.WritePage(0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := txn.WritePage(idx, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log.writes) != 0 {
		t.Errorf("an aborted transaction wrote pages %v", log.writes)
	}
	pageIs(t, log, 0, []byte("old"))
	pageIs(t, log, idx, nil)
}

// TestStageRefusesOversizedPage: a page larger than PageSize is refused when
// it is staged, not when the transaction commits.
func TestStageRefusesOversizedPage(t *testing.T) {
	_, log := stageFixture(t)
	txn := stage(log)
	if err := txn.WritePage(0, make([]byte, PageSize+1)); err == nil {
		t.Fatal("oversized page staged")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log.writes) != 0 {
		t.Errorf("Commit wrote pages %v after a refused write", log.writes)
	}
	pageIs(t, log, 0, []byte("old"))
}
