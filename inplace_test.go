package ironsafe

import (
	"bytes"
	"testing"

	"ironsafe/internal/adversary"
	"ironsafe/internal/faultinject"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/pager"
	"ironsafe/internal/tpch"
)

// The secure store hands the record ReadBlock returned back to the page pool
// once it has opened it, for a later read to reuse. These tests hold the two
// facts that makes safe, across every device the tree has: a read hands out a
// copy its caller owns, and plaintext never reaches the medium.

// TestBlockDevicesReturnOwnedCopies scribbles over what ReadBlock returned,
// reads again and demands the original, for every pager.BlockDevice
// implementation and each of its read paths.
func TestBlockDevicesReturnOwnedCopies(t *testing.T) {
	original := bytes.Repeat([]byte{0x3c}, 4176)
	stale := bytes.Repeat([]byte{0x71}, 4176)
	plan := faultinject.NewPlan(1) // no rules: nothing is injected

	adv := adversary.WrapDevice(pager.NewMemDevice(), "medium:test", plan)
	if err := adv.WriteBlock(7, stale); err != nil {
		t.Fatal(err)
	}
	adv.Capture() // the write below shadows block 7's old image

	var remoteMedium *pager.MemDevice
	c, err := NewCluster(Config{Mode: HostOnlySecure, StorageDeviceWrapper: func(_ string, d pager.BlockDevice) pager.BlockDevice {
		remoteMedium = d.(*pager.MemDevice)
		return d
	}})
	if err != nil {
		t.Fatal(err)
	}
	devices := map[string]pager.BlockDevice{
		"MemDevice":            pager.NewMemDevice(),
		"faultinject.Device":   faultinject.WrapDevice(pager.NewMemDevice(), "n1", plan),
		"faultinject.PowerCut": faultinject.NewPowerCut(pager.NewMemDevice(), "n1"),
		"adversary.Device":     adv,
		"hostengine.RemoteDevice over Server.FetchBlock": &hostengine.RemoteDevice{Fetcher: c.Storage[0], HostMeter: c.HostMeter},
	}
	check := func(name string, dev pager.BlockDevice, want []byte) {
		t.Helper()
		got, err := dev.ReadBlock(7)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: first read: %v", name, err)
		}
		for i := range got {
			got[i] = 0xff
		}
		again, err := dev.ReadBlock(7)
		if err != nil || !bytes.Equal(again, want) {
			t.Fatalf("%s: a caller's write into the block it read changed the next read (err %v)", name, err)
		}
	}
	for name, dev := range devices {
		if err := dev.WriteBlock(7, original); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, dev, original)
	}
	if remoteMedium == nil {
		t.Fatal("the cluster never wrapped its medium")
	}
	adv.ArmStaleReads(2)
	check("adversary.Device, stale image", adv, stale)
}

// TestQueriesLeaveMediumCiphertext runs the 16 evaluated TPC-H queries in scs
// and in hos and demands the medium byte-identical before and after: pages
// are decrypted in copies, on whichever side of the link the store runs.
func TestQueriesLeaveMediumCiphertext(t *testing.T) {
	data := tpch.Generate(0.001)
	for _, mode := range []Mode{IronSafe, HostOnlySecure} {
		var medium *pager.MemDevice
		c, err := NewCluster(Config{Mode: mode, StorageDeviceWrapper: func(_ string, d pager.BlockDevice) pager.BlockDevice {
			medium = d.(*pager.MemDevice)
			return d
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadTPCHData(data); err != nil {
			t.Fatal(err)
		}
		if err := c.SetAccessPolicy("read :- sessionKeyIs(analyst)"); err != nil {
			t.Fatal(err)
		}
		before := medium.SnapshotBlocks()
		for _, qn := range tpch.EvaluatedQueries {
			if _, err := c.NewSession("analyst").Query(tpch.Queries[qn]); err != nil {
				t.Fatalf("%v q%d: %v", mode, qn, err)
			}
		}
		after := medium.SnapshotBlocks()
		if len(before) == 0 || len(after) != len(before) {
			t.Fatalf("%v: %d blocks before the queries, %d after", mode, len(before), len(after))
		}
		for idx, b := range before {
			if !bytes.Equal(after[idx], b) {
				t.Fatalf("%v: block %d changed while only queries ran", mode, idx)
			}
		}
		// What is there is ciphertext: no block holds a customer name in the clear.
		for idx, b := range after {
			if bytes.Contains(b, []byte("Customer#0000")) {
				t.Fatalf("%v: block %d holds plaintext", mode, idx)
			}
		}
	}
}
