package main

import (
	"ironsafe/internal/engine"
	"ironsafe/internal/monitor"
	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/storageengine"
	"ironsafe/internal/tee/trustzone" //ironsafe:allow boundary -- the layer-stack replay boots a simulated TrustZone device for the store's keys and RPMB anchor exactly as storageengine.New does; it drives boot/derive APIs and never touches key material
)

// attester adapts a storage server to monitor.StorageAttester, as the
// cluster's own (unexported) adapter does.
type attester struct{ s *storageengine.Server }

func (a attester) Attest(challenge []byte) (*trustzone.AttestationReport, error) {
	return a.s.Attest(challenge)
}

func (a attester) Info() monitor.NodeInfo {
	id, loc, fw := a.s.Info()
	return monitor.NodeInfo{ID: id, Location: loc, FW: fw}
}

// stack is the driver-built layer stack of phase 3.
type stack struct {
	medium *pager.MemDevice
	dev    *timedDevice
	db     *engine.DB
}

// buildStack assembles MemDevice -> timed BlockDevice -> securestore (keys
// and RPMB anchor from a booted TrustZone device, as storageengine.New does)
// -> timed PageStore/TxnStore -> engine, with a synchronous scan pipeline so
// child spans nest on one goroutine and subtract cleanly.
func (t *tracedRun) buildStack() (*stack, error) {
	vendor, err := trustzone.NewVendor("benchmark-vendor")
	if err != nil {
		return nil, err
	}
	device, err := trustzone.NewDevice("benchmark-stack", vendor)
	if err != nil {
		return nil, err
	}
	meter := &simtime.Meter{}
	atf := vendor.SignImage("atf", "2.4", []byte("arm trusted firmware"))
	tos := vendor.SignImage("optee", "3.4", []byte("op-tee trusted os"))
	nwImg := trustzone.FirmwareImage{Name: "normal-world", Version: "3.4", Code: []byte("benchmark layer stack")}
	_, nw, err := device.Boot(atf, tos, nwImg, meter)
	if err != nil {
		return nil, err
	}
	s := &stack{medium: pager.NewMemDevice()}
	s.dev = &timedDevice{BlockDevice: s.medium, tr: t.tr}
	ss, err := securestore.Open(s.dev, nw, meter, securestore.Options{})
	if err != nil {
		return nil, err
	}
	s.db, err = engine.Open(&timedStore{inner: ss, tr: t.tr}, meter)
	if err != nil {
		return nil, err
	}
	s.db.SetScanConfig(pager.ScanConfig{BatchPages: 32, Prefetch: 0})
	return s, nil
}
