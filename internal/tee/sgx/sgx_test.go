package sgx

import (
	"bytes"
	"errors"
	"testing"

	"ironsafe/internal/simtime"
)

func newTestPlatform(t *testing.T) (*Platform, *AttestationService) {
	t.Helper()
	ias := NewAttestationService()
	p, err := NewPlatform("plat-A", ias)
	if err != nil {
		t.Fatal(err)
	}
	return p, ias
}

func TestMeasurementDeterministic(t *testing.T) {
	a := MeasureCode([]byte("engine v1"))
	b := MeasureCode([]byte("engine v1"))
	c := MeasureCode([]byte("engine v2"))
	if a != b {
		t.Error("same image must measure equal")
	}
	if a == c {
		t.Error("different images must measure differently")
	}
	if a.String() == "" {
		t.Error("empty measurement string")
	}
}

func TestEnclaveRequiresMeter(t *testing.T) {
	p, _ := newTestPlatform(t)
	if _, err := p.CreateEnclave([]byte("x"), Config{}); err == nil {
		t.Error("nil meter should be rejected")
	}
}

func TestECallChargesTransitions(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, err := p.CreateEnclave([]byte("x"), Config{Meter: &m})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := e.ECall(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("ECall did not run fn")
	}
	if err := e.OCall(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().EnclaveTransitions; got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
	wantErr := errors.New("boom")
	if err := e.ECall(func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("ECall error passthrough = %v", err)
	}
}

func TestDestroyedEnclaveRejectsECalls(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m})
	e.Destroy()
	if err := e.ECall(func() error { return nil }); err == nil {
		t.Error("destroyed enclave should reject ECall")
	}
}

func TestEPCPagingWithinLimitNoFaults(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m, EPCLimitBytes: 1 << 20})
	e.Touch(0, 512<<10) // half the EPC
	if got := m.Snapshot().EPCFaults; got != 0 {
		t.Errorf("faults within limit = %d", got)
	}
	if e.ResidentBytes() != 512<<10 {
		t.Errorf("resident = %d", e.ResidentBytes())
	}
	// Re-touching resident pages is free.
	e.Touch(0, 512<<10)
	if got := m.Snapshot().EPCFaults; got != 0 {
		t.Errorf("faults on warm touch = %d", got)
	}
}

func TestEPCPagingBeyondLimitFaults(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m, EPCLimitBytes: 64 << 10})
	e.Touch(0, 128<<10) // 2x the EPC
	if got := m.Snapshot().EPCFaults; got == 0 {
		t.Error("expected EPC faults beyond the limit")
	}
	if e.ResidentBytes() > 64<<10 {
		t.Errorf("resident %d exceeds limit", e.ResidentBytes())
	}
}

// TestEPCEvictsFirstInFirstOut: a touch sequence that keeps the EPC full
// evicts exactly the pages a plain FIFO queue model evicts, fault for fault,
// and once the queue's array has settled a cycle of faulting touches
// allocates nothing.
func TestEPCEvictsFirstInFirstOut(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	const slots = 16
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m, EPCLimitBytes: slots * epcPageSize})
	var queue []uint64
	resident := map[uint64]bool{}
	var faults int64
	rng := uint64(7)
	for i := 0; i < 5000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pg := rng % (3 * slots)
		e.Touch(pg*epcPageSize, 1)
		if !resident[pg] {
			if len(queue) == slots {
				delete(resident, queue[0])
				queue = queue[1:]
				faults++
			}
			resident[pg] = true
			queue = append(queue, pg)
		}
		if got := m.Snapshot().EPCFaults; got != faults {
			t.Fatalf("touch %d (page %d): %d EPC faults, the FIFO model has %d", i, pg, got, faults)
		}
	}
	pg := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4*slots; i++ { // every touch faults: 4*slots distinct pages in turn
			e.Touch((1000+pg%(4*slots))*epcPageSize, 1)
			pg++
		}
	}); allocs != 0 {
		t.Errorf("a cycle of faulting touches allocated %.1f times", allocs)
	}
}

func TestAllocGrowsWorkingSet(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m, EPCLimitBytes: 1 << 20})
	e.Alloc("merkle", 256<<10)
	r1 := e.ResidentBytes()
	e.Alloc("merkle", 512<<10) // grow
	r2 := e.ResidentBytes()
	if r2 <= r1 {
		t.Errorf("Alloc growth: %d -> %d", r1, r2)
	}
	e.Alloc("merkle", 512<<10) // same size: no change
	if e.ResidentBytes() != r2 {
		t.Error("re-Alloc same size changed resident set")
	}
}

func TestQuoteVerifies(t *testing.T) {
	p, ias := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("host-engine"), Config{Meter: &m})
	var rd [64]byte
	copy(rd[:], "client-nonce")
	q := e.GetQuote(rd)
	if err := ias.Verify(q); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	if q.Measurement != MeasureCode([]byte("host-engine")) {
		t.Error("quote carries wrong measurement")
	}
}

func TestQuoteTamperDetected(t *testing.T) {
	p, ias := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("host-engine"), Config{Meter: &m})
	q := e.GetQuote([64]byte{})

	bad := q
	bad.Measurement[0] ^= 1
	if err := ias.Verify(bad); err == nil {
		t.Error("tampered measurement accepted")
	}
	bad = q
	bad.ReportData[5] ^= 1
	if err := ias.Verify(bad); err == nil {
		t.Error("tampered report data accepted")
	}
	bad = q
	bad.Signature = append([]byte(nil), q.Signature...)
	bad.Signature[0] ^= 1
	if err := ias.Verify(bad); err == nil {
		t.Error("tampered signature accepted")
	}
	bad = q
	bad.PlatformID = "plat-unknown"
	if err := ias.Verify(bad); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestForgedQuoteFromOtherPlatformRejected(t *testing.T) {
	ias := NewAttestationService()
	p1, _ := NewPlatform("p1", ias)
	p2, _ := NewPlatform("p2", ias)
	var m simtime.Meter
	e2, _ := p2.CreateEnclave([]byte("evil"), Config{Meter: &m})
	q := e2.GetQuote([64]byte{})
	q.PlatformID = "p1" // claim to be p1
	if err := ias.Verify(q); err == nil {
		t.Error("cross-platform forgery accepted")
	}
	_ = p1
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m})
	secret := []byte("database master key material")
	sealed, err := e.Seal(secret)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, secret) {
		t.Error("sealed blob leaks plaintext")
	}
	got, err := e.Unseal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("unseal mismatch")
	}
}

func TestSealBoundToIdentity(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e1, _ := p.CreateEnclave([]byte("good"), Config{Meter: &m})
	e2, _ := p.CreateEnclave([]byte("evil"), Config{Meter: &m})
	sealed, _ := e1.Seal([]byte("secret"))
	if _, err := e2.Unseal(sealed); err == nil {
		t.Error("different measurement unsealed the blob")
	}
	// Different platform, same measurement: must also fail.
	p2, _ := NewPlatform("other", nil)
	e3, _ := p2.CreateEnclave([]byte("good"), Config{Meter: &m})
	if _, err := e3.Unseal(sealed); err == nil {
		t.Error("different platform unsealed the blob")
	}
}

func TestSealTamperDetected(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m})
	sealed, _ := e.Seal([]byte("secret"))
	sealed[len(sealed)-1] ^= 1
	if _, err := e.Unseal(sealed); err == nil {
		t.Error("tampered sealed blob accepted")
	}
	if _, err := e.Unseal([]byte{1, 2}); err == nil {
		t.Error("short blob accepted")
	}
}

func TestDeriveSealedKeyDeterministicAndBound(t *testing.T) {
	p, _ := newTestPlatform(t)
	var m simtime.Meter
	e1, _ := p.CreateEnclave([]byte("engine"), Config{Meter: &m})
	k1, err := e1.DeriveSealedKey("page-enc")
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := e1.DeriveSealedKey("page-enc")
	if !bytes.Equal(k1, k2) {
		t.Error("sealed key not deterministic")
	}
	k3, _ := e1.DeriveSealedKey("page-mac")
	if bytes.Equal(k1, k3) {
		t.Error("labels must derive different keys")
	}
	// Different measurement on the same platform: different key.
	e2, _ := p.CreateEnclave([]byte("other engine"), Config{Meter: &m})
	k4, _ := e2.DeriveSealedKey("page-enc")
	if bytes.Equal(k1, k4) {
		t.Error("sealed key not bound to measurement")
	}
	// Same measurement on a different platform: different key.
	p2, _ := NewPlatform("other-plat", nil)
	e3, _ := p2.CreateEnclave([]byte("engine"), Config{Meter: &m})
	k5, _ := e3.DeriveSealedKey("page-enc")
	if bytes.Equal(k1, k5) {
		t.Error("sealed key not bound to platform")
	}
}

func TestPlatformAttestationPublicKey(t *testing.T) {
	ias := NewAttestationService()
	p, _ := NewPlatform("p", nil) // not registered at creation
	ias.RegisterPlatform("p", p.AttestationPublicKey())
	var m simtime.Meter
	e, _ := p.CreateEnclave([]byte("x"), Config{Meter: &m})
	if err := ias.Verify(e.GetQuote([64]byte{})); err != nil {
		t.Errorf("out-of-band provisioned platform rejected: %v", err)
	}
}
