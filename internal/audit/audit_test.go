package audit

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"testing"
)

func newLog(t *testing.T) *Log {
	t.Helper()
	_, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return NewLog(key)
}

func fill(l *Log, n int) {
	for i := 0; i < n; i++ {
		l.Append(int64(1000+i), "actor-"+string(rune('A'+i%3)), "query", "SELECT ...")
	}
}

func TestAppendAndVerify(t *testing.T) {
	l := newLog(t)
	fill(l, 10)
	if l.Len() != 10 {
		t.Errorf("len = %d", l.Len())
	}
	if err := Verify(l.Entries(), l.PublicKey()); err != nil {
		t.Errorf("genuine log failed verify: %v", err)
	}
}

func TestVerifyEmptyLog(t *testing.T) {
	l := newLog(t)
	if err := Verify(l.Entries(), l.PublicKey()); err != nil {
		t.Errorf("empty log: %v", err)
	}
}

func TestTamperedDetailDetected(t *testing.T) {
	l := newLog(t)
	fill(l, 5)
	entries := l.Entries()
	entries[2].Detail = "SELECT * FROM secrets"
	if err := Verify(entries, l.PublicKey()); err == nil {
		t.Error("tampered detail accepted")
	}
}

func TestDroppedEntryDetected(t *testing.T) {
	l := newLog(t)
	fill(l, 5)
	entries := l.Entries()
	entries = append(entries[:2], entries[3:]...)
	if err := Verify(entries, l.PublicKey()); err == nil {
		t.Error("dropped entry accepted")
	}
}

func TestReorderDetected(t *testing.T) {
	l := newLog(t)
	fill(l, 5)
	entries := l.Entries()
	entries[1], entries[2] = entries[2], entries[1]
	if err := Verify(entries, l.PublicKey()); err == nil {
		t.Error("reordered log accepted")
	}
}

func TestTruncationDetectedBySeq(t *testing.T) {
	l := newLog(t)
	fill(l, 5)
	entries := l.Entries()[1:] // drop the head
	if err := Verify(entries, l.PublicKey()); err == nil {
		t.Error("truncated head accepted")
	}
}

func TestForgedEntryDetected(t *testing.T) {
	l := newLog(t)
	fill(l, 3)
	entries := l.Entries()
	// Attacker fabricates a consistent chain entry but cannot sign it.
	forged := Entry{Seq: 3, Timestamp: 9999, Actor: "evil", Kind: "query", Detail: "x", PrevHash: entries[2].Hash}
	forged.Hash = entryHash(&forged)
	entries = append(entries, forged)
	if err := Verify(entries, l.PublicKey()); err == nil {
		t.Error("unsigned forged entry accepted")
	}
	// Without signature checking, the chain itself is consistent.
	if err := Verify(entries, nil); err != nil {
		t.Errorf("chain-only verify should pass: %v", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	l := newLog(t)
	fill(l, 3)
	pub, _, _ := ed25519.GenerateKey(rand.Reader)
	if err := Verify(l.Entries(), pub); err == nil {
		t.Error("wrong verification key accepted")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	l := newLog(t)
	fill(l, 7)
	blob, err := l.Export()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := VerifyImport(blob, l.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Errorf("imported %d entries", len(entries))
	}
	if _, err := VerifyImport([]byte("not json"), l.PublicKey()); err == nil {
		t.Error("garbage import accepted")
	}
}

func TestEntriesByActor(t *testing.T) {
	l := newLog(t)
	fill(l, 9) // actors A, B, C round-robin
	got := l.EntriesByActor("actor-A")
	if len(got) != 3 {
		t.Errorf("actor-A entries = %d", len(got))
	}
	for _, e := range got {
		if e.Actor != "actor-A" {
			t.Errorf("wrong actor %q", e.Actor)
		}
	}
}

func TestUnsignedLog(t *testing.T) {
	l := NewLog(nil)
	l.Append(1, "a", "k", "d")
	if err := Verify(l.Entries(), nil); err != nil {
		t.Errorf("unsigned log chain verify: %v", err)
	}
}

func TestRandomizedTamperAlwaysDetected(t *testing.T) {
	// Property: any single-field mutation of any entry breaks verification.
	l := newLog(t)
	fill(l, 12)
	clean := l.Entries()
	if err := Verify(clean, l.PublicKey()); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		for field := 0; field < 4; field++ {
			entries := append([]Entry{}, clean...)
			switch field {
			case 0:
				entries[i].Timestamp += 1
			case 1:
				entries[i].Actor += "x"
			case 2:
				entries[i].Kind = "forged"
			case 3:
				entries[i].Detail += "!"
			}
			if err := Verify(entries, l.PublicKey()); err == nil {
				t.Errorf("mutation of entry %d field %d undetected", i, field)
			}
		}
	}
}

// eagerExport is what the log exported when Append signed every entry as it
// chained it: the oracle the lazily signed trail must equal byte for byte.
func eagerExport(t *testing.T, key ed25519.PrivateKey, n int) []byte {
	t.Helper()
	var entries []Entry
	for i := 0; i < n; i++ {
		e := Entry{Seq: uint64(i), Timestamp: int64(1000 + i), Actor: "actor-" + string(rune('A'+i%3)), Kind: "query", Detail: "SELECT ..."}
		if i > 0 {
			e.PrevHash = entries[i-1].Hash
		}
		e.Hash = entryHash(&e)
		e.Signature = ed25519.Sign(key, e.Hash)
		entries = append(entries, e)
	}
	blob, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestAuditLazySignatureMatchesEager: entries are signed when they leave the
// log, not when they are appended, and nobody outside can tell — the export
// equals the eager signer's bytes whether it is read once at the end or after
// every few appends, tamper / reorder / drop are still caught, and the
// entries of one actor carry signatures that verify on their own.
func TestAuditLazySignatureMatchesEager(t *testing.T) {
	_, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	want := eagerExport(t, key, n)

	atEnd := NewLog(key)
	fill(atEnd, n)
	if atEnd.signed != 0 {
		t.Fatalf("Append signed %d entries", atEnd.signed)
	}
	interleaved := NewLog(key)
	for i := 0; i < n; i++ {
		interleaved.Append(int64(1000+i), "actor-"+string(rune('A'+i%3)), "query", "SELECT ...")
		switch i % 3 {
		case 0:
			interleaved.Entries()
		case 1:
			interleaved.EntriesByActor("actor-B")
		}
	}
	for name, l := range map[string]*Log{"read at the end": atEnd, "read between appends": interleaved} {
		got, err := l.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: export differs from the eagerly signed trail", name)
		}
		if l.signed != n {
			t.Fatalf("%s: %d of %d entries signed after export", name, l.signed, n)
		}
	}

	pub := atEnd.PublicKey()
	if _, err := VerifyImport(want, pub); err != nil {
		t.Fatalf("genuine trail: %v", err)
	}
	entries := atEnd.Entries()
	tampered := append([]Entry(nil), entries...)
	tampered[4].Detail = "SELECT * FROM secrets"
	reordered := append([]Entry(nil), entries...)
	reordered[2], reordered[3] = reordered[3], reordered[2]
	dropped := append(append([]Entry(nil), entries[:5]...), entries[6:]...)
	for name, bad := range map[string][]Entry{"tampered": tampered, "reordered": reordered, "dropped": dropped} {
		if Verify(bad, pub) == nil {
			t.Errorf("%s trail accepted", name)
		}
	}

	mine := NewLog(key)
	fill(mine, n)
	for _, e := range mine.EntriesByActor("actor-C") {
		if !bytes.Equal(e.Hash, entryHash(&e)) || !ed25519.Verify(pub, e.Hash, e.Signature) {
			t.Errorf("entry %d handed to its actor does not verify on its own", e.Seq)
		}
	}
}

// TestReturnedEntriesDoNotAliasTheLog: a reader that scribbles over every
// byte slice of the entries it was handed has not touched the trail.
func TestReturnedEntriesDoNotAliasTheLog(t *testing.T) {
	l := newLog(t)
	fill(l, 6)
	want, err := l.Export()
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(entries []Entry) {
		for _, e := range entries {
			for _, b := range [][]byte{e.PrevHash, e.Hash, e.Signature} {
				for i := range b {
					b[i] ^= 0xFF
				}
			}
		}
	}
	scribble(l.Entries())
	scribble(l.EntriesByActor("actor-A"))
	if err := Verify(l.Entries(), l.PublicKey()); err != nil {
		t.Fatalf("trail after a reader edited its copy: %v", err)
	}
	got, err := l.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("export changed after a reader edited its copy")
	}
}

func benchLog(b *testing.B) *Log {
	_, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return NewLog(key)
}

// BenchmarkAuditAppend is what one entry costs the query that causes it.
func BenchmarkAuditAppend(b *testing.B) {
	l := benchLog(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(int64(i), "client-key", "query", "SELECT name FROM pii WHERE id = 7")
	}
}

// BenchmarkAuditExport is what 1 000 entries cost whoever reads them first:
// their signatures and the JSON.
func BenchmarkAuditExport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLog(b)
		for j := 0; j < 1000; j++ {
			l.Append(int64(j), "client-key", "query", "SELECT name FROM pii WHERE id = 7")
		}
		b.StartTimer()
		if _, err := l.Export(); err != nil {
			b.Fatal(err)
		}
	}
}
