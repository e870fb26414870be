package main

import (
	"fmt"
	"strings"
)

// rng is the benchmark's own xorshift64* stream: every seed-dependent input
// (PII rows, GDPR predicates, ingest payloads, op rotation) is drawn from it,
// and the program under test only ever sees the generated SQL.
type rng uint64

func newRNG(seed int64, stream string) *rng {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := 0; i < len(stream); i++ {
		s = (s ^ uint64(stream[i])) * 0x100000001B3
	}
	if s == 0 {
		s = 1
	}
	r := rng(s)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes p in place (Fisher-Yates).
func (r *rng) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// PII table shape (Table 3 schema). Every generated value has a fixed encoded
// width and every predicate a fixed cardinality, so the seed chooses *which*
// rows match, never how many: work counters — and with them the simulated
// metrics — do not depend on the seed.
const (
	piiIDBase   = 10000 // ids 10000.. all encode as 3-byte varints
	piiBlock    = 16    // per aligned block of 16 ids: 4 expired, 8 opted in
	piiDDL      = "CREATE TABLE pii (id INTEGER, name VARCHAR(24), email VARCHAR(32), expiry DATE, reuse_map INTEGER)"
	gdprDate    = "1995-06-17"
	reuserBit   = 2
	insertBatch = 256
	piiRowBytes = 2 + (1 + 3) + (1 + 1 + 13) + (1 + 1 + 21) + (1 + 3) + (1 + 1) // schema.EncodedSize of one pii row
)

type piiRow struct {
	id            int
	name, email   string
	expiry        string
	reuseMap      int
	expired, opts bool
}

func genPII(seed int64, n int) []piiRow {
	r := newRNG(seed, "pii")
	rows := make([]piiRow, n)
	idx := make([]int, piiBlock)
	for lo := 0; lo < n; lo += piiBlock {
		for i := range idx {
			idx[i] = i
		}
		r.shuffle(idx)
		expired := map[int]bool{}
		for _, i := range idx[:piiBlock/4] {
			expired[i] = true
		}
		r.shuffle(idx)
		opted := map[int]bool{}
		for _, i := range idx[:piiBlock/2] {
			opted[i] = true
		}
		for i := 0; i < piiBlock && lo+i < n; i++ {
			row := piiRow{id: piiIDBase + lo + i, expired: expired[i], opts: opted[i]}
			row.name = fmt.Sprintf("user-%08x", uint32(r.next()))
			row.email = fmt.Sprintf("u%08x@example.com", uint32(r.next()))
			year := 1999
			if row.expired {
				year = 1994
			}
			row.expiry = fmt.Sprintf("%d-%02d-%02d", year, 1+r.intn(12), 1+r.intn(28))
			row.reuseMap = r.intn(64) &^ (1 << reuserBit)
			if row.opts {
				row.reuseMap |= 1 << reuserBit
			}
			rows[lo+i] = row
		}
	}
	return rows
}

// piiInserts renders the rows as batched multi-row INSERT statements.
func piiInserts(rows []piiRow) []string {
	var out []string
	for lo := 0; lo < len(rows); lo += insertBatch {
		hi := lo + insertBatch
		if hi > len(rows) {
			hi = len(rows)
		}
		var b strings.Builder
		b.WriteString("INSERT INTO pii VALUES ")
		for i, r := range rows[lo:hi] {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s', '%s', '%s', %d)", r.id, r.name, r.email, r.expiry, r.reuseMap)
		}
		out = append(out, b.String())
	}
	return out
}

// GDPR policies: one access policy with three client branches and the exec
// policy every session attaches.
const (
	gdprAccessPolicy = "read :- sessionKeyIs(timely) & le(T, expiry)" +
		" | sessionKeyIs(reuser) & reuseMap(reuse_map) & logUpdate(sharing, K, Q)" +
		" | sessionKeyIs(auditor) & logUpdate(breach_log, K, Q)"
	gdprExecPolicy = "exec :- storageLocIs(EU) & fwVersionStorage(latest) & fwVersionHost(latest)"
)

// gdprOps are the five Table 3 anti-pattern queries; the seed picks the id
// window of #3 and the residue class of #5.
func gdprOps(seed int64, n int) []opSpec {
	r := newRNG(seed, "gdpr")
	lo := piiIDBase + piiBlock*r.intn(n/piiBlock)
	res := r.intn(8)
	return []opSpec{
		{name: "gdpr1-timely", client: "timely", accessDate: gdprDate, sql: "SELECT name FROM pii ORDER BY id"},
		{name: "gdpr2-reuse", client: "reuser", sql: "SELECT name FROM pii ORDER BY id"},
		{name: "gdpr3-transparency", client: "reuser", sql: fmt.Sprintf("SELECT email FROM pii WHERE id >= %d AND id < %d", lo, lo+piiBlock)},
		{name: "gdpr4-risk", client: "auditor", sql: "SELECT count(*) FROM pii"},
		{name: "gdpr5-breach", client: "auditor", sql: fmt.Sprintf("SELECT name, email FROM pii WHERE id %% 8 = %d", res)},
	}
}

// Ingest stream shape: fixed-width rows with whole-number amounts, so the
// expected SUM is exact whatever order concurrent writers commit in.
const (
	eventsDDL      = "CREATE TABLE events (id INTEGER, client VARCHAR(8), amount DOUBLE, note VARCHAR(16))"
	eventsCountSQL = "SELECT COUNT(*), SUM(amount) FROM events"
	ingestPolicy   = "read :- sessionKeyIs(reader); write :- sessionKeyIs(writer)"
	eventRowBytes  = 2 + (1 + 4) + (1 + 1 + 3) + (1 + 8) + (1 + 1 + 16) // schema.EncodedSize of one events row
)

// eventInsert renders writer w's seq-th record and returns its amount.
func eventInsert(r *rng, w, seq int) (string, int) {
	amount := 1 + r.intn(999)
	id := 10_000_000 + w*1_000_000 + seq
	return fmt.Sprintf("INSERT INTO events (id, client, amount, note) VALUES (%d, 'w%02d', %d.0, '%016x')",
		id, w, amount, r.next()), amount
}
