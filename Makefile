# Local and CI entry points — .github/workflows/ci.yml calls these same
# targets so the two can never drift.

GO ?= go

# Tier-1 packages: the race gate ROADMAP.md and the acceptance criteria
# name explicitly. `make race` extends it to the whole module.
RACE_PKGS = . ./internal/bufpool ./internal/transport ./internal/monitor ./internal/engine ./internal/pager ./internal/simtime ./internal/securestore ./internal/schema ./internal/sql/exec ./internal/storageengine ./internal/hostengine ./internal/ctl ./internal/ingest

.PHONY: all build fmt-check loc test test-purego race race-tier1 vet lint vet-json vet-bench sweep sweep-race fuzz-smoke benchjson benchsmoke bench-layers bench-e2e benchmark check clean

all: check

build:
	$(GO) build ./...

# fmt-check fails when gofmt would rewrite any file of the module.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go lines of every package and of the module
# (`_test.go` files and testdata/ excluded): the figures ROADMAP.md and every
# simplicity gate quote. Its last line adds the assembly kernels (`*.s`) to the
# Go total; the Go total alone stays comparable with earlier figures.
loc:
	@find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path '*/testdata/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" && $$2 ~ /\.s$$/ { s += $$1 } \
			$$2 != "total" && $$2 !~ /\.s$$/ { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d total\n%7d total with assembly\n", t, t + s }'

test:
	$(GO) test ./...

# test-purego runs the secure store's tests on crypto/cipher's CBC decrypter
# and crypto/hmac's page MAC, the paths of platforms without the amd64 kernels
# (cbc_amd64.s for AES-NI, sha512x8_amd64.s for AVX-512): the purego build tag
# leaves both kernels out.
test-purego:
	$(GO) test -tags purego ./internal/securestore/...

race:
	$(GO) test -race ./...

race-tier1:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

# lint runs the repo-specific invariant suite (see DESIGN.md, "Static
# analysis & invariants"). Exit 1 means a finding needs a fix or a reviewed
# //ironsafe:allow directive.
lint:
	$(GO) run ./cmd/ironsafe-vet ./...

# vet-json regenerates the machine-readable findings record: surviving
# diagnostics, per-analyzer counts, and the full allow-directive inventory
# with rationales — diffable across PRs like BENCH_results.json. The target
# succeeds even when findings exist (the report IS the artifact); `make
# lint` is the gate.
vet-json:
	$(GO) build -o /tmp/ironsafe-vet ./cmd/ironsafe-vet
	cd $(CURDIR) && /tmp/ironsafe-vet -json ./... > VET_findings.json || true

# vet-bench times a cold full-module run of the dataflow suite (build
# excluded, stdlib type-check included) and fails if it exceeds the 30s
# budget the acceptance criteria set for pre-commit usability.
VET_BENCH_LIMIT ?= 30
vet-bench:
	$(GO) build -o /tmp/ironsafe-vet ./cmd/ironsafe-vet
	@start=$$(date +%s); \
	/tmp/ironsafe-vet ./... || exit 1; \
	end=$$(date +%s); dur=$$((end - start)); \
	echo "ironsafe-vet full run: $${dur}s (limit $(VET_BENCH_LIMIT)s)"; \
	if [ $$dur -gt $(VET_BENCH_LIMIT) ]; then \
		echo "vet-bench: exceeded $(VET_BENCH_LIMIT)s budget"; exit 1; \
	fi

# sweep runs one of the six fault/attack suites, selected by S; sweep-race is
# the same run under the race detector (`make sweep S=gray`, `make sweep-race
# S=gray`). Each suite is a -run pattern over the packages that hold its
# tests; `check` and ci.yml run all six under race. The sweeps of
# internal/chaos also compare their per-seed digests with
# internal/chaos/testdata/digests.json (see DESIGN.md, "Fault & adversary
# model").
#
#   chaos      seeded faults on every channel of a 2-node cluster, with
#              zero-hang / zero-wrong-result / per-seed-determinism invariants.
#   crash      a power cut at every block-write boundary of a journaled
#              workload, clean and torn, must recover to exactly the old or the
#              new anchored state — plus the journal's adversarial tests.
#   rebuild    the attested anti-entropy rebuild end to end, plus a fault sweep
#              that cuts the transfer at every channel operation and every
#              device write — each point must leave the target either fully
#              consistent with the donor or still quarantined.
#   gray       one node of a 3-node cluster browns out (slow, not dead) and
#              recovers — deadline budgets, latency soft-ejection, hedged
#              offloads and overload backpressure must carry the run; plus
#              the cluster's hedge-planning contract (root package).
#   ingest     the group-commit pipeline's unit and wire tests, a power cut at
#              every write boundary of the streaming write path, node kills
#              mid-batch with restart + readmission, concurrent ingest beside
#              browned-out reads, audit-trail determinism, and the earlyack
#              analyzer that pins ack-after-commit at the source level.
#   adversary  a seeded MITM mounts replay, duplication, reordering, splicing,
#              forged frames and banners, stale medium reads and whole-medium
#              rollback at every protocol step — every attack absorbed or
#              surfaced typed, zero wrong rows, zero unbacked acks, zero hangs.
SWEEPS = chaos crash rebuild gray ingest adversary
PKGS_chaos     = ./internal/chaos ./internal/faultinject ./internal/resilience
RUN_crash      = PowerCut|Sweep|Torn|Journal|Crash
PKGS_crash     = ./internal/chaos ./internal/faultinject ./internal/securestore
RUN_rebuild    = Rebuild|Epoch|Membership|Quiesce|Readmit
PKGS_rebuild   = ./internal/chaos ./internal/securestore .
RUN_gray       = Gray|Budget|Hedge|Latency|Eject|Overload|Queue
PKGS_gray      = ./internal/chaos ./internal/resilience ./internal/hostengine ./internal/ctl .
RUN_ingest     = Ingest|GroupCommit|Earlyack|StatementSweep
PKGS_ingest    = ./internal/ingest ./internal/chaos ./internal/securestore ./internal/analysis .
RUN_adversary  = Adversary|Mitm|ForgedBanner|Classify|NonceReuse
PKGS_adversary = ./internal/adversary ./internal/chaos ./internal/ctl ./internal/hostengine ./internal/analysis

sweep:
	@test -n "$(PKGS_$(S))" || { echo "usage: make sweep S=<one of: $(SWEEPS)>"; exit 2; }
	$(GO) test $(SWEEP_FLAGS) -count=1 $(if $(RUN_$(S)),-run '$(RUN_$(S))') $(PKGS_$(S))

sweep-race:
	@$(MAKE) --no-print-directory sweep S=$(S) SWEEP_FLAGS=-race

# fuzz-smoke runs each wire-codec fuzz target for a short bounded stint —
# transport frames, a resuming server's first flight, the rebuild manifest, the
# redo journal, the CBC-decrypt kernel against crypto/cipher, the page-MAC
# kernel against crypto/hmac, the storage page
# list, the ingest wire ack, the page-backed column decoder against the
# boxed-row one, the retained offload reply against the boxed decoder, the
# executor's key table against a map keyed by value.HashKey, its filter's
# selections against row-at-a-time evaluation, the engine's
# catalog root page as an unauthenticated medium hands it back, and the front
# doors every client string crosses first: the SQL parser, the policy parser,
# the SQL lexer and the monitor's authorisation and policy rewrite. The seeded
# corpora alone run in ordinary `go test`; this target adds coverage-guided
# exploration.
FUZZTIME ?= 5s
FUZZ_TARGETS = \
	FuzzRecv:./internal/transport \
	FuzzHandshakeFirstFlight:./internal/transport \
	FuzzDecodeManifest:./internal/securestore \
	FuzzDecodeJournal:./internal/securestore \
	FuzzCBCDecrypt:./internal/securestore \
	FuzzPageMAC8:./internal/securestore \
	FuzzDecodePageList:./internal/storageengine \
	FuzzWireAck:./internal/ingest \
	FuzzDecodeColumn:./internal/schema \
	FuzzDecodeResult:./internal/sql/exec \
	FuzzKeyTable:./internal/sql/exec \
	FuzzWhere:./internal/sql/exec \
	FuzzCatalogRoot:./internal/engine \
	FuzzParse:./internal/sql/parser \
	FuzzParse:./internal/policy \
	FuzzLex:./internal/sql/lexer \
	FuzzAuthorize:./internal/monitor
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# benchjson regenerates the machine-readable benchmark record so the perf
# trajectory (per-query times, scs breakdown, scan-pipeline counters) is
# tracked across PRs.
benchjson:
	$(GO) run ./cmd/ironsafe-bench -exp json -sf 0.005 -json BENCH_results.json

# benchsmoke is the CI-sized slice: the JSON emitter must produce a valid
# record at a tiny scale factor, the batched scan path must stay
# row-identical to the sequential one, the vectorized executor must stay
# row-identical to — and strictly cheaper than — row-at-a-time execution,
# every evaluated query's work counters must match the committed record, the
# window scan must match the row scan at every window size, every fragment's
# encoded reply must be the boxed execution's bytes, the host's scan over a
# retained reply must match the scan over boxed rows, the key table must agree
# with value.HashKey and the hash join with a nested loop, a semi-join reduced
# scan must leave the nested loop's rows and reduce the TPC-H scans it is pinned
# to, the subquery kernels must agree with nested loops and an IN set reduce a
# scan without running its subquery twice or earlier than a failure would show,
# conjuncts hoisted out of an OR must plan one way, the columnar intermediates
# must leave row mode's rows and keep the host phases inside their allocation
# budget, and the layer benchmarks (page decryption, page MAC, row window, table scan, predicate kernels, fragment
# shipment, host scan of a shipment, hash join, group-by, semi-join reduced
# scan, subquery-reduced scans, the q13 / q18 / q21 host phases, the store
# commit, the insert acknowledgement, the channel handshake, a message through
# the channel and the audit append / export) must still run.
benchsmoke:
	$(GO) run ./cmd/ironsafe-bench -exp json -sf 0.002 -queries 1,6 -json /tmp/bench_smoke.json
	$(GO) test -count=1 -run 'BatchedMatchesSequential|CollectResults|ExecBatch|GoldenSnapshots' ./internal/bench
	$(GO) test -count=1 -run 'ScanWindows|MalformedPlaintext|ScanBatchWindows|RowWindow|PushedPredicates|ColumnPruning|BareProjection|RetainedReply|ResultForms|FragmentReplyBytes|KeyTable|JoinMatchesNestedLoop|JoinChain|SemiReduction|CommonDisjuncts|Subquery|ColumnarMatchesRowMode|HostPhaseAllocBudget|ColumnBuilders' ./internal/pager ./internal/schema ./internal/engine ./internal/sql/exec ./internal/storageengine
	$(GO) test -run '^$$' -bench 'CBCDecrypt|PageMAC|RowWindow|TableScan|EvalVecPredicate|ShipFragment|HostScanShipped|HostPhase|HashJoin|GroupBy|ScanSemiReduce|Subquery|Commit|InsertAck|Handshake|SendRecv|Audit' -benchtime 1x ./internal/schema ./internal/securestore ./internal/engine ./internal/sql/exec ./internal/storageengine ./internal/transport ./internal/audit

# bench-layers runs the data path's layer benchmarks, bottom up: the secure
# store's batched read, page open, page seal (CBC+HMAC), page
# decryption alone (the CBC kernel and crypto/cipher's decrypter), the page MAC
# alone (the eight-lane kernel and crypto/hmac) and commit (1
# and 256 pages into 1 k and 16 k pages), the page-backed row walk and column
# decode (`schema.RowWindow`), the predicate kernels, the table
# scan and the single-row insert acknowledgement over a real secure store
# (and the insert over the plain pager), one 20 000-row bulk load over the
# secure store, the plain pager and the hos enclave store (what staging a
# page costs shows in B/op and allocs/op),
# fragment shipment (to the reply bytes, and through ServeConn and the channel
# to the retained reply), the host phases a subquery's key set reduces, the
# whole host phases of q13, q18 and q21 from the replies' bytes, and what a
# short query pays around its fragment: the channel handshake (full X25519
# exchange and resumption, both ends over net.Pipe), one 4 KiB and one 1 MiB
# message through the channel (Send to Recv), and the audit log's append and
# first export. ns/op, B/op
# and allocs/op per layer; `make bench-layers BENCHTIME=1x` is the CI smoke run.
BENCHTIME ?= 1s
bench-layers:
	$(GO) test -run '^$$' -bench 'ReadPages|OpenPage|CBCDecrypt|PageMAC|SealPage|Commit|RowWindow|EvalVecPredicate|TableScan|InsertAck|BulkLoad|ShipFragment|SubqueryReduce|HostPhase|Handshake|SendRecv|Audit' -benchmem -benchtime $(BENCHTIME) ./internal/securestore ./internal/schema ./internal/sql/exec ./internal/engine ./internal/hostengine ./internal/storageengine ./internal/transport ./internal/audit

# benchmark runs one workload of the repository benchmark the way the driver
# does (`make benchmark W=scs-scan`): the timed run only, no trace.
benchmark:
	@test -n "$(W)" || { echo "usage: make benchmark W=<scs-scan|scs-subquery|hos-join|scs-gdpr-short|scs-ingest-mixed>"; exit 2; }
	$(GO) run ./benchmark --workload $(W) --seed 1 --seconds 20 --trace 0

# bench-e2e runs the repository benchmark (BENCHMARK.json; see
# benchmark/README.md) once per workload: the timed run's end-to-end metrics,
# both clocks, correctness checked against the hons oracle.
BENCH_SECONDS ?= 20
bench-e2e:
	@for w in scs-scan scs-subquery hos-join scs-gdpr-short scs-ingest-mixed; do \
		$(GO) run ./benchmark -workload $$w -seed 1 -seconds $(BENCH_SECONDS) || exit 1; \
	done

check: build fmt-check vet lint test test-purego race-tier1
	@for s in $(SWEEPS); do $(MAKE) --no-print-directory sweep-race S=$$s || exit 1; done

clean:
	$(GO) clean ./...
