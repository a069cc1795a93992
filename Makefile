# DataSpread developer targets. CI runs `make verify`, `make apicheck`,
# `make benchcheck` and `make bench`.

GO ?= go

.PHONY: all build test race racecheck vet fmt bench benchcheck fuzz faultcheck verify apicheck lint servecheck loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

verify: fmt vet lint build test racecheck faultcheck apicheck benchcheck

# loc prints the non-test Go lines of every package in the root module and
# their total: the number ROADMAP's 29k target and each CHANGES.md entry
# quote. bench/ is a module of its own, so `go list ./...` leaves it out.
loc:
	@$(GO) list -f '{{.Dir}}' ./... | while read -r dir; do \
		files=$$(ls "$$dir"/*.go | grep -v '_test\.go$$'); \
		[ -z "$$files" ] || echo "$$(cat $$files | wc -l) $${dir#$(CURDIR)}"; \
	done | awk '{ printf "%7d  .%s\n", $$1, $$2; total += $$1 } END { printf "%7d  total\n", total }'

# racecheck runs the race detector over the packages whose code runs without
# the engine lock — the scan kernel's pullers (internal/sqlexec), the snapshot
# scans they drive (internal/storage/tablestore), the DBSQL refreshes that
# each published change set runs next to them on the writer's goroutine,
# once its statement, COMMIT or ROLLBACK is done (internal/interfacemgr), and
# the compute engine's background recalc pass that un-waited edits overlap
# (internal/compute), and the index trees whose nodes and leaves readers
# build and load on first use under the shared engine lock
# (internal/index/btree) — so `verify` guards lock-freedom locally; CI (and
# `make race`) runs it over every package. It also runs internal/core's
# transaction-ownership and background-checkpoint tests, because the owner
# pointer is shared by Conns and the checkpointer goroutine.
racecheck:
	$(GO) test -race ./internal/sqlexec ./internal/storage/tablestore ./internal/interfacemgr ./internal/compute ./internal/index/btree
	$(GO) test -race ./internal/core -run 'TestUncommittedWriteNotCheckpointed|TestCheckpointInTransactionRefused|TestBackgroundCheckpointDefersToTransaction|TestConcurrentWriterConflicts|TestTableWritersConflictCellWritesProceed|TestConcurrentTransactionsSerialize|TestBackgroundCheckpoint'

# lint runs go vet plus dslint, the project-specific analyzer suite
# (internal/lint): lockcheck (engine-lock discipline, no parking under the
# lock), errwrap (dberr sentinel wrapping, no discarded durability
# errors), ctxcancel (row loops reach the cancellation poll) and apistable
# (blessed internal imports only). See DESIGN.md "Static analysis".
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dslint

# apicheck diffs the exported surface of the public packages (the root
# `dataspread` package and `driver`) against the committed golden
# api/public.txt — the golden-export-data equivalent of an
# apidiff-against-previous-tag job. After an INTENTIONAL API change,
# re-bless with: go run ./cmd/apicheck -write
apicheck:
	$(GO) run ./cmd/apicheck

# bench is the benchmark smoke target: every testing.B benchmark in every
# package compiles and runs once, so benchmark code cannot rot — the paper's
# experiments in the root bench_test.go and each package's own evidence
# benchmarks (e.g. internal/compute's BenchmarkSetValueFanout) alike. The
# end-to-end benchmark is bench/ (BENCHMARK.json), run by bench/run.sh.
bench:
	$(GO) test -bench=. -benchtime=1x -run=NONE ./...

# benchcheck runs the tests of the BENCHMARK.json harness. bench/ is a
# module of its own (the benchmark contract wants it self-contained), so the
# root `go test ./...` never reaches it; this is its rot guard.
benchcheck:
	cd bench && $(GO) test ./...

# faultcheck runs the exhaustive single-fault sweep (internal/core): a fixed
# workload is re-run once per mutating filesystem operation with that one
# operation failing (EIO, ENOSPC, torn sector write), asserting classified
# errors, degraded read-only behavior and contiguous-prefix recovery after
# every single injection. See DESIGN.md "Fault injection & degraded mode".
faultcheck:
	$(GO) test ./internal/core -run 'TestSingleFaultSweep|TestTornRootSlotRecovery|TestBothRootSlotsTornRefused|TestBackgroundCheckpoint' -count=1

# servecheck exercises the serving tier (cmd/dataspreadd / internal/server /
# client) end to end under the race detector — handshake/auth, streaming,
# mid-stream typed errors, disconnect cancellation, idle reaping, LRU
# eviction under concurrent streams, admission rejection, graceful-shutdown
# drain, degraded read-only over the wire, and a 4-tenant mixed read/write
# load (TestMultiTenantMixedLoad) — then runs the served_oltp benchmark
# workload for a short window, which exits non-zero on any failed or wrong
# operation.
servecheck:
	$(GO) test -race -count=1 ./internal/wire ./internal/server ./client
	bash bench/run.sh --workload served_oltp --seconds 2

# fuzz runs the durability fuzz suites (fixed seeds: the same trials replay
# every run) — WAL truncation/bit-flips, checkpoint kill points (the
# slot-map write included), heap-file corruption, the shadow-paged root-flip
# kill points, the zone-map insert/update/delete/checkpoint/reopen
# interleavings, and the live-versus-log oracle over failing statements,
# rollbacks and schema changes — then the checked-in corpus of every native
# fuzz target (testdata/fuzz): the checkpoint's slot map (FuzzSlotMapDecode)
# and its page catalog (FuzzAttachPages). `go test -fuzz <target>` explores
# further.
fuzz:
	$(GO) test ./internal/core/ -run 'TestCrashRecoveryFuzz|TestCheckpointCrashFuzz|TestHeapCorruptionFuzz|TestRootFlipAtomicKillPoints|TestZoneMapFuzz|TestLiveMatchesLogFuzz' -count=1 -v
	$(GO) test ./internal/storage/pager/ -run 'FuzzSlotMapDecode' -count=1 -v
	$(GO) test ./internal/sqlexec/ -run 'FuzzAttachPages' -count=1 -v
