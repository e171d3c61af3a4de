# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: static checks (vet + gofmt cleanliness), a
# full build, the whole test suite, the parallel-sweep + fault-matrix +
# traced-breakdown + steering + attack + cluster determinism tests under
# the race detector (the concurrent experiment runner must stay race-free
# AND byte-identical to a sequential sweep, with or without tracing; the
# cluster bed in the benchmark's shape must measure the same under 1 and 2
# PDES workers, the one PDES contract left outside internal/sim), the
# scheduler's invariants and its differential test against a reference
# heap, and the IPC ring semantics under the race detector, the
# scheduler's node-size budget and the TCP PCB's (352 bytes), the
# allocation guards (scheduling/dispatch, timer arm/stop/fire and the IPC
# send/recv fast path must stay allocation-free in steady state; so must a
# warm bulk exchange inside the TCP engine pair, in order or reordered, a
# BuildTCP frame's round trip and an accept that keeps up with the queue;
# a whole HTTP reply and a whole one-request connection
# over a NEaT bed, with or without the watchdog, must stay inside their
# budgets), the free-list boxes under the race detector (a heartbeat's
# round trip and the socket protocol's box round trips allocate nothing
# even there, because no sync.Pool is involved; a fault-free run returns
# every box it took, and a PDES control plane totals every domain's free
# lists), the byte-path and
# connection-path ownership tests under the race detector, the Linux
# baseline's tests under the race detector (its K kernel contexts share one
# engine set and NEaT's pooled event boxes), the layer benchmarks of the per-byte path (checksum, bulk send/receive: they
# print the numbers and fail on wrong bytes) and of the scheduler (schedule
# and pop: near, far, and a burst after an idle gap), 5 s of each fuzz
# target, and
# the md5 oracles pinning the default single-link campaign outputs and the
# cluster and ipc campaigns: a topology-plumbing change that shifts one
# byte of `neat-bench -quick`, `neat-faults -matrix -quick`, `neat-bench
# -cluster -quick` or `neat-bench -ipc -quick` fails here, not in review.
# The five examples and cmd/neat-demo are built
# and run, and each one's stdout md5 must match testdata/example_outputs.md5:
# user-facing programs stay byte-stable across refactors. Last, four short
# workloads of the repository benchmark (the one benchmark; `bash
# benchmark/run.sh` for the full run): a PR may not edit benchmark/, so the
# gate proves it still builds against the internal API it imports and passes
# its own correctness checks
# (byte-verified bodies, repeat-identical digests, clean control farm) — any
# violation exits non-zero — and each run's final JSON line must match the
# seed-7 values pinned in testdata/benchmark_model_pins.txt: every model_*
# exactly, allocs_per_op within 2 %.
verify:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -timeout 1800s ./internal/experiments -run 'TestParallel|TestFaultMatrix|TestBreakdown|TestSteering|TestAttack|TestClusterDeterminism|TestClusterFailover'
	$(GO) test -race ./internal/bufpool ./internal/nicdev -run 'TestSlabOwnershipProperty|TestBatchedHandoffOwnership' -count=1
	$(GO) test -race ./internal/sim -run 'TestTimer|TestScheduler|TestEventPosition|TestQueue|TestScheduleAtNow' -count=1
	$(GO) test -race ./internal/ipc -run 'TestIPCRingOverflowStalls|TestIPCInjectOrdering|TestIPCCoalescedRideFIFO|TestIPCDepthHighWater|TestFastPathLatency|TestSlowPathWhenColocated|TestRebindAfterCrash' -count=1
	$(GO) test ./internal/sim -run 'TestScheduleZeroAlloc|TestUntracedDispatchAllocBudget|TestTracedDispatchNoExtraAllocs|TestBatchedDeliveryZeroAlloc|TestTimerArmStopZeroAlloc|TestTimerStatsPendingAndCascades|TestWheelNodeSize' -count=1
	$(GO) test -race ./internal/sim ./internal/stack ./internal/experiments -run 'TestHeartbeatRoundTripZeroAlloc|TestHeartbeatAnsweredOnlyWhenDraining|TestConnBoxRoundTripZeroAlloc|TestPoolsDrainAtQuiescence|TestPDESPoolsDrainAcrossDomains' -count=1
	$(GO) test ./internal/ipc -run 'TestIPCSendRecvZeroAlloc|TestIPCBatchDrainZeroAlloc' -count=1
	$(GO) test ./internal/proto ./internal/tcpeng ./internal/app -run 'TestBuildTCPRoundTripZeroAlloc|TestBulkSendRecvZeroAlloc|TestReorderedSegmentsArePooled|TestAcceptOneAtATimeReusesQueue|TestConnSize|TestBulkReplyAllocBudget|TestSmallReplyAllocBudget|TestConnLifecycleAllocBudget' -count=1
	$(GO) test -race . ./internal/stack ./internal/tcpeng ./internal/ipeng -run 'TestEchoOfBorrowedSlice|TestDroppedEvDataCorruptsNothing|TestDroppedConnEventsCorruptNothing|TestDroppedTxTSOCorruptsNothing|TestLoopbackBulkTSO|TestPartialRecvKeepsStream|TestRetransmitAfterCompaction|TestSnapshotRestoreMidTransfer|TestSoftwareTSOSegmentsAtMSS|TestListenerCloseResetsEveryQueued|TestTimeWaitReturnsBlock|TestTimeWaitKeepsUnreadBytes|TestReturnedBlockStartsEmpty' -count=1
	$(GO) test -race ./internal/baseline -count=1
	$(GO) test ./internal/proto ./internal/tcpeng -run '^$$' -bench 'BenchmarkChecksum|BenchmarkBulkSendRecv' -benchtime 2000x -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEventSchedulePop' -benchtime 200000x -benchmem
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 5s
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/neat-bench ./cmd/neat-bench; \
	$(GO) build -o $$tmp/neat-faults ./cmd/neat-faults; \
	got=$$($$tmp/neat-bench -quick | md5sum | cut -d' ' -f1); \
	if [ "$$got" != "ba86462483cc282f0d8a012f6d8465d9" ]; then \
		echo "md5 oracle: neat-bench -quick output changed ($$got)"; exit 1; fi; \
	got=$$($$tmp/neat-faults -matrix -quick | md5sum | cut -d' ' -f1); \
	if [ "$$got" != "eae3e80b0ca40f84c2ac060885a24f84" ]; then \
		echo "md5 oracle: neat-faults -matrix -quick output changed ($$got)"; exit 1; fi; \
	got=$$($$tmp/neat-bench -cluster -quick | md5sum | cut -d' ' -f1); \
	if [ "$$got" != "13a4e294263fe39af561ebc4700b5fad" ]; then \
		echo "md5 oracle: neat-bench -cluster -quick output changed ($$got)"; exit 1; fi; \
	got=$$($$tmp/neat-bench -ipc -quick | md5sum | cut -d' ' -f1); \
	if [ "$$got" != "d62dfbdbf2c4434e9650afaffd03638f" ]; then \
		echo "md5 oracle: neat-bench -ipc -quick output changed ($$got)"; exit 1; fi; \
	echo "md5 oracle: default, cluster and ipc outputs unchanged"
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	while read -r want pkg; do \
		bin=$$tmp/$$(basename $$pkg); \
		$(GO) build -o $$bin ./$$pkg || exit 1; \
		got=$$($$bin | md5sum | cut -d' ' -f1); \
		if [ "$$got" != "$$want" ]; then \
			echo "example output: $$pkg stdout changed ($$got, want $$want)"; exit 1; fi; \
	done < testdata/example_outputs.md5; \
	echo "example outputs: examples and neat-demo stdout unchanged"
	@for w in web_small web_bulk conn_scale cluster_faults; do \
		out=$$(bash benchmark/run.sh -workload $$w -seed 7 -seconds 3 -trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | bash testdata/check_model_pins.sh $$w || exit 1; \
	done
