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
# scheduler's node-size budget and the TCP PCB's (288 bytes), the
# footprint gates (a drained IPC ring keeps one segment of at most 160
# bytes, parking PCBs allocates nothing however many are parked, and
# BenchmarkSimulatorThroughput's bed keeps no more live bytes than its
# budget), the
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
# and pop: near, far, a burst after an idle gap, and a dense hold at a web
# workload's density, which prints the L0 insert walk), 5 s of each fuzz
# target, and
# the md5 oracles: each line of testdata/outputs.md5 names a program and
# its arguments, and the program's stdout must hash to that line's md5 —
# `neat-bench -quick` and its matrix, cluster and ipc campaigns, the five
# examples and cmd/neat-demo. A topology-plumbing change that shifts one
# byte of them fails here, not in review: user-facing programs stay
# byte-stable across refactors. Last, four short
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
	$(GO) test -race -timeout 1800s ./internal/experiments -run 'TestCampaignDeterminism|TestParallelRunner|TestFaultMatrix|TestBreakdown|TestSteering|TestAttack|TestClusterDeterminism|TestClusterFailover'
	$(GO) test -race ./internal/bufpool ./internal/nicdev -run 'TestSlabOwnershipProperty|TestBatchedHandoffOwnership' -count=1
	$(GO) test -race ./internal/sim -run 'TestTimer|TestScheduler|TestEventPosition|TestQueue|TestScheduleAtNow' -count=1
	$(GO) test -race ./internal/ipc -run 'TestIPCRingOverflowStalls|TestIPCInjectOrdering|TestIPCCoalescedRideFIFO|TestIPCDepthHighWater|TestFastPathLatency|TestSlowPathWhenColocated|TestRebindAfterCrash' -count=1
	$(GO) test ./internal/sim -run 'TestScheduleZeroAlloc|TestUntracedDispatchAllocBudget|TestTracedDispatchNoExtraAllocs|TestBatchedDeliveryZeroAlloc|TestTimerArmStopZeroAlloc|TestTimerStatsPendingAndCascades|TestWheelNodeSize' -count=1
	$(GO) test -race ./internal/sim ./internal/stack ./internal/experiments -run 'TestHeartbeatRoundTripZeroAlloc|TestHeartbeatAnsweredOnlyWhenDraining|TestConnBoxRoundTripZeroAlloc|TestPoolsDrainAtQuiescence|TestPDESPoolsDrainAcrossDomains' -count=1
	$(GO) test ./internal/ipc -run 'TestIPCSendRecvZeroAlloc|TestIPCBatchDrainZeroAlloc' -count=1
	$(GO) test ./internal/proto ./internal/tcpeng ./internal/app -run 'TestBuildTCPRoundTripZeroAlloc|TestBulkSendRecvZeroAlloc|TestReorderedSegmentsArePooled|TestAcceptOneAtATimeReusesQueue|TestConnSize|TestBulkReplyAllocBudget|TestSmallReplyAllocBudget|TestConnLifecycleAllocBudget' -count=1
	$(GO) test . ./internal/ipc ./internal/tcpeng -run 'TestThroughputBedLiveBytes|TestIPCRingFootprint|TestPCBPoolCycleZeroAlloc|TestConnTableMatchesMap' -count=1
	$(GO) test -race . ./internal/stack ./internal/tcpeng ./internal/ipeng -run 'TestEchoOfBorrowedSlice|TestDroppedEvDataCorruptsNothing|TestDroppedConnEventsCorruptNothing|TestDroppedTxTSOCorruptsNothing|TestLoopbackBulkTSO|TestPartialRecvKeepsStream|TestRetransmitAfterCompaction|TestSnapshotRestoreMidTransfer|TestSoftwareTSOSegmentsAtMSS|TestListenerCloseResetsEveryQueued|TestTimeWaitReturnsBlock|TestTimeWaitKeepsUnreadBytes|TestReturnedBlockStartsEmpty' -count=1
	$(GO) test -race ./internal/baseline -count=1
	$(GO) test ./internal/proto ./internal/tcpeng -run '^$$' -bench 'BenchmarkChecksum|BenchmarkBulkSendRecv' -benchtime 2000x -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEventSchedulePop|BenchmarkEventScheduleDense' -benchtime 200000x -benchmem
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 5s
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	while read -r want pkg args; do \
		bin=$$tmp/$$(basename $$pkg); \
		[ -x $$bin ] || $(GO) build -o $$bin ./$$pkg || exit 1; \
		got=$$($$bin $$args </dev/null | md5sum | cut -d' ' -f1); \
		if [ "$$got" != "$$want" ]; then \
			echo "md5 oracle: $$pkg$${args:+ $$args} stdout changed ($$got, want $$want)"; exit 1; fi; \
	done < testdata/outputs.md5; \
	echo "md5 oracles: campaign, example and neat-demo outputs unchanged"
	@for w in web_small web_bulk conn_scale cluster_faults; do \
		out=$$(bash benchmark/run.sh -workload $$w -seed 7 -seconds 3 -trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | bash testdata/check_model_pins.sh $$w || exit 1; \
	done
