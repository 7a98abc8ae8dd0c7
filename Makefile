GO ?= go

.PHONY: build test vet race bench bench-smoke bench-codec bench-cluster bench-wal bench-e2e fuzz-smoke memsmoke cachesmoke obssmoke crashsmoke plansmoke loc ci

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# accidental inter-test dependencies surface in CI instead of in prod.
test:
	$(GO) test -shuffle=on ./...

# vet also fails when gofmt would reformat a file, listing the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# race catches data races in the parallel bulk-execution pipeline, the
# cluster scatter-gather coordinator, and store snapshot isolation —
# readers pinning snapshots beside commits that write in place
# (TestReadersBesideInPlaceCommits).
race:
	$(GO) test -race -shuffle=on ./...

# bench reproduces the sequential-vs-parallel bulk execution comparison
# (BenchmarkBulkExecParallel_* in bench_test.go).
bench:
	$(GO) test -run XXX -bench 'BenchmarkBulkExecParallel' -benchtime 50x .

# bench-smoke compiles and runs every benchmark exactly once so that
# benchmark code can never rot uncompiled (it is part of ci). This
# covers the algebra microbenchmarks, the cluster scatter-gather
# benchmarks over 1/2/4/8 shard peers — buffered
# (BenchmarkClusterScatter/peers=N), streamed
# (BenchmarkClusterScatterStream/peers=N, the shard-order merge writing
# the merged envelope to a sink) and warm-cached
# (BenchmarkClusterCachedScatter/peers=N) — BenchmarkClusterShardedSemiJoin_*,
# the writable-cluster benchmarks (BenchmarkClusterRoutedUpdate_*,
# BenchmarkClusterPrunedProbe_*), the SOAP wire-path benchmarks, streaming
# vs reference (BenchmarkSoap{Encode,Decode}{Request,Response}{,Ref,DOM}),
# incl. the pull-decoder stream walk (BenchmarkSoapDecodeResponseStream,
# BenchmarkSoapResponseStreamWalk), the codec on the answer pushdown_scan
# ships (BenchmarkSoapEncodeResponseXMark{,Projected} — the shard's encode,
# whole and pruned — BenchmarkSoapDecodeResponseXMark,
# BenchmarkSoapDecodeResponseXMarkQ71{,Projected} — the decode with the
# reads Q7_1 makes of its items —
# BenchmarkSoapResponseStreamWalkRawXMark, BenchmarkParseDocumentXMark in
# internal/xdm — make bench-codec times them), the query peer's join of Q7_1
# (BenchmarkLiftedJoin_Q71 in internal/pathfinder — the layer-level
# before/after of the join rule: go test -run NONE -bench LiftedJoin
# -benchmem ./internal/pathfinder), one `replace value of` commit
# through interp.ApplyUpdates at 1000 and 8000 persons
# (BenchmarkCommitReplaceValue/persons=N — the layer-level before/after
# of copy on pin: go test -run NONE -bench CommitReplaceValue -benchmem
# ./internal/interp), that commit followed by one getPerson probe at the
# version it made, over 1000 persons (BenchmarkCommitThenProbe — the
# layer-level before/after of carrying a version's tables over a
# value-only commit: go test -run NONE -bench CommitThenProbe -benchmem
# ./internal/interp), and the paper-table benchmarks.
# The streamed gather's memory bound is make memsmoke's.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-codec is the wire codec's before/after on the answer
# pushdown_scan ships (XMark closed auctions with annotations, about
# 0.6 MB): the shard's encode of it, streamed to a discarding sink, whole
# and under Q7_1's projection (each item's buyer and annotation only);
# the query peer's decode of it (every item checked, none built); that
# decode followed by Q7_1's reads of its items (buyer/@person of each,
# the annotation of six copied and written), of the whole answer and of
# the projected one; the proxy's raw forward of it (every item taken as
# bytes); and the same XML parsed as one document.
bench-codec:
	$(GO) test -run NONE -bench 'BenchmarkSoap(EncodeResponseXMark(Projected)?|DecodeResponseXMark(Q71(Projected)?)?|ResponseStreamWalkRawXMark)$$' -benchmem ./internal/soap
	$(GO) test -run NONE -bench 'BenchmarkParseDocumentXMark$$' -benchmem ./internal/xdm

# bench-cluster times the cluster go benchmarks: scatter-gather (cold,
# streamed, warm-cached) over 1/2/4/8 shard peers, routed writes and
# pruned probes.
bench-cluster:
	$(GO) test -run XXX -bench 'BenchmarkCluster' -benchtime 3x .

# fuzz-smoke gives the SOAP envelope decoders a short coverage-guided
# shake on every CI run: the buffered DOM-free decoder (FuzzDecode) and
# the incremental io.Reader decoder fed adversarially fragmented input
# (FuzzDecodeStream), and the forwarding read the gather splices item
# bytes with (FuzzResponseStreamRaw: bounded window, nothing rejected
# that the decoded walk accepts, and the spliced envelope decodes to
# NextItem's items). The targets share one corpus directory; patterns
# are anchored because `go test -fuzz` requires exactly one match.
# FuzzWALDecode shakes the write-ahead-log frame parser the same way
# (truncated, corrupted and torn inputs must never panic). FuzzParse
# shakes the XQuery parser: no input may panic it, and a text that
# parses must parse to the same AST from its xq.Normalize key, the
# plan caches' key, so one key never stands for two programs.
# FuzzParseDocument holds the XML tokenizer every reader shares
# (xdm.ParseDocument, the envelope decoders) to encoding/xml, kept as a
# test-only reference: the same accept/reject outcome and, on success,
# the same tree node for node — but for character references to
# surrogates, which only the tokenizer rejects. FuzzLazyElement holds the
# lazy build of a received item (xdm's lazy.go) to the eager one: the same
# accept/reject, the same tree node for node with the same ordinals
# however far it is built, and every span it marks canonical is what
# WriteNode writes for it (FuzzResponseStreamRaw checks the same of
# DecodeResponse's lazy items). FuzzProjection holds call-by-projection's
# pruned write (xdm's project.go) to a reference that builds the tree,
# deletes the children the set does not keep and writes the rest, and its
# set parser to its own wire form. FuzzDecodePUL shakes the
# pending-update-list reader that replica adoption and WAL replay
# feed: no input may panic it or the ApplyUpdates that follows,
# and an accepted list must re-encode to a node that decodes to the
# same list.
# Run `go test -fuzz 'FuzzDecodeStream$$' ./internal/soap` for longer
# sessions.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz 'FuzzDecode$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/soap
	$(GO) test -run=NONE -fuzz 'FuzzDecodeStream$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/soap
	$(GO) test -run=NONE -fuzz 'FuzzResponseStreamRaw$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/soap
	$(GO) test -run=NONE -fuzz 'FuzzWALDecode$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/wal
	$(GO) test -run=NONE -fuzz 'FuzzParse$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/xq
	$(GO) test -run=NONE -fuzz 'FuzzParseDocument$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/xdm
	$(GO) test -run=NONE -fuzz 'FuzzLazyElement$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/xdm
	$(GO) test -run=NONE -fuzz 'FuzzProjection$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/xdm
	$(GO) test -run=NONE -fuzz 'FuzzDecodePUL$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/server

# memsmoke is the bounded-memory acceptance check of the streamed
# scatter-gather: under a 64 MiB GOMEMLIMIT the coordinator must merge
# a 256 MiB synthetic scan — 4x the memory cap — with its peak heap
# flat relative to the result size (O(shards × scanner window), not
# O(result)): each shard stream holds one scanner window, and a shard
# the merge has not reached yet waits on its transport.
memsmoke:
	GOMEMLIMIT=64MiB XRPC_MEMSMOKE_BYTES=268435456 \
		$(GO) test -run 'TestScatterStreamBoundedMemory' -v ./internal/cluster/

# cachesmoke is the three-tier cache acceptance check: a deployment
# with the shard response caches, the coordinator merged-result cache,
# and the compiled-plan caches all enabled must serve warm hits on both
# coordinator and shard tiers, and a routed single-shard 2PC commit
# must invalidate exactly the touched shard's entries — with every
# answer byte-identical to an unsharded single-peer execution. The
# compiled-text cache (interp.PlanCache) has no invalidation call to
# forget, so the gate also re-registers modules: on a shard executor,
# through Deploy, and under a query peer, the next request must run the
# new text, and only the plans importing the module may recompile.
# Timing: BenchmarkClusterCachedScatter (warm) vs BenchmarkClusterScatter
# (cold).
cachesmoke:
	$(GO) test -run 'TestCacheSmoke|TestDeployInvalidatesImporterPlans|Reregist' -v ./internal/cluster/
	$(GO) test -run 'Reregist|TestCachedQueryMintsFreshQueryID|TestPlanCacheInvalidatesOnRegistration' -v \
		./internal/core/ ./internal/server/ ./internal/pathfinder/

# obssmoke is the observability acceptance check: a 2-shard cached
# cluster with the full metrics/trace/slow-log layer attached, driven
# cold -> warm -> routed 2PC update -> post-write read, then scraped
# through the /metrics, /healthz and /readyz debug endpoints. Asserts
# the scatter, cache-tier and 2PC counters move at each stage, that a
# part stream counts as forward="decoded" when Scatter or the result
# cache takes its items as trees and as forward="raw" when the proxy only
# passes them on (xrpc_cluster_gather_streams_total), that single-call
# getPerson reads probe the index their shard's store version already
# built (xrpc_exec_index_builds_total < _probes_total), and that one trace
# ID appears in both shards' slow-query logs; a query peer in
# front runs one text cold then warm and its compiled-text cache's hit
# counter (cache="query") must move, then one two-for join over string
# keys, which must count as xrpc_query_joins_total{kind="hash"} and not
# as kind="fallback"; last, a replica that fails its AdoptPUL is evicted
# for good (xrpc_cluster_evictions_total = 1, gone from the routing
# table) while the update still commits.
obssmoke:
	$(GO) test -run 'TestObsSmoke' -v ./internal/cluster/

# bench-wal runs the durable-update acceptance pair: concurrent routed
# 2PC updates with and without a write-ahead log, the WAL on a tmpfs so
# the comparison measures the WAL code path (framing, group-commit
# coordination) rather than this machine's fsync hardware. The bar:
# WALConc within 15% of Conc. Unset XRPC_BENCH_WAL_DIR to include the
# real filesystem's flush latency instead.
bench-wal:
	XRPC_BENCH_WAL_DIR=$${XRPC_BENCH_WAL_DIR:-/dev/shm} \
		$(GO) test -run XXX -bench 'BenchmarkClusterRoutedUpdate(WAL)?Conc_P4' -benchtime 1600x .

# crashsmoke is the durability acceptance check: a live xrpcd with a
# write-ahead log is SIGKILL'd mid-update-storm and restarted with the
# same -wal-dir; every acknowledged commit must survive and a pre-crash
# committed read must come back byte-identical. XRPC_CRASHSMOKE_DIR
# points the WAL at a tmpfs (e.g. /dev/shm) so the fsync-heavy storm
# stays fast on CI runners. Beside it, the known window: a participant
# restarted between its Prepare ack and the Commit has lost the prepared
# update (recovery replays only commit records), so that Commit answers
# XRPC0006 over an unchanged store (TestPreparedUpdateLostOnRestart).
crashsmoke:
	XRPC_CRASHSMOKE_DIR=$${XRPC_CRASHSMOKE_DIR:-/dev/shm} \
		$(GO) test -run 'TestXrpcdCrashRecovery|TestPreparedUpdateLostOnRestart' -count=1 -v \
		./internal/cluster/ ./internal/server/

# plansmoke is the self-driving-planner acceptance check: with ZERO
# hand-written RouteSpecs the coordinator must derive routes from the
# compiled module bodies (equality probes routed to one shard, Lex-keyed
# range scans pruned, underivable functions broadcast — never a wrong
# route), stay byte-identical to broadcast on every fixture, show that a
# function which is not empty-on-miss diverges under broadcast and needs
# its registered spec, and count each read's strategy once, on the
# coordinator. The full sweep: xrpcbench -table planner.
plansmoke:
	$(GO) test -run 'TestPlanner' -v ./internal/cluster/
	$(GO) test -run 'TestDerivedRouteKeys|TestClusterWorkloadModuleIsUnderivable|TestPlannerBench' -v ./internal/bench/

# bench-e2e is the repository's one end-to-end benchmark, exactly the
# command BENCHMARK.json declares: four closed-loop workloads over
# loopback HTTP, seven end-to-end metrics each (see benchmark/README.md).
# Every PR reports its before/after row from this target; it is not part
# of ci (a run takes minutes and measures, it does not assert).
bench-e2e:
	$(GO) run ./benchmark/cmd/xrpcbm

# loc prints the table a simplicity PR quotes before and after: non-test
# Go lines outside benchmark/, physical and code (neither blank nor
# comment-only; the tree has no block comments), per internal package,
# for the rest of the module (root package, cmd/, examples/) and in total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | sort | xargs awk ' \
		FNR == 1 { n = split(FILENAME, p, "/"); \
			pkg = p[2] == "internal" ? "internal/" p[3] : n > 2 ? p[2] "/" : "(root)"; \
			if (!(pkg in phys)) order[++pkgs] = pkg } \
		{ phys[pkg]++; allphys++ } \
		!/^[ \t]*($$|\/\/)/ { code[pkg]++; allcode++ } \
		END { printf "%-22s %8s %8s\n", "package", "physical", "code"; \
			for (i = 1; i <= pkgs; i++) printf "%-22s %8d %8d\n", order[i], phys[order[i]], code[order[i]]; \
			printf "%-22s %8d %8d\n", "total", allphys, allcode }'

ci: build vet race bench-smoke fuzz-smoke memsmoke cachesmoke obssmoke crashsmoke plansmoke
