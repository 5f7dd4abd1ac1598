#!/bin/sh
# The repository's test gate: formatting, static analysis, and the full
# test suite under the race detector. CI and pre-commit hooks should run
# exactly this script so local and automated checks never drift.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# A superseded mechanism is deleted in the PR that supersedes it, not
# parked behind a deprecation note.
echo "==> no '// Deprecated:' in non-test Go under internal/ and cmd/"
if grep -rn --include='*.go' --exclude='*_test.go' '^[[:space:]]*// Deprecated:' internal cmd; then
    echo "delete the deprecated code above instead of marking it" >&2
    exit 1
fi

# Nor does a removed name linger in comments and docs: these were
# deleted by earlier changes, and only the history files may still say them.
echo "==> no deleted names in *.go, *.md, *.sh and *.yml"
if grep -rnE --include='*.go' --include='*.md' --include='*.sh' --include='*.yml' \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=check.sh --exclude-dir=.git --exclude-dir=.bench_build \
    'WithJournalBlocks|FormatStore|OpenStore|Stats\(\)\.Retries|nasdbench -(stats|chaos)([^-]|$)|nasdbench -workload|BENCH_(stats|parallel|smallobj|chaos|qos)|-chaos-duration|-qos-duration|-qos-clients|runChaos|runQoS|-stats-mb|-smallobj-objects|WithWorkers|AllDig|JournalEnabled|SetWriteThrough|SeqWriteJournalOff|JournalBlocks: -1|OpenWith|WithQueue|rpc-queue|sendReject|svcEWMA|ServerMetrics|ServerSpans|WithWindow|WithFragmentSize|ptrWritten|LegTimeout|legPacing|legCtx|backpressureWaits|cheops\.backpressure_waits|RequestIDFrom|WithRequestID|NextRequestID|ReadPipelinedInto|NewStripe([^D]|$)|ErrLockHeld|ErrUnauthorized|MaxPartitions|(^|[^[:alnum:]_])DriveCount|emitPhases|StartNanos|OpTotals|MergedSvc|partExists|WithSpanContext|\.Annotate\(|OnSent|\.Emit\((telemetry\.)?SpanRecord|BMapAllocRange|BMapAlloc|UnmapBlock|\.BMap\(|planFragments' .; then
    echo "the names above no longer exist; describe what replaced them" >&2
    exit 1
fi

# Every Device reads and writes in ranges: nothing probes for the
# ranged methods, so no caller keeps a per-block fallback.
echo "==> no BlockRanger type assertion in non-test Go"
if grep -rnE --include='*.go' --exclude='*_test.go' '\.\((blockdev\.)?BlockRanger\)' internal cmd examples; then
    echo "call the device's ReadBlocks/WriteBlocks; every Device has them" >&2
    exit 1
fi

# A test that sleeps on wall-clock time is slow and flaky under load;
# the count may fall, never rise.
echo "==> at most 17 time.Sleep sites in *_test.go"
sleeps=$(grep -rn --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build 'time\.Sleep(' . | wc -l)
if [ "$sleeps" -gt 17 ]; then
    echo "$sleeps time.Sleep sites in tests (limit 17): wait on an event instead" >&2
    exit 1
fi

# A client stub that discards its reply drops the reply's pooled frame.
echo "==> no discarded reply in internal/client/client.go"
if grep -nE '_, err :?= d\.call(Admin)?\(' internal/client/client.go; then
    echo "release the reply (status(d.call(...))) instead of dropping it" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Allocation counts: the race detector allocates on its own, so the
# tests that pin per-request allocations skip themselves above and run
# here on a plain binary — the cached read end to end, with and without
# qos in front, a span and an exemplar, which every request makes, and
# the cache's bookkeeping for a miss, a prefetch and an absent write,
# a windowed read's fan-out, and the block map's range walks.
echo "==> go test -count=1 -run 'Allocs\$' . ./internal/telemetry ./internal/cache ./internal/layout (allocation counts, no -race)"
go test -count=1 -run 'Allocs$' . ./internal/telemetry ./internal/cache ./internal/layout

# Fault-tolerance focus: rerun the fault/retry/failover tests by name so
# a resilience regression is called out explicitly instead of hiding in
# the full-suite output above. Chaos includes the power-cut scenario:
# a drive is cut off mid-soak (server down, volatile cache dropped),
# restarted through journal recovery, marked stale and rebuilt.
echo "==> go test -race -run 'Faults|Retry|Reconnect|NeverSent|FateUnknown|Breaker|Chaos|Rollback|Hang|CapabilityRenewal|TimedOutLeg|ShortComponent|Recycle|ShedWriteLeg|HandlePolicyAbsorbsShed|Overload|CanceledRAID5Write|DeadlinePassedDuringSend' (fault-tolerance focus)"
go test -race \
    -run 'Faults|Retry|Reconnect|NeverSent|FateUnknown|Breaker|Chaos|Rollback|Hang|CapabilityRenewal|TimedOutLeg|ShortComponent|Recycle|ShedWriteLeg|HandlePolicyAbsorbsShed|Overload|CanceledRAID5Write|DeadlinePassedDuringSend' \
    ./internal/rpc ./internal/client ./internal/cheops ./internal/blockdev

# QoS focus: the Controller hands slots between rpc workers under its
# mutex; repeat the package under the race detector so an ordering bug
# in the hand-off shows up here rather than as a rare flake.
echo "==> go test -race -count=5 ./internal/qos (QoS focus)"
go test -race -count=5 ./internal/qos

# Crash-consistency focus: re-run the DESIGN.md §7 durability tests by
# name — journal framing/commit/replay, CrashDisk semantics, the
# short-mode crash sweeps (mixed workload, deferred onode writes), and
# the extent and write-back tests that pin what the write path sends to
# the device and in what order (pointer blocks once per write, onode
# blocks at the flush, write-back in runs), that the quota charged by
# delta is the charge recovery's census walks, and that a mount refuses
# a corrupt or journal-less superblock, and the needle log's recoveries
# and its power cut with a run pending — so a recovery regression is
# called out explicitly. The full sweeps (1000+ points
# each) run in the suite above and, with -v, in CI's dedicated
# crash-sweep job.
echo "==> go test -race -short -run 'Crash|Journal|Torn|Recover|Checkpoint|Commit|Padding|WriteBack|Superblock|MetaCache|Extent|Accounting|ChargeCosts|ForEachBlock' (crash-consistency focus)"
go test -race -short \
    -run 'Crash|Journal|Torn|Recover|Checkpoint|Commit|Padding|WriteBack|Superblock|MetaCache|Extent|Accounting|ChargeCosts|ForEachBlock' \
    ./internal/journal ./internal/blockdev ./internal/object ./internal/cache ./internal/layout ./internal/needle

# The superblock is the first thing a mount trusts from the disk: fuzz
# its decode and validation briefly on every run.
echo "==> go test -run '^\$' -fuzz '^FuzzSuperblock\$' -fuzztime 10s ./internal/layout"
go test -run '^$' -fuzz '^FuzzSuperblock$' -fuzztime 10s ./internal/layout

# A needle log's recovery starts from its index snapshot, which may lag
# the log: fuzz the snapshot's decode and its encode/decode round trip.
echo "==> go test -run '^\$' -fuzz '^FuzzIndexSnapshot\$' -fuzztime 10s ./internal/needle"
go test -run '^$' -fuzz '^FuzzIndexSnapshot$' -fuzztime 10s ./internal/needle

# Mount-time recovery replays whatever the journal's active half holds:
# fuzz the scan over arbitrary bytes, and every intent decoder over the
# records it returns.
echo "==> go test -run '^\$' -fuzz '^FuzzJournalScan\$' -fuzztime 10s ./internal/journal"
go test -run '^$' -fuzz '^FuzzJournalScan$' -fuzztime 10s ./internal/journal

# Every secure request passes the drive's replay window: fuzz the ring
# bitmap against the map model it replaced.
echo "==> go test -run '^\$' -fuzz '^FuzzNonceWindow\$' -fuzztime 10s ./internal/crypt"
go test -run '^$' -fuzz '^FuzzNonceWindow$' -fuzztime 10s ./internal/crypt

# The Cheops manager mounts its layout from a directory object, and a
# drive its partitions from the control object: fuzz both decodes and
# their encode/decode round trips.
echo "==> go test -run '^\$' -fuzz '^FuzzDirectory\$' -fuzztime 10s ./internal/cheops"
go test -run '^$' -fuzz '^FuzzDirectory$' -fuzztime 10s ./internal/cheops
echo "==> go test -run '^\$' -fuzz '^FuzzPartitionTable\$' -fuzztime 10s ./internal/object"
go test -run '^$' -fuzz '^FuzzPartitionTable$' -fuzztime 10s ./internal/object

# A drive decodes whatever argument records a client sends, and a
# client whatever replies the drive returns: fuzz every decode of the
# drive protocol and its encode/decode round trip.
echo "==> go test -run '^\$' -fuzz '^FuzzProtoDecode\$' -fuzztime 10s ./internal/drive"
go test -run '^$' -fuzz '^FuzzProtoDecode$' -fuzztime 10s ./internal/drive

# A drive's first look at a request's untrusted bytes is the frame
# decode: fuzz it, checking that every view it returns stays inside the
# frame.
echo "==> go test -run '^\$' -fuzz '^FuzzDecodedViewsWithinFrame\$' -fuzztime 10s ./internal/rpc"
go test -run '^$' -fuzz '^FuzzDecodedViewsWithinFrame$' -fuzztime 10s ./internal/rpc

# The capability's public half is the trust boundary: the drive decodes
# it from every request, qos before authorization. Fuzz the decode and
# its round trip through both encoders.
echo "==> go test -run '^\$' -fuzz '^FuzzCapabilityPublic\$' -fuzztime 10s ./internal/capability"
go test -run '^$' -fuzz '^FuzzCapabilityPublic$' -fuzztime 10s ./internal/capability

# Benchmark smoke: every benchmark must still run (one iteration each);
# regressions in benchmark-only code paths surface here, not in CI
# archaeology. -benchmem keeps allocs/op visible so the zero-copy data
# path's allocation discipline is checked on every run, not just when
# someone remembers to ask for it.
echo "==> go test -run '^$' -bench . -benchtime 1x -benchmem ./..."
go test -run '^$' -bench . -benchtime 1x -benchmem ./...

# QoS flood (DESIGN.md §10): a ~10x open-loop aggressor flood through
# the qos plane may not push the victim tenant's p99 past 3 x max(solo
# p99, 3 ms), the victim must see zero failures, and every rejection
# must be the typed retry-later reply. The bound is wall-clock, so the
# test skips itself under -race above and runs uninstrumented here.
echo "==> go test -short -count=1 -run '^TestFloodKeepsVictimP99\$' ./internal/qos"
go test -short -count=1 -run '^TestFloodKeepsVictimP99$' ./internal/qos

# nasdctl's commands are tested in-process against drives on loopback
# listeners; the share of its statements they run may not fall below
# 70 %.
echo "==> go test -cover ./cmd/nasdctl (at least 70 % of statements)"
cover=$(go test -count=1 -cover ./cmd/nasdctl | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$cover" ] || ! awk -v c="$cover" 'BEGIN { exit !(c >= 70) }'; then
    echo "cmd/nasdctl coverage ${cover:-unknown} % is below 70 %: test the command you added" >&2
    exit 1
fi

# Fleet observability smoke: two live daemons, one aggregated snapshot.
# `nasdctl fleet -json` must poll both drives' stats ops and emit the
# merged fleet snapshot (per-drive rows + merged counters/histograms/
# events); CI uploads FLEET_smoke.json.
echo "==> nasdctl fleet -json against a 2-drive harness"
go build -o /tmp/nasd-check-nasdd ./cmd/nasdd
go build -o /tmp/nasd-check-nasdctl ./cmd/nasdctl
/tmp/nasd-check-nasdd -listen 127.0.0.1:17071 -id 1 -insecure -blocks 4096 &
d1=$!
/tmp/nasd-check-nasdd -listen 127.0.0.1:17072 -id 2 -insecure -blocks 4096 &
d2=$!
trap 'kill $d1 $d2 2>/dev/null || true' EXIT
fleet_ok=0
for i in 1 2 3 4 5 6 7 8 9 10; do
    if /tmp/nasd-check-nasdctl -insecure -addr 127.0.0.1:17071,127.0.0.1:17072 \
        -timeout 5s fleet -json > FLEET_smoke.json 2>/dev/null; then
        fleet_ok=1
        break
    fi
    sleep 1
done
kill $d1 $d2 2>/dev/null || true
trap - EXIT
[ "$fleet_ok" = 1 ] || { echo "fleet smoke: nasdctl fleet never succeeded" >&2; exit 1; }
test -s FLEET_smoke.json
grep -q '"merged"' FLEET_smoke.json || { echo "fleet smoke: snapshot has no merged section" >&2; exit 1; }

echo "OK"
