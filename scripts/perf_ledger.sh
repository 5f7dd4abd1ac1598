#!/usr/bin/env bash
# The repository's performance trajectory: measure a checkout with the
# benchmark exactly as the driver does and append one line to
# PERF_HISTORY.jsonl at the root of this repository.
#
#   scripts/perf_ledger.sh                      # this checkout, 10 seeds
#   scripts/perf_ledger.sh -n 10 ../parent .    # parent and change, alternating
#   scripts/perf_ledger.sh -n 3 -w stream_read_512k .
#   scripts/perf_ledger.sh -t pr16 ../parent .  # name an uncommitted change
#
# For every seed 1..N and every workload it runs, in each checkout DIR,
#   bash bench/run.sh --workload W --seed i --seconds 15 --trace 0
# With two checkouts the order alternates from seed to seed, so the
# pairs a gain has to be shown on (ROADMAP.md, "standing rules") come
# out of the same session that writes the ledger. Each DIR gets one
# line: its commit (HEAD+TAG, TAG "dirty" unless -t names it, when
# tracked files differ from HEAD: a change is measured before it has a
# hash of its own), and per workload the median and the quartile
# distance (q3 - q1, Python's exclusive quartiles, the method of
# bench/aa.go and of the driver) of the ten end-to-end metrics. The raw
# result lines stay under .bench_build/ledger/ in this repository, named
# by that label, and ops_per_s, lat_p50_us and allocs_per_op of each run
# are printed as it ends. Two checkouts that resolve to one label (the
# same HEAD, both clean or both dirty) would overwrite each other's raw
# lines and summarise a mix of both, so the script refuses them.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
seeds=10
workloads="small_read_8k stream_read_512k write_mix_64k cheops_raid5 smallobj_needle"
metrics="ops_per_s mb_per_s lat_p50_us lat_p99_us cpu_us_per_op allocs_per_op alloc_bytes_per_op live_heap_mb ok_ratio setup_s"
tag=dirty
while getopts "n:w:t:" opt; do
    case "$opt" in
    n) seeds="$OPTARG" ;;
    w) workloads="$OPTARG" ;;
    t) tag="$OPTARG" ;;
    *) echo "usage: $0 [-n seeds] [-w 'workload ...'] [-t tag] [checkout ...]" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || set -- "$root"

dirs=() commits=()
for d in "$@"; do
    d="$(cd "$d" && pwd)"
    c="$(git -C "$d" rev-parse --short=12 HEAD)"
    [ -z "$(git -C "$d" status --porcelain --untracked-files=no)" ] || c="$c+$tag"
    for k in "${!commits[@]}"; do
        if [ "${commits[$k]}" = "$c" ]; then
            echo "perf_ledger: ${dirs[$k]} and $d both resolve to $c, so their raw results would overwrite each other;" >&2
            echo "perf_ledger: measure a clean checkout of the parent against the change, or commit one of them" >&2
            exit 1
        fi
    done
    dirs+=("$d") commits+=("$c")
done
raw="$root/.bench_build/ledger"
mkdir -p "$raw"

# value FILE METRIC: the metric's value in a result line.
value() {
    grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*://'
}

for seed in $(seq 1 "$seeds"); do
    for w in $workloads; do
        for k in $(seq 0 $((${#dirs[@]} - 1))); do
            # Alternate which checkout runs first.
            i=$(((k + seed) % ${#dirs[@]}))
            out="$raw/${commits[$i]}.$w.$seed.json"
            (cd "${dirs[$i]}" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds 15 --trace 0) | tail -n 1 >"$out"
            grep -q '"correct":true' "$out" || echo "perf_ledger: ${commits[$i]} $w seed $seed did not verify" >&2
            echo "${commits[$i]} $w seed $seed: ops_per_s $(value "$out" ops_per_s) lat_p50_us $(value "$out" lat_p50_us) allocs_per_op $(value "$out" allocs_per_op)"
        done
    done
done

# summary COMMIT WORKLOAD METRIC: {"median":..,"iqr":..} over the seeds.
summary() {
    for seed in $(seq 1 "$seeds"); do
        value "$raw/$1.$2.$seed.json" "$3"
    done | sort -g | awk '
        { s[NR] = $1 }
        function at(k,    pos, j) {
            if (NR == 1) return s[1]
            pos = k * (NR + 1) / 4
            j = int(pos); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
            return s[j] + (pos - j) * (s[j + 1] - s[j])
        }
        END { printf "{\"median\":%.6g,\"iqr\":%.6g}", at(2), at(3) - at(1) }'
}

for i in $(seq 0 $((${#dirs[@]} - 1))); do
    line="{\"commit\":\"${commits[$i]}\",\"date\":\"$(date -u +%Y-%m-%d)\",\"seeds\":$seeds,\"seconds\":15,\"workloads\":{"
    wsep=""
    for w in $workloads; do
        line="$line$wsep\"$w\":{"
        msep=""
        for m in $metrics; do
            line="$line$msep\"$m\":$(summary "${commits[$i]}" "$w" "$m")"
            msep=","
        done
        line="$line}"
        wsep=","
    done
    echo "$line}}" >>"$root/PERF_HISTORY.jsonl"
    echo "appended ${commits[$i]} to PERF_HISTORY.jsonl"
done
