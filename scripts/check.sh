#!/usr/bin/env bash
# The gate a PR must pass. CI (.github/workflows/ci.yml) runs this exact
# script, so a green local run means a green CI run.
#
#   scripts/check.sh            # tests + lint (everything below)
#   scripts/check.sh --quick    # release build + tier-1 tests only
#   scripts/check.sh --tests    # release build + tier-1 + workspace tests + fuzz + detector oracle + conversion memory + engine/corpus/monitor smoke
#   scripts/check.sh --lint     # rustfmt --check + clippy -D warnings
#   scripts/check.sh --bench    # bench gate: determinism + per-core speedup floors
#   scripts/check.sh --observe  # observability smoke: metrics JSONL + trace
#   scripts/check.sh --offline  # no-network build: shims/ path deps only
#
# Every cargo invocation runs with RUSTFLAGS += "-D warnings": any compiler
# warning — not just a clippy lint — fails the gate loudly.
#
# Each step prints a banner so CI logs show where a failure happened.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
case "$mode" in
    --quick) mode=quick ;;
    --tests) mode=tests ;;
    --lint)  mode=lint ;;
    --bench) mode=bench ;;
    --observe) mode=observe ;;
    --offline) mode=offline ;;
    full) ;;
    *) echo "usage: scripts/check.sh [--quick|--tests|--lint|--bench|--observe|--offline]" >&2; exit 2 ;;
esac

export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

banner() { printf '\n==== %s ====\n' "$*"; }

run_build_and_tier1() {
    banner "cargo build --release"
    cargo build --release
    banner "cargo test -q (root package: tier-1)"
    cargo test -q
    # The CLI suite shares one fixture across tests; run it wider than the
    # default thread count so races between tests show up.
    banner "cargo test --test cli -- --test-threads 4"
    cargo test -q --test cli -- --test-threads 4
}

run_workspace_tests() {
    banner "cargo test --workspace -q"
    cargo test --workspace -q
}

run_fuzz() {
    banner "pcap fuzz: 2,000 fixed-seed mutants through every pcap entry point (release)"
    # The workspace tests run 40 mutants in debug; this is the larger
    # budget of the same fuzz (bit flips, truncations around the reader's
    # block edge, splices, record swaps, incl_len/orig_len rewrites past
    # the cap), a few seconds in release.
    cargo test -q --release -p loopscope --test pcap_fuzz -- --ignored
    banner "JSON fuzz: 20,000 fixed-seed mutants of snapshot, sample and Chrome-trace documents (release)"
    # The same shape for telemetry::json::validate: 40 mutants in debug,
    # this budget in release, well under a second.
    cargo test -q --release -p telemetry --test json_fuzz -- --ignored
}

run_oracle() {
    banner "detector oracle: 1,000 fixed-seed captures through every entry point against the independent §IV oracle (release)"
    # The tier-1 tests run 40 captures in debug; this is the larger budget
    # of the same comparison (every engine, thread count, ingest mode and
    # batch size against tests/oracle), under a minute in release.
    cargo test -q --release --test detector_oracle -- --ignored
}

run_memory() {
    banner "conversion memory: pcap_to_ltc and --verify peak heap at 500,000 and 2,000,000 records (release)"
    # The tier-1 tests compare 60,000 and 240,000 records in debug; this
    # is the same bound on a release-size capture generated in-process,
    # a few seconds in release.
    cargo test -q --release --test convert_memory -- --ignored
}

run_lint() {
    banner "cargo fmt --check"
    cargo fmt --all --check
    banner "cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    banner "cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

run_bench_smoke() {
    banner "bench gate: determinism + per-core speedup floors (BENCH_parallel.json)"
    # Same scale as the committed baseline so the --gate comparison is
    # like-for-like. Fresh results go to BENCH_parallel.fresh.json so the
    # committed baseline stays pristine. The gate fails on serial
    # throughput regressing >10% vs the baseline (same core count only)
    # and, on machines with >= 4 cores, on 2-/4-thread speedups below
    # 1.6x/2.5x; smaller machines skip the scaling floors loudly. A
    # markdown delta lands in BENCH_parallel.delta.md and, in CI, in the
    # run's step summary.
    cargo run -p bench --release --bin bench_parallel -- \
        --scale 0.4 --repeat 2 --threads 1,2,4,8 \
        --gate BENCH_parallel.json \
        --out BENCH_parallel.fresh.json \
        --summary BENCH_parallel.delta.md
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        cat BENCH_parallel.delta.md >> "$GITHUB_STEP_SUMMARY"
    fi
}

run_offline_build() {
    banner "offline build: shims/ path deps only, no network"
    # The workspace must build from the vendored shims/ path deps alone —
    # a Cargo.lock entry with a registry source means an external
    # dependency crept back in.
    if grep -q 'source = "registry' Cargo.lock; then
        echo "error: Cargo.lock references a registry dependency; the workspace builds from shims/ path deps only" >&2
        grep -n 'source = "registry' Cargo.lock >&2
        exit 1
    fi
    banner "cargo build --workspace --release --offline"
    cargo build --workspace --release --offline
}

run_engine_smoke() {
    banner "engine smoke: --threads 1/2/3/4/8 and --streaming byte-identical to serial, on pcap and .ltc (and .ltc --no-mmap at 1/2/3 workers and --streaming), CSV and --analysis; unsorted pcap and .ltc refused on every engine"
    # A 90 s trace: longer than the 60 s merge gap, so the streaming
    # detector finalises loops while records are still arriving instead
    # of only at end of trace. It also spans about 80 replica-gap
    # generations, so the level-0 candidate table grows to the window and
    # sweeps in place many times. Its .ltc twin runs the same variants through
    # the mapped segments. --threads 3 splits the input unevenly, and
    # --threads 8 asks for more segments than the machine has cores.
    # --analysis checks the §V report, whose record fold runs once per
    # segment or batch, so it sees every engine's ingest shape. On the
    # .ltc input, --no-mmap reads through buffered block reads instead of
    # the mapping: as one, two and three block ranges under the batch
    # engines, and as batches (the whole file read as one range) under
    # --streaming.
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    cargo run --release --example pcap_analysis -- --emit-demo "$tmp/long.pcap" 0.3
    cargo run --release --bin pcap2ltc -- "$tmp/long.pcap" "$tmp/long.ltc"
    local variants=("--threads 1" "--threads 2" "--threads 3" "--threads 4" "--threads 8"
        "--streaming")
    for input in long.pcap long.ltc; do
        local extra=()
        if [[ "$input" == *.ltc ]]; then
            extra=("--no-mmap" "--threads 2 --no-mmap" "--threads 3 --no-mmap"
                "--streaming --no-mmap")
        fi
        for args in "--csv loops" "--csv streams" "--csv summary" "--analysis"; do
            # shellcheck disable=SC2086
            cargo run --release --bin loopdetect -- "$tmp/$input" $args --engine serial \
                > "$tmp/serial.txt"
            for variant in "${variants[@]}" "${extra[@]}"; do
                # shellcheck disable=SC2086
                cargo run --release --bin loopdetect -- "$tmp/$input" $args $variant \
                    > "$tmp/variant.txt"
                if ! cmp -s "$tmp/serial.txt" "$tmp/variant.txt"; then
                    echo "error: loopdetect $input '$args $variant' output differs from --engine serial" >&2
                    diff "$tmp/serial.txt" "$tmp/variant.txt" >&2 || true
                    exit 1
                fi
            done
        done
    done
    # A capture whose records go back in time (its records appended again
    # after the 24-byte global header) and its .ltc twin, written as is:
    # every engine refuses both with exit 1, no report, and the typed
    # message naming the first record earlier than the one before it —
    # the copy's first record — and pcap2ltc refuses the capture.
    { cat "$tmp/long.pcap"; tail -c +25 "$tmp/long.pcap"; } > "$tmp/backwards.pcap"
    cargo run --release --example pcap_analysis -- --emit-ltc "$tmp/backwards.pcap" \
        "$tmp/backwards.ltc"
    local records status
    records="$(cargo run --release --bin loopdetect -- "$tmp/long.pcap" --csv summary \
        | sed -n 's/^records,//p')"
    local want="trace records must be sorted by timestamp: record $records at "
    for input in backwards.pcap backwards.ltc; do
        for variant in "--engine serial" "--threads 2" "--streaming"; do
            status=0
            # shellcheck disable=SC2086
            cargo run --release --bin loopdetect -- "$tmp/$input" --csv loops $variant \
                > "$tmp/unsorted.out" 2> "$tmp/unsorted.err" || status=$?
            if [ "$status" -ne 1 ] || [ -s "$tmp/unsorted.out" ] \
                || ! grep -q "$want" "$tmp/unsorted.err"; then
                echo "error: loopdetect $input '$variant' must refuse an unsorted trace with exit 1 and '$want…' (got $status)" >&2
                cat "$tmp/unsorted.err" >&2
                exit 1
            fi
        done
    done
    status=0
    cargo run --release --bin pcap2ltc -- "$tmp/backwards.pcap" "$tmp/refused.ltc" \
        2> "$tmp/unsorted.err" || status=$?
    if [ "$status" -ne 1 ] || [ -e "$tmp/refused.ltc" ] || ! grep -q "$want" "$tmp/unsorted.err"; then
        echo "error: pcap2ltc must refuse an unsorted capture with exit 1 and write nothing (got $status)" >&2
        cat "$tmp/unsorted.err" >&2
        exit 1
    fi
}

run_corpus_smoke() {
    banner "corpus smoke: pcap2ltc --verify at 1 and 2 threads + loopdetect pcap/ltc byte parity"
    # Convert the demo fixture to its .ltc twin (with the converter's own
    # re-read verification), then prove the detector cannot tell the
    # containers apart: every output mode must be byte-identical — and
    # that the mmap/buffered ingest split (--no-mmap) is invisible too.
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    cargo run --release --example pcap_analysis -- --emit-demo "$tmp/demo.pcap"
    cargo run --release --bin pcap2ltc -- "$tmp/demo.pcap" "$tmp/demo.ltc" --verify
    # The 2-thread conversion decodes the pcap on one thread while the
    # other encodes and writes the blocks; its corpus must be the
    # 1-thread one byte for byte.
    cargo run --release --bin pcap2ltc -- "$tmp/demo.pcap" "$tmp/demo.t2.ltc" \
        --threads 2 --verify
    if ! cmp -s "$tmp/demo.ltc" "$tmp/demo.t2.ltc"; then
        echo "error: pcap2ltc --threads 2 wrote a different .ltc than --threads 1" >&2
        exit 1
    fi
    # A current-version corpus stores 48-byte rows and no fingerprint
    # lane: 40 header bytes, an 8-byte checksum per 8192-record block,
    # and the rows, with the record count read from the header.
    local records blocks want got
    records="$(od -An -t u8 --endian=little -j 16 -N 8 "$tmp/demo.ltc" | tr -d ' ')"
    blocks=$(( (records + 8191) / 8192 ))
    want=$(( 40 + 8 * blocks + 48 * records ))
    got="$(stat -c %s "$tmp/demo.ltc")"
    if [ "$got" -ne "$want" ]; then
        echo "error: demo.ltc is $got bytes; $records records in $blocks blocks of 48-byte rows need $want" >&2
        exit 1
    fi
    for args in "--csv loops" "--csv streams" "--csv summary" "--analysis"; do
        # shellcheck disable=SC2086
        cargo run --release --bin loopdetect -- "$tmp/demo.pcap" $args --threads 2 \
            > "$tmp/out.pcap.txt"
        # shellcheck disable=SC2086
        cargo run --release --bin loopdetect -- "$tmp/demo.ltc" $args --threads 2 \
            > "$tmp/out.ltc.txt"
        if ! cmp -s "$tmp/out.pcap.txt" "$tmp/out.ltc.txt"; then
            echo "error: loopdetect '$args' output differs between pcap and .ltc input" >&2
            diff "$tmp/out.pcap.txt" "$tmp/out.ltc.txt" >&2 || true
            exit 1
        fi
        # shellcheck disable=SC2086
        cargo run --release --bin loopdetect -- "$tmp/demo.ltc" $args --threads 2 \
            --no-mmap > "$tmp/out.ltc.nommap.txt"
        if ! cmp -s "$tmp/out.ltc.txt" "$tmp/out.ltc.nommap.txt"; then
            echo "error: loopdetect '$args' output differs between mmap and --no-mmap ingest" >&2
            diff "$tmp/out.ltc.txt" "$tmp/out.ltc.nommap.txt" >&2 || true
            exit 1
        fi
    done
}

run_monitor_smoke() {
    banner "monitor smoke: loopmond fleet demo, event schema, graceful SIGINT, capture links, failing link"
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    # A 120-link rolling-failure fleet, bounded by a record budget, with
    # the live sampler on: the unified event stream and the metrics JSONL
    # must both validate, and the budget stop must exit 0.
    cargo run --release --bin loopmond -- \
        --fleet 120 --max-records 60000 --metrics "$tmp/metrics.json" \
        --events "$tmp/events.jsonl"
    cargo run -p bench --release --bin validate_telemetry -- --events "$tmp/events.jsonl"
    grep -q '"monitor.loops"' "$tmp/metrics.json" || {
        echo "error: final metrics snapshot lacks monitor.* counters" >&2
        exit 1
    }
    grep -q 'link.link-000.records' "$tmp/metrics.json" || {
        echo "error: final metrics snapshot lacks per-link gauges" >&2
        exit 1
    }
    # Graceful shutdown: interrupt a paced live run mid-stream; the
    # daemon must drain every started link, flush the sink, and exit 0.
    # Pacing alone sets the run's length (about 6.5 s uninterrupted), so
    # the signal lands well before the fleet would finish on its own.
    cargo build --release --bin loopmond
    ./target/release/loopmond --fleet 8 --duration-s 60 --pace-ms 200 \
        --events "$tmp/sig.jsonl" 2> "$tmp/sig.err" &
    local pid=$!
    sleep 2
    kill -INT "$pid"
    if ! wait "$pid"; then
        echo "error: loopmond did not exit 0 after SIGINT" >&2
        cat "$tmp/sig.err" >&2
        exit 1
    fi
    grep -q 'stopped' "$tmp/sig.err" || {
        echo "error: SIGINT run did not report a graceful stop" >&2
        cat "$tmp/sig.err" >&2
        exit 1
    }
    cargo run -p bench --release --bin validate_telemetry -- --events "$tmp/sig.jsonl"
    # Capture mode: three demo captures of different lengths, one link
    # each. A link's event lines must not depend on the worker count, nor
    # on whether its engine is new: at --threads 1 the second and third
    # links run on the first link's engine, recycled, so each link's lines
    # must also equal those of a run of that capture alone.
    local scale link status
    for scale in 0.05 0.1 0.3; do
        cargo run --release --example pcap_analysis -- --emit-demo "$tmp/demo-$scale.pcap" "$scale"
    done
    for threads in 1 2; do
        ./target/release/loopmond "$tmp"/demo-*.pcap --threads "$threads" \
            --events "$tmp/capture-$threads.jsonl"
    done
    for scale in 0.05 0.1 0.3; do
        link="demo-$scale"
        grep "^{\"link\":\"$link\"," "$tmp/capture-1.jsonl" > "$tmp/$link.t1" || {
            echo "error: capture link $link emitted no events" >&2
            exit 1
        }
        grep "^{\"link\":\"$link\"," "$tmp/capture-2.jsonl" > "$tmp/$link.t2" || true
        cmp -s "$tmp/$link.t1" "$tmp/$link.t2" || {
            echo "error: link $link's events differ between --threads 1 and 2" >&2
            exit 1
        }
        ./target/release/loopmond "$tmp/$link.pcap" --threads 1 --events "$tmp/$link.alone"
        cmp -s "$tmp/$link.t1" "$tmp/$link.alone" || {
            echo "error: link $link's events differ between a recycled engine and a new one" >&2
            exit 1
        }
    done
    # A capture whose records go back in time (its records appended a
    # second time after the 24-byte global header) is retired alone: exit
    # 1, and the good link beside it still emits every event.
    { cat "$tmp/demo-0.1.pcap"; tail -c +25 "$tmp/demo-0.1.pcap"; } > "$tmp/backwards.pcap"
    status=0
    ./target/release/loopmond "$tmp/demo-0.1.pcap" "$tmp/backwards.pcap" --threads 2 \
        --events "$tmp/order.jsonl" 2> "$tmp/order.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q '^error: link backwards: ' "$tmp/order.err"; then
        echo "error: an out-of-order link must be reported and exit 1 (got $status)" >&2
        cat "$tmp/order.err" >&2
        exit 1
    fi
    grep '^{"link":"demo-0.1",' "$tmp/order.jsonl" | cmp -s - "$tmp/demo-0.1.t1" || {
        echo "error: the good link lost events beside a failing one" >&2
        exit 1
    }
}

run_observability_smoke() {
    banner "observability smoke: --metrics-interval JSONL + --trace Chrome JSON"
    # Drive the real binary on the demo pcap fixture with both live
    # observability surfaces on, then validate both artifacts' schemas.
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    cargo run --release --example pcap_analysis -- --emit-demo "$tmp/demo.pcap"
    cargo run --release --bin loopdetect -- "$tmp/demo.pcap" \
        --threads 2 --csv summary \
        --metrics-interval 50 --trace "$tmp/trace.json" \
        > /dev/null 2> "$tmp/metrics.jsonl"
    cargo run -p bench --release --bin validate_telemetry -- \
        "$tmp/metrics.jsonl" "$tmp/trace.json"
    # Every engine counts steps 2–3 under the same names: the streaming
    # run's kept streams and loops must equal the block engine's.
    local mode name
    for mode in threads streaming; do
        if [ "$mode" = threads ]; then set -- --threads 2; else set -- --streaming; fi
        cargo run --release --bin loopdetect -- "$tmp/demo.pcap" --csv summary "$@" \
            --metrics "$tmp/$mode.json" > /dev/null
    done
    for name in validate.streams_kept merge.loops_total; do
        local want got
        want="$(grep -o "\"$name\":[0-9]*" "$tmp/threads.json" || true)"
        got="$(grep -o "\"$name\":[0-9]*" "$tmp/streaming.json" || true)"
        if [ -z "$want" ] || [ "$want" != "$got" ]; then
            echo "error: --streaming $name is '${got}', --threads 2 has '${want}'" >&2
            exit 1
        fi
    done
}

case "$mode" in
    quick) run_build_and_tier1 ;;
    tests) run_build_and_tier1; run_workspace_tests; run_fuzz; run_oracle; run_memory; run_engine_smoke; run_corpus_smoke; run_monitor_smoke ;;
    lint)  run_lint ;;
    bench) run_bench_smoke ;;
    observe) run_observability_smoke ;;
    offline) run_offline_build ;;
    full)  run_build_and_tier1; run_workspace_tests; run_fuzz; run_oracle; run_memory; run_engine_smoke; run_corpus_smoke; run_monitor_smoke; run_lint; run_observability_smoke ;;
esac

banner "OK"
