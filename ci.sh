#!/usr/bin/env bash
# Hermetic CI pipeline: every step runs with --offline against an empty
# cargo registry (the workspace has no external dependencies by design —
# see README "Offline builds"). Run locally with ./ci.sh.
#
# The pipeline is split into three groups so the GitHub workflow can run
# them as parallel jobs; with no argument every group runs in order:
#
#   ./ci.sh lint        # fmt, clippy (with the root clippy.toml's disallowed types)
#   ./ci.sh build-test  # release build, workspace tests (the gated
#                       # simulated counts among them), the frozen
#                       # benchmark/ consumer's build + tests
#   ./ci.sh figures     # figure/trace determinism across --jobs and
#                       # --threads, checkpoint CLI plumbing (mesh and
#                       # fat-tree), cold vs prefix-shared sweep byte diff
#   ./ci.sh all         # everything (default)
#
# Scheduler equivalence (EventDriven vs Legacy vs PDES, uninterrupted vs
# pause + resume, mesh/fat-tree/torus) and the gated cycle/tick counts
# (ci/BENCH_*.baseline.json) are Rust table tests,
# crates/multigpu/tests/scheduler_equivalence.rs and
# crates/bench/tests/gated_counts.rs, run by build-test; the shell legs
# below only cover what needs a process boundary: CLI flags, files on
# disk, --jobs, --cache-dir, and one --threads 4 pass each. Nothing here
# measures host time: benchmark/ does (README "Measuring host time").
#
# Artifacts (fig14 trace + time series, checkpoint snapshots, topology
# figure, the fresh gated-count reports) are left in $CI_ARTIFACT_DIR
# (default: ./ci-artifacts) for the workflow to upload. When
# $GITHUB_STEP_SUMMARY is set, per-step wall times are appended to it as
# a markdown table.
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-all}
case "$mode" in
    lint | build-test | figures | all) ;;
    *)
        echo "usage: ./ci.sh [lint|build-test|figures|all]" >&2
        exit 2
        ;;
esac

artifact_dir=${CI_ARTIFACT_DIR:-ci-artifacts}
mkdir -p "$artifact_dir"

seq_err=$(mktemp)
par_err=$(mktemp)
cache_dir=$(mktemp -d)
ckpt_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir" "$ckpt_dir"; rm -f "$seq_err" "$par_err"' EXIT

if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
        echo ""
        echo "### ci.sh $mode step timing"
        echo ""
        echo "| step | seconds |"
        echo "| --- | --- |"
    } >>"$GITHUB_STEP_SUMMARY"
fi

# Runs one named step (a function below), echoing it and recording its
# wall time in the GitHub step summary when available.
run_step() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    local dt=$((SECONDS - t0))
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        echo "| $name | $dt |" >>"$GITHUB_STEP_SUMMARY"
    fi
}

figures() {
    cargo run --release --offline -q -p netcrafter-bench --bin figures -- "$@"
}

simulate() {
    cargo run --release --offline -q -p netcrafter-bench --bin simulate -- "$@"
}

# capture_figures VAR ERRFILE ARGS…: stores the stdout of `figures ARGS…`
# in VAR and its stderr in ERRFILE; a failing run dumps the stderr.
capture_figures() {
    local var="$1" err="$2" out
    shift 2
    if ! out=$(figures "$@" 2>"$err"); then
        echo "FAIL: figures $* failed:" >&2
        cat "$err" >&2
        exit 1
    fi
    printf -v "$var" '%s' "$out"
}

# same_text WHAT A B: fails the step unless the two strings are equal.
same_text() {
    if [[ "$2" != "$3" ]]; then
        echo "FAIL: $1" >&2
        diff <(echo "$2") <(echo "$3") >&2 || true
        exit 1
    fi
}

# same_file WHAT A B: fails the step unless the two files are identical.
same_file() {
    if ! cmp -s "$2" "$3"; then
        echo "FAIL: $1" >&2
        cmp "$2" "$3" >&2 || true
        exit 1
    fi
}

step_fmt() {
    cargo fmt --check
}

# Beyond the default warn set, a curated subset of pedantic lints is
# denied (kept small on purpose: each one either hardens determinism
# reasoning or removes a class of silent fallback). `clippy::unwrap_used`
# is enforced through crate-root `#![warn(...)]` attributes in every
# sim-facing crate (tests are exempt via cfg_attr), which -D warnings
# turns into errors here — as it does the root clippy.toml's disallowed
# types and macros (HashMap, HashSet, Instant, SystemTime, thread_local!)
# and `clippy::cast_possible_truncation` at the roots of `net` and `sim`.
step_clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings \
        -D clippy::explicit_iter_loop \
        -D clippy::semicolon_if_nothing_returned \
        -D clippy::redundant_closure_for_method_calls \
        -D clippy::map_unwrap_or \
        -D clippy::cloned_instead_of_copied
}

step_build_release() {
    cargo build --release --offline
}

# The gated_counts test writes the counts it measured to target/tmp/
# whether or not they match the baselines: keep them as artifacts so a
# red run still uploads what it measured.
step_test_workspace() {
    local status=0
    cargo test -q --workspace --offline || status=$?
    cp target/tmp/BENCH_*.json "$artifact_dir"/ 2>/dev/null || true
    return "$status"
}

# benchmark/ is a frozen consumer of the public sim/multigpu/bench APIs
# outside the workspace: build it and run its unit tests here, so an API
# change that breaks it fails in CI rather than in the merge pipeline.
step_test_benchmark_consumer() {
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
}

step_figures_smoke() {
    local seq_out par_out
    capture_figures seq_out "$seq_err" --quick fig14
    capture_figures par_out "$par_err" --quick fig14 --jobs 4
    same_text "parallel (--jobs 4) figure output differs from sequential" "$seq_out" "$par_out"
}

# The warm run adds --threads 4: thread count is excluded from the cache
# key (parallel results are bit-identical), so a cache filled by a
# sequential run must fully satisfy a parallel one.
step_figures_cache() {
    figures --quick fig14 --jobs 4 --cache-dir "$cache_dir" >/dev/null 2>&1
    local warm_stderr
    warm_stderr=$(figures --quick fig14 --jobs 4 --threads 4 --cache-dir "$cache_dir" 2>&1 >/dev/null)
    if ! grep -q "0 simulated" <<<"$warm_stderr"; then
        echo "FAIL: warm cache re-simulated configurations:" >&2
        echo "$warm_stderr" >&2
        exit 1
    fi
}

# Two identical traced runs must write identical files, and so must a
# --threads 4 run: the one CLI pass of the parallel scheduler's --trace /
# --timeseries plumbing (the table test compares the same bytes in
# process).
step_trace_determinism() {
    local base=(--workload GUPS --variant netcrafter --cus 2 --scale tiny) tag extra
    for tag in a b par; do
        extra=()
        [[ "$tag" == par ]] && extra=(--threads 4)
        simulate "${base[@]}" "${extra[@]}" \
            --trace "$artifact_dir/trace-$tag.json" \
            --timeseries "$artifact_dir/timeseries-$tag.jsonl" >/dev/null
    done
    for tag in b par; do
        same_file "event trace of run $tag differs from run a" \
            "$artifact_dir/trace-a.json" "$artifact_dir/trace-$tag.json"
        same_file "time series of run $tag differs from run a" \
            "$artifact_dir/timeseries-a.jsonl" "$artifact_dir/timeseries-$tag.jsonl"
        rm -f "$artifact_dir/trace-$tag.json" "$artifact_dir/timeseries-$tag.jsonl"
    done
    mv "$artifact_dir/trace-a.json" "$artifact_dir/fig14-trace.json"
    mv "$artifact_dir/timeseries-a.jsonl" "$artifact_dir/fig14-timeseries.jsonl"
}

# restored_run_matches TAG SNAP MID SIMULATE-ARGS…: resumes from SNAP and
# requires the metrics dump, event trace and time series of the cold run
# in $ckpt_dir.
restored_run_matches() {
    local tag="$1" snap="$2" mid="$3"
    shift 3
    simulate "$@" --restore-from "$snap" \
        --trace "$ckpt_dir/warm-trace.json" \
        --timeseries "$ckpt_dir/warm-ts.jsonl" \
        --dump-metrics >"$ckpt_dir/warm.txt" 2>"$ckpt_dir/warm.err"
    if ! grep -q "simulated from cycle $mid" "$ckpt_dir/warm.err"; then
        echo "FAIL ($tag): restored run did not resume from cycle $mid:" >&2
        cat "$ckpt_dir/warm.err" >&2
        exit 1
    fi
    same_file "($tag) restored metrics differ from the uninterrupted run" \
        "$ckpt_dir/cold.txt" "$ckpt_dir/warm.txt"
    same_file "($tag) restored event trace differs from the uninterrupted run" \
        "$ckpt_dir/cold-trace.json" "$ckpt_dir/warm-trace.json"
    same_file "($tag) restored time series differs from the uninterrupted run" \
        "$ckpt_dir/cold-ts.jsonl" "$ckpt_dir/warm-ts.jsonl"
}

# The --checkpoint-at / --checkpoint-dir / --restore-from plumbing:
# checkpoint → restore → continue through files on disk must be
# byte-identical to the uninterrupted run — metrics dump, event trace and
# time series alike — with the snapshot taken at the cold run's midpoint
# and the restored half replayed once sequentially and once on 4 threads.
# The snapshot itself is kept as a CI artifact under the name given as
# $1; any further arguments (e.g. --topology) are appended to every
# simulate invocation.
step_checkpoint_equivalence() {
    local artifact_name="$1"
    shift
    rm -rf "$ckpt_dir/snaps"
    local base=(--workload GUPS --variant netcrafter --cus 2 --scale tiny "$@")
    simulate "${base[@]}" \
        --trace "$ckpt_dir/cold-trace.json" \
        --timeseries "$ckpt_dir/cold-ts.jsonl" \
        --dump-metrics >"$ckpt_dir/cold.txt"
    local cycles mid
    cycles=$(awk -F': *' '/^execution cycles/ {print $2}' "$ckpt_dir/cold.txt")
    if [[ -z "$cycles" || "$cycles" -lt 2 ]]; then
        echo "FAIL: cannot read execution cycles from the cold run" >&2
        exit 1
    fi
    mid=$((cycles / 2))
    simulate "${base[@]}" \
        --checkpoint-at "$mid" --checkpoint-dir "$ckpt_dir/snaps" \
        --trace "$ckpt_dir/mid-trace.json" \
        --timeseries "$ckpt_dir/mid-ts.jsonl" \
        --dump-metrics >"$ckpt_dir/mid.txt"
    same_file "pausing at cycle $mid to checkpoint perturbed the metrics" \
        "$ckpt_dir/cold.txt" "$ckpt_dir/mid.txt"
    same_file "pausing at cycle $mid to checkpoint perturbed the event trace" \
        "$ckpt_dir/cold-trace.json" "$ckpt_dir/mid-trace.json"
    same_file "pausing at cycle $mid to checkpoint perturbed the time series" \
        "$ckpt_dir/cold-ts.jsonl" "$ckpt_dir/mid-ts.jsonl"
    local snap
    snap=$(echo "$ckpt_dir"/snaps/ckpt-*.bin)
    if [[ ! -f "$snap" ]]; then
        echo "FAIL: --checkpoint-at $mid wrote no snapshot" >&2
        exit 1
    fi
    cp "$snap" "$artifact_dir/$artifact_name"
    restored_run_matches event "$snap" "$mid" "${base[@]}"
    restored_run_matches "threads 4" "$snap" "$mid" "${base[@]}" --threads 4
}

# The topology sweep figure (mesh / fat-tree-8 / fat-tree-16 / torus-8 ×
# baseline/NetCrafter) must render identically sequential and on 4
# workers; the rendered table is kept as a CI artifact.
step_topology_figure() {
    local topo_out par_out
    capture_figures topo_out "$seq_err" --quick topology
    capture_figures par_out "$par_err" --quick topology --jobs 4
    same_text "parallel (--jobs 4) topology figure output differs from sequential" \
        "$topo_out" "$par_out"
    printf '%s\n' "$topo_out" >"$artifact_dir/topology-figure.txt"
}

# Prefix sharing is a pure host-speed optimisation: a warmup-window
# fig14 sweep resolved through in-memory snapshot forks on 4 workers
# must render byte-identically to the cold (--no-prefix-share) sweep,
# once with sequential simulations and once with --threads 4.
step_sweep_equivalence() {
    local warmup=2800 cold_out shared_out threads
    capture_figures cold_out "$seq_err" --quick fig14 --warmup "$warmup" --no-prefix-share
    for threads in 1 4; do
        capture_figures shared_out "$par_err" --quick fig14 --warmup "$warmup" --jobs 4 \
            --threads "$threads"
        same_text "(--threads $threads) prefix-shared figure output differs from cold" \
            "$cold_out" "$shared_out"
        if ! grep -q "prefix-hit ratio" "$par_err"; then
            echo "FAIL (--threads $threads): prefix-shared sweep reported no prefix stats:" >&2
            cat "$par_err" >&2
            exit 1
        fi
    done
}

if [[ "$mode" == lint || "$mode" == all ]]; then
    run_step "cargo fmt --check" step_fmt
    run_step "cargo clippy --workspace --all-targets -- -D warnings + curated pedantic subset" step_clippy
fi

if [[ "$mode" == build-test || "$mode" == all ]]; then
    run_step "cargo build --release --offline" step_build_release
    run_step "cargo test -q --workspace" step_test_workspace
    run_step "benchmark/ consumer: build + unit tests against the current APIs" step_test_benchmark_consumer
fi

if [[ "$mode" == figures || "$mode" == all ]]; then
    run_step "figures smoke run: --quick fig14, sequential vs 4 workers" step_figures_smoke
    run_step "figures cache smoke run: warm cache must re-simulate nothing" step_figures_cache
    run_step "trace determinism: identical --trace runs (and --threads 4) must be byte-identical" step_trace_determinism
    run_step "checkpoint equivalence: uninterrupted vs midpoint checkpoint + restore" step_checkpoint_equivalence fig14-checkpoint.bin
    run_step "topology figure: --quick topology, sequential vs 4 workers" step_topology_figure
    run_step "topology checkpoint equivalence: fat-tree-8 midpoint checkpoint + restore" step_checkpoint_equivalence topology-checkpoint.bin --topology fat-tree:k=4
    run_step "sweep equivalence: cold vs prefix-shared fig14, sequential and --threads 4" step_sweep_equivalence
fi

echo "CI OK ($mode)"
