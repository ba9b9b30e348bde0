#!/usr/bin/env bash
# Hermetic CI pipeline: every step runs with --offline against an empty
# cargo registry (the workspace has no external dependencies by design —
# see README "Offline builds"). Run locally with ./ci.sh.
#
# The pipeline is split into two groups so the GitHub workflow can run
# them as parallel jobs; with no argument both run in order:
#
#   ./ci.sh lint        # fmt, clippy (with the root clippy.toml's disallowed types),
#                       # rustdoc with -D warnings (stale intra-doc links)
#   ./ci.sh build-test  # release build, workspace tests (the gated
#                       # simulated counts among them), the frozen
#                       # benchmark/ consumer's build + tests
#   ./ci.sh all         # everything (default)
#
# Every equivalence gate is a Rust test run by build-test: scheduler
# equivalence (EventDriven vs Legacy vs PDES, uninterrupted vs pause +
# resume; columns: mesh/fat-tree/torus, a pause among L2-TLB requests
# parked behind two MSHRs, and three pauses among CU retries parked at
# Table 2's CU limits and L1, each asserting its regime at the pause:
# cap-blocked, L1-stalled behind a trimmed fill, and stalled on a
# resident line under sectored fills) in crates/multigpu/tests/; the lazy
# egress-port and sleeping-source checks in crates/net/src/
# (switch.rs's lazy_ports_agree_across_schedulers, port.rs's
# sampled_port_pushed_after_sleeping_matches_per_cycle_ticks,
# synthetic.rs's sources_sleep_between_tokens_and_schedulers_agree); the
# closed-form idle spans of the integer token bucket against its per-cycle
# loop in crates/sim/src/timing.rs (idle_spans_settle_to_the_per_cycle_level);
# the FlatMap <-> BTreeMap codec check in crates/sim/src/flatmap.rs
# (flat_map_matches_a_btree_map_and_its_bytes: seeded insert, replace and
# remove runs hold the same entries in the same ascending order and save
# the same bytes at every step, and either map's blob loads into the
# other); the gated
# cycle/tick counts (ci/BENCH_*.baseline.json), --jobs, the disk cache,
# prefix-shared sweeps (parallel_runner.rs's two panicking-sweep tests
# referee the runner's task channel: a job or a representative that
# panics ends a two-worker sweep; prefix_sweep.rs's
# prefix_counts_are_the_job_stat_tallies holds the derived prefix
# counts to the job stats) and the checkpoint files of the `simulate` binary
# (one restores into its own run only; another seed, workload, link
# bandwidth or CU count exits 2) in crates/bench/tests/; the snapshot run
# id (snapshot_corruption.rs: another run's snapshot fails WrongRun, a
# sibling's fork at warmup - 1 restores) and the version-11 golden bytes
# in crates/multigpu/tests/. Figure coverage is held there too: every table
# resolves its jobs through Runner::sweep, so parallel_runner.rs's
# figure_output_is_identical_across_worker_counts and
# warm_cache_replays_every_figure_run reach each one, and figures.rs's
# sweep_jobs_enumerate_every_id checks that only table1 and table3 list
# none. Nothing here measures host time: benchmark/
# does (README "Measuring host time").
#
# The fresh gated-count reports are left in $CI_ARTIFACT_DIR (default:
# ./ci-artifacts) for the workflow to upload. When $GITHUB_STEP_SUMMARY
# is set, per-step wall times are appended to it as a markdown table.
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-all}
case "$mode" in
    lint | build-test | all) ;;
    *)
        echo "usage: ./ci.sh [lint|build-test|all]" >&2
        exit 2
        ;;
esac

artifact_dir=${CI_ARTIFACT_DIR:-ci-artifacts}
mkdir -p "$artifact_dir"

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

# Every doc comment builds: an intra-doc link to a deleted item or field,
# or a redundant explicit link target, fails here.
step_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
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

if [[ "$mode" == lint || "$mode" == all ]]; then
    run_step "cargo fmt --check" step_fmt
    run_step "cargo clippy --workspace --all-targets -- -D warnings + curated pedantic subset" step_clippy
    run_step "RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps" step_doc
fi

if [[ "$mode" == build-test || "$mode" == all ]]; then
    run_step "cargo build --release --offline" step_build_release
    run_step "cargo test -q --workspace" step_test_workspace
    run_step "benchmark/ consumer: build + unit tests against the current APIs" step_test_benchmark_consumer
fi

echo "CI OK ($mode)"
