#!/usr/bin/env bash
# Single verification entry point (CI and local).
#
# Legs, in default order:
#   analyze — ci/analyze.sh: determinism lint, clang-tidy gate (skipped
#             loudly when the binary is absent), -Wshadow -Wconversion
#             trial build of the nbmg lib.
#   Debug   — warnings-as-errors build of everything; fast tier-1 CTest
#             subset (ctest -L tier1, which now includes the analysis
#             and stress labels); scenario-file + coordinator smokes;
#             failure-injection smoke (churn scenario, outage preset,
#             lossy backhaul — the churn CSV is byte-diffed Debug vs
#             Release); kill-and-resume checkpoint smoke (stop a citywide run
#             mid-flight, resume at a different --threads, byte-diff
#             every artifact against the uninterrupted run).
#   Release — same build with NBMG_ENABLE_LTO (so the option cannot
#             rot); the full suite including the randomized property
#             batteries; microbenchmark + multicell smokes.
#   asan    — NBMG_SANITIZE=address+undefined (ASan+UBSan+LSan), tests
#             only, tier-1 label incl. the high-contention sweep stress
#             suite; suppressions from ci/sanitizers/ (policy: empty).
#   tsan    — NBMG_SANITIZE=thread, same test set; the stress suite runs
#             the citywide presets at --threads 8 specifically to put
#             the worker pool under TSan.
#   perfbench — the campaign benchmark harness (perfbench/): its Python
#             unit tests, then one short traced rach_storm run, which
#             builds perfbench/campaign_bench.cpp against the library and
#             must report "correct": true on its last line.
#
#   $ ci/verify.sh                 # all legs
#   $ ci/verify.sh Release         # just one
#   $ ci/verify.sh asan tsan       # just the sanitizer legs
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
legs=("${@:-Debug}")
if [[ $# -eq 0 ]]; then
  legs=(analyze Debug Release asan tsan perfbench)
fi

run_scenario_smokes() {
  local build_dir="$1"
  echo "=== ${build_dir}: scenario-file smoke (--scenario / --preset) ==="
  "${build_dir}/bench/fig6a_light_sleep_uptime" \
    --scenario examples/scenarios/smoke.scenario --threads 2
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/smoke.scenario --threads 2
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/citywide_16cells.scenario \
    --devices 800 --cells 8 --csv
  "${build_dir}/examples/citywide_rollout" \
    --scenario examples/scenarios/citywide_16cells.scenario 800 8 42
  "${build_dir}/bench/ablation_scptm" --preset ablation-scptm \
    --devices 50 --runs 2 --threads 2

  echo "=== ${build_dir}: wall-clock coordinator smoke (staggered + backhaul) ==="
  "${build_dir}/examples/run_scenario" --preset citywide-staggered \
    --devices 400 --runs 1 --threads 2
  "${build_dir}/examples/run_scenario" --preset citywide-backhaul \
    --devices 400 --runs 1 --threads 2 --csv
  "${build_dir}/examples/citywide_rollout" \
    --scenario examples/scenarios/citywide_staggered.scenario \
    --devices 800 --cells 8
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/citywide_backhaul.scenario \
    --devices 400 --runs 1

  echo "=== ${build_dir}: telemetry smoke (trace + metrics + timeline) ==="
  "${build_dir}/examples/run_scenario" --preset smoke --threads 2 \
    --telemetry full \
    --trace-out "${build_dir}/telemetry_smoke.trace.jsonl" \
    --metrics-out "${build_dir}/telemetry_smoke.metrics.csv" \
    --timeline-out "${build_dir}/telemetry_smoke.timeline.json"

  echo "=== ${build_dir}: failure-injection smoke (churn + outage + lossy backhaul) ==="
  # The churn CSV is captured for the Debug-vs-Release byte-diff below:
  # fault draws come only from the derived "faults" streams, so the
  # faulted aggregates are pure functions of (spec, seed) too.
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/churn.scenario \
    --devices 100 --runs 2 --threads 2 --csv \
    > "${build_dir}/churn_smoke.csv"
  "${build_dir}/examples/run_scenario" --preset outage \
    --devices 400 --runs 1 --threads 2 --csv > /dev/null
  "${build_dir}/examples/run_scenario" --preset citywide-backhaul \
    --devices 400 --runs 1 --threads 2 --backhaul-loss 0.2 --csv > /dev/null

  run_checkpoint_smoke "${build_dir}"
}

run_checkpoint_smoke() {
  local build_dir="$1"
  echo "=== ${build_dir}: kill-and-resume smoke (checkpoint -> stop -> resume) ==="
  # A citywide run is checkpointed, killed mid-flight via the stop
  # budget (exit 3 is the deliberate-stop code), then resumed at a
  # different --threads.  Every artifact — stdout CSV, trace, metrics,
  # timeline — must match the uninterrupted run byte for byte.
  local ckpt_dir="${build_dir}/checkpoint_smoke"
  rm -rf "${ckpt_dir}"
  mkdir -p "${ckpt_dir}"
  local common=(--scenario examples/scenarios/citywide_16cells.scenario
                --devices 400 --cells 4 --runs 2 --telemetry full --csv)

  "${build_dir}/examples/run_scenario" "${common[@]}" --threads 8 \
    --trace-out "${ckpt_dir}/full.trace.jsonl" \
    --metrics-out "${ckpt_dir}/full.metrics.csv" \
    --timeline-out "${ckpt_dir}/full.timeline.json" \
    > "${ckpt_dir}/full.csv"

  set +e
  "${build_dir}/examples/run_scenario" "${common[@]}" --threads 8 \
    --checkpoint-out "${ckpt_dir}/snap.bin" --checkpoint-stop-after 3 \
    > "${ckpt_dir}/interrupted.csv"
  local status=$?
  set -e
  if [[ ${status} -ne 3 ]]; then
    echo "error: interrupted run exited ${status}, expected checkpoint-stop code 3" >&2
    exit 1
  fi
  [[ -f "${ckpt_dir}/snap.bin" ]]

  "${build_dir}/examples/run_scenario" "${common[@]}" --threads 2 \
    --resume "${ckpt_dir}/snap.bin" \
    --trace-out "${ckpt_dir}/resumed.trace.jsonl" \
    --metrics-out "${ckpt_dir}/resumed.metrics.csv" \
    --timeline-out "${ckpt_dir}/resumed.timeline.json" \
    > "${ckpt_dir}/resumed.csv"

  cmp "${ckpt_dir}/full.csv" "${ckpt_dir}/resumed.csv"
  cmp "${ckpt_dir}/full.trace.jsonl" "${ckpt_dir}/resumed.trace.jsonl"
  cmp "${ckpt_dir}/full.metrics.csv" "${ckpt_dir}/resumed.metrics.csv"
  cmp "${ckpt_dir}/full.timeline.json" "${ckpt_dir}/resumed.timeline.json"
}

run_perfbench_leg() {
  echo "=== perfbench: harness unit tests + traced rach_storm smoke ==="
  python3 -m unittest discover -s perfbench -p 'test_*.py'
  local last
  last="$(python3 perfbench/run.py --workload rach_storm --seed 1 \
            --seconds 1 --trace 1 | tail -n 1)"
  echo "${last}"
  if ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' "${last}"; then
    echo "error: perfbench rach_storm run did not report \"correct\": true" >&2
    exit 1
  fi
}

run_sanitizer_leg() {
  local mode="$1" build_dir="$2"
  echo "=== sanitize(${mode}) -> ${build_dir} ==="
  # Suppression files are checked in (policy: they stay empty; see the
  # headers in ci/sanitizers/).  halt_on_error turns any report into a
  # failing leg.
  export ASAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/asan.supp:detect_leaks=1:halt_on_error=1"
  export LSAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/lsan.supp"
  export UBSAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/ubsan.supp:print_stacktrace=1:halt_on_error=1"
  export TSAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/tsan.supp:halt_on_error=1"
  # Tests only: the sanitizer legs exist to run the tier-1 + stress
  # suites under instrumentation, not to rebuild benches/examples.
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Debug -DNBMG_WERROR=ON \
        -DNBMG_SANITIZE="${mode}" -DNBMG_BUILD_BENCH=OFF \
        -DNBMG_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" -j"${jobs}"
  # tier1 includes the analysis (determinism lint) and stress
  # (high-contention citywide sweep at --threads 8) labels.
  ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}" -L tier1
}

for leg in "${legs[@]}"; do
  case "${leg}" in
    analyze)
      ci/analyze.sh
      continue
      ;;
    asan)
      run_sanitizer_leg "address+undefined" build-asan
      continue
      ;;
    tsan)
      run_sanitizer_leg "thread" build-tsan
      continue
      ;;
    perfbench)
      run_perfbench_leg
      continue
      ;;
    Debug|Release)
      ;;
    *)
      echo "error: unknown leg '${leg}' (expected analyze, Debug, Release, asan, tsan, perfbench)" >&2
      exit 2
      ;;
  esac

  config="${leg}"
  build_dir="build-$(echo "${config}" | tr '[:upper:]' '[:lower:]')"
  lto=OFF
  if [[ "${config}" == "Release" ]]; then
    lto=ON
  fi
  echo "=== ${config} -> ${build_dir} (LTO=${lto}) ==="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}" -DNBMG_WERROR=ON \
        -DNBMG_ENABLE_LTO="${lto}"
  cmake --build "${build_dir}" -j"${jobs}"
  if [[ "${config}" == "Release" ]]; then
    # Full suite: tier 1 plus the property batteries.
    ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}"
  else
    ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}" -L tier1
  fi

  run_scenario_smokes "${build_dir}"

  # The telemetry artifacts are pure functions of (spec, seed): the Debug
  # and Release runs of the smoke above must agree byte for byte.
  if [[ "${config}" == "Release" && -f build-debug/telemetry_smoke.trace.jsonl ]]; then
    echo "=== cross-config determinism: Debug vs Release telemetry artifacts ==="
    cmp build-debug/telemetry_smoke.trace.jsonl "${build_dir}/telemetry_smoke.trace.jsonl"
    cmp build-debug/telemetry_smoke.metrics.csv "${build_dir}/telemetry_smoke.metrics.csv"
    cmp build-debug/telemetry_smoke.timeline.json "${build_dir}/telemetry_smoke.timeline.json"
    cmp build-debug/churn_smoke.csv "${build_dir}/churn_smoke.csv"
  fi

  if [[ "${config}" == "Release" ]]; then
    if [[ -x "${build_dir}/bench/microbench_kernels" ]]; then
      echo "=== ${config}: microbenchmark smoke (small kernel cases) ==="
      "${build_dir}/bench/microbench_kernels" \
        --benchmark_filter='PagingFirstPoAtOrAfter/3$|EventQueueScheduleRun/1000$|EventQueueCancelHeavy/10000$|WindowCoverGreedy/100$|GreedyCover/1000/|DrScPlan/200$|FullCampaign/100$' \
        --benchmark_min_time=0.01
    fi

    echo "=== ${config}: multicell smoke (sharded fleet, 8 cells) ==="
    "${build_dir}/bench/fig_multicell_scaling" \
      --devices 2000 --cells 8 --runs 1 --threads 2
  fi
done

echo "verify: all legs green"
