#!/usr/bin/env bash
# Tier-1 verify (must match ROADMAP.md): configure, build, run the full
# GoogleTest suite. Exits non-zero on the first failure.
#
# After tier-1, the correctness-tooling stages:
#   - determinism lint   tools/lint_determinism.py over src/ (hash-order
#                        iteration, pointer keys, wall clocks, guard drift)
#   - round-trip smoke   jim_cli save → load must transcript-diff clean
#   - OBS stage          observability determinism: parity suites re-run
#                        with JIM_METRICS=1, CLI transcripts diffed with
#                        metrics + tracing on vs off, and the emitted
#                        snapshot checked for engine/exec/storage metrics
#   - TSAN stage         parallel exec + parity suites, the concurrent
#                        metrics-registry test and the serving suites
#                        (sessions racing on an instance's shared first
#                        picks) under -DJIM_SANITIZE=thread, plus a guard that every tsan.supp suppression still
#                        matches a symbol the instrumented binaries
#                        actually reference
#   - ASAN stage         columnar storage/ingest suites plus the lookahead
#                        pick parity + trail-undo suites under address, the
#                        writer's byte parity against its naive reference,
#                        the class build's against the RGS grouping, and
#                        the request decoder and goal parser against theirs
#   - UBSAN stage        integer-kernel + storage suites (the lookahead
#                        kernel's edge cases and the pair-set inference
#                        state's 0-, 1- and 2-word parity and the class
#                        build's included, the writer's byte parity, and the
#                        request-decoder and goal-parse parity) AND the
#                        deterministic fuzz driver (5000 mutated JIMC
#                        images, goal strings and protocol request lines
#                        through ParseJson / ParseRequest, the goals and
#                        requests checked against their naive references)
#                        under address+undefined with every finding fatal
#                        (-fno-sanitize-recover)
#   - CRASH stage        fault-injection + crash-recovery suites under
#                        address sanitizer: every syscall index during
#                        WriteStore crashed and replayed, old-XOR-new
#                        proven on each reopened image
#   - SERVE stage        the serving daemon under address sanitizer:
#                        protocol/session-manager suites, the checkpoint
#                        crash-point enumeration, the 64-session TCP e2e
#                        with kill+restart transcript diffing, plus the
#                        JSON-reader suite and the request-decoder and
#                        goal-parse parity suites, a jim_cli serve --stdio
#                        smoke against the round-trip instance, and a
#                        serve run with a misspelt flag that must fail
#   - audit stage        -DJIM_AUDIT_INVARIANTS=ON build running the parity
#                        suites (the pair-set inference state against its
#                        naive partition reference included) with every
#                        engine mutation re-deriving its CheckInvariants
#                        contract, and the session-manager suite with
#                        every shared first pick recomputed
#   - clang-tidy stage   advisory, opt-in via JIM_RUN_CLANG_TIDY=1
#
# Every stage selects its suites through run_ctest, which fails when an
# alternative of the stage's -R regex matches no built test.
#
# Sanitizer stages probe the toolchain first (compile-and-link of a trivial
# program under the flag) and auto-skip with a loud warning when the
# runtime is missing — JIM_SKIP_TSAN/ASAN/UBSAN/CRASH/AUDIT=1 still
# force-skip.
set -euxo pipefail
cd "$(dirname "$0")"

CXX_BIN="${CXX:-c++}"

# True iff the toolchain can build AND link under the given -fsanitize flag
# (catches both an unsupported flag and a missing libtsan/libasan/libubsan).
sanitizer_available() {
  local flag="$1" probe
  probe="$(mktemp /tmp/jim_san_probe.XXXXXX)"
  if echo 'int main(){return 0;}' | \
      "$CXX_BIN" -fsanitize="$flag" -x c++ - -o "$probe" >/dev/null 2>&1; then
    rm -f "$probe"
    return 0
  fi
  rm -f "$probe"
  return 1
}

warn_skip() {
  echo "WARNING: $1 — skipping the $2 stage" >&2
}

# run_ctest DIR REGEX [VAR=value ...]: runs the tests built in DIR whose
# names match REGEX, with the given environment. First checks that every
# |-separated alternative of REGEX matches at least one test there
# (`ctest -N`), and fails naming each one that does not: an alternative
# naming a deleted or renamed suite would otherwise go silently dead, the
# same rot the tsan.supp stale-suppression guard catches.
run_ctest() {
  local dir="$1" regex="$2" alternative count dead=0
  shift 2
  local -a alternatives
  IFS='|' read -ra alternatives <<< "$regex"
  for alternative in "${alternatives[@]}"; do
    count="$(cd "$dir" && ctest -N -R "$alternative" | \
      sed -n 's/^Total Tests: //p')"
    if [[ "${count:-0}" == "0" ]]; then
      echo "ERROR: ctest -R alternative '$alternative' matches no test in" \
        "$dir — drop it or follow its suite's rename" >&2
      dead=1
    fi
  done
  [[ "$dead" == "0" ]] || exit 1
  (cd "$dir" && env "$@" ctest --output-on-failure -j"$(nproc)" -R "$regex")
}

# --- tier-1: full build + full suite -------------------------------------
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)")

# --- determinism lint ----------------------------------------------------
python3 tools/lint_determinism.py

# --- persistent-storage round-trip smoke ---------------------------------
# Save an instance from CSV, reopen it from the JIMC file, and demand
# byte-identical session transcripts (the save/load notes go to stderr, so
# stdout must diff clean).
smokedir="$(mktemp -d)"
trap 'rm -rf "$smokedir"' EXIT
cat > "$smokedir/flights.csv" <<'EOF'
From,To,Airline,City,Discount
Paris,Lille,AF,Lille,AF
Paris,Lyon,AF,Lyon,AF
Lyon,Paris,WF,Paris,WF
Lille,Nice,WF,Nice,AF
Nice,Paris,AF,Nice,WF
EOF
./build/jim_cli infer "$smokedir/flights.csv" --auto \
  --goal="To=City && Airline=Discount" \
  --save-instance="$smokedir/flights.jimc" > "$smokedir/saved.txt"
./build/jim_cli infer --load-instance="$smokedir/flights.jimc" --auto \
  --goal="To=City && Airline=Discount" > "$smokedir/loaded.txt"
diff "$smokedir/saved.txt" "$smokedir/loaded.txt"

# --- OBS stage (observability determinism) -------------------------------
# The contract src/obs/ ships under: metrics and tracing observe a session,
# they never steer it. Three proofs, all against the tier-1 build:
#   1. the parity suites pass again with the metrics registry hot
#      (JIM_METRICS=1) — picks and transcripts still equal the naive
#      references;
#   2. a jim_cli run with --metrics-out and --trace produces stdout
#      byte-identical to the plain run (all observability output goes to
#      stderr or the snapshot file);
#   3. the emitted snapshot actually contains engine and storage metrics
#      for a --load-instance session, exec metrics for a CSV ingest large
#      enough to run on the shared pool, and a daemon session's
#      engine.cow_detaches and serve.picks.shared — instrumentation that
#      silently stops recording is a failure, not a quiet degrade.
if [[ "${JIM_SKIP_OBS:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_OBS=1" "OBS"
else
  run_ctest build \
    'LookaheadParity|Speculation|EncodedParity|IncrementalParity|MappedParity|KernelParity|FactorizedParity' \
    JIM_METRICS=1
  ./build/jim_cli infer --load-instance="$smokedir/flights.jimc" --auto \
    --goal="To=City && Airline=Discount" \
    --metrics-out="$smokedir/metrics.json" --trace \
    > "$smokedir/observed.txt" 2> "$smokedir/observed.err"
  diff "$smokedir/loaded.txt" "$smokedir/observed.txt"
  # The family prefixes, plus the lookahead and propagation work counters:
  # a lookahead session must record its scored candidates and the classes
  # its negative labels retested (engine.watch_wakes), or the per-label
  # instrumentation went silent.
  for prefix in '"engine.' '"storage.' \
      '"engine.simulate_label_both' '"engine.watch_wakes'; do
    if ! grep -qF "$prefix" "$smokedir/metrics.json"; then
      echo "ERROR: metrics snapshot is missing ${prefix}* metrics —" \
        "instrumentation went silent" >&2
      exit 1
    fi
  done
  # The engine build is serial, so the exec pool is checked where it still
  # runs: ingesting a relation of at least rel::kParallelIngestMinRows
  # (2048) rows.
  awk 'BEGIN { print "A,B,C"; for (i = 0; i < 2048; ++i) \
      print i % 7 "," i % 5 "," i % 3 }' > "$smokedir/ingest.csv"
  ./build/jim_cli infer "$smokedir/ingest.csv" --auto --goal="A=B" \
    --metrics-out="$smokedir/ingest_metrics.json" > /dev/null
  if ! grep -qF '"exec.' "$smokedir/ingest_metrics.json"; then
    echo "ERROR: metrics snapshot of a 2048-row ingest is missing exec.*" \
      "metrics — instrumentation went silent" >&2
    exit 1
  fi
  grep -qF '"steps"' "$smokedir/observed.err"
  # A daemon session labels its engine in place: its one copy-on-write
  # detach must show up in the snapshot, or the work counter went silent.
  # The second of two fresh lookahead sessions reads the instance's shared
  # root pick: serve.picks.shared must be recorded, and both suggest replies
  # (lines 6 and 7) must name the same class.
  printf '%s\n' '{"verb":"create","strategy":"random","seed":1}' \
      '{"verb":"suggest","session":"s1"}' \
      '{"verb":"label","session":"s1","class":0,"answer":true}' \
      '{"verb":"create","strategy":"lookahead-entropy"}' \
      '{"verb":"create","strategy":"lookahead-entropy"}' \
      '{"verb":"suggest","session":"s2"}' \
      '{"verb":"suggest","session":"s3"}' \
      '{"verb":"shutdown"}' | \
    ./build/jim_cli serve --stdio \
      --load-instance="$smokedir/flights.jimc" \
      --metrics-out="$smokedir/serve_metrics.json" \
      > "$smokedir/serve_observed.txt" 2> "$smokedir/serve_observed.err"
  for metric in '"engine.cow_detaches"' '"serve.picks.shared"'; do
    if ! grep -qF "$metric" "$smokedir/serve_metrics.json"; then
      echo "ERROR: metrics snapshot is missing ${metric} —" \
        "instrumentation went silent" >&2
      exit 1
    fi
  done
  mapfile -t root_picks < <(sed -n '6,7p' "$smokedir/serve_observed.txt" | \
    grep -oE '"class":[0-9]+')
  if [[ "${#root_picks[@]}" != "2" || \
        "${root_picks[0]}" != "${root_picks[1]}" ]]; then
    echo "ERROR: two fresh lookahead-entropy sessions suggested" \
      "'${root_picks[*]}' — their root picks must be one class" >&2
    exit 1
  fi
fi

# --- TSAN stage ----------------------------------------------------------
if [[ "${JIM_SKIP_TSAN:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_TSAN=1" "TSAN"
elif ! sanitizer_available thread; then
  warn_skip "toolchain cannot link -fsanitize=thread (libtsan missing?)" \
    "TSAN"
else
  cmake -B build-tsan -S . -DJIM_SANITIZE=thread -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j --target \
    exec_thread_pool_test exec_batch_runner_test \
    core_lookahead_parity_test core_speculation_test \
    core_engine_cow_test core_encoded_parity_test relational_dictionary_test \
    core_tuple_store_test query_query_test obs_metrics_test \
    serve_session_manager_test serve_server_e2e_test
  # Stale-suppression guard: every race: pattern in tsan.supp must still
  # match a symbol some instrumented test binary references (nm -C), or the
  # suppression is dead weight hiding future real races — remove it.
  nm -C build-tsan/exec_thread_pool_test build-tsan/exec_batch_runner_test \
    > "$smokedir/tsan_symbols.txt" 2>/dev/null
  grep -v '^\s*#' tsan.supp | grep -oE '^race:.*' | sed 's/^race://' | \
  while IFS= read -r pattern; do
    if ! grep -qF "$pattern" "$smokedir/tsan_symbols.txt"; then
      echo "ERROR: tsan.supp suppression '$pattern' matches no symbol in" \
        "the instrumented binaries — stale suppression, remove it" >&2
      exit 1
    fi
  done
  run_ctest build-tsan \
    'ThreadPool|BatchSessionRunner|LookaheadParity|Speculation|EngineCow|EncodedParity|ParallelEncode|ParallelIngest|UniversalTable|Catalog|MetricsTest|SessionManager|ServerE2E' \
    TSAN_OPTIONS="suppressions=$(pwd)/tsan.supp ${TSAN_OPTIONS:-}"
fi

# --- ASAN stage ----------------------------------------------------------
if [[ "${JIM_SKIP_ASAN:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_ASAN=1" "ASAN"
elif ! sanitizer_available address; then
  warn_skip "toolchain cannot link -fsanitize=address (libasan missing?)" \
    "ASAN"
else
  cmake -B build-asan -S . -DJIM_SANITIZE=address -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j --target \
    relational_dictionary_test core_tuple_store_test \
    query_factorized_parity_test core_encoded_parity_test query_query_test \
    core_engine_cow_test core_lookahead_parity_test core_speculation_test \
    storage_jimc_format_test storage_mapped_parity_test \
    storage_store_writer_parity_test core_class_build_parity_test \
    serve_request_decoder_parity_test core_goal_parse_parity_test
  run_ctest build-asan \
    'Dictionary|EncodeColumn|EncodedRelation|TupleStore|FactorizedParity|EncodedParity|LookaheadParity|Speculation|UniversalTable|EngineCow|Jimc|MappedParity|ParallelEncode|StoreWriterParity|ClassBuildParity|RequestDecoderParity|GoalParseParity'
fi

# --- UBSAN stage (address+undefined, findings fatal) ---------------------
if [[ "${JIM_SKIP_UBSAN:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_UBSAN=1" "UBSAN"
elif ! sanitizer_available address,undefined; then
  warn_skip \
    "toolchain cannot link -fsanitize=address,undefined (libubsan missing?)" \
    "UBSAN"
else
  cmake -B build-ubsan -S . -DJIM_SANITIZE="address;undefined" \
    -DJIM_WERROR=ON -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-ubsan -j --target \
    lattice_partition_test lattice_antichain_test lattice_kernel_parity_test \
    core_lookahead_kernel_parity_test core_inference_state_parity_test \
    lattice_enumeration_test \
    core_tuple_store_test core_invariant_audit_test \
    relational_dictionary_test storage_jimc_format_test \
    storage_byte_reader_test storage_mapped_parity_test \
    storage_store_writer_parity_test core_class_build_parity_test \
    serve_request_decoder_parity_test core_goal_parse_parity_test \
    fuzz_jimc_main
  run_ctest build-ubsan \
    'Partition|Antichain|KernelParity|InferenceStateParity|BellNumber|Refinements|Covers|TupleStore|Dictionary|Jimc|ByteReader|MappedParity|InvariantAudit|StoreWriterParity|ClassBuildParity|RequestDecoderParity|GoalParseParity|fuzz_jimc_smoke'
  # The deterministic fuzz driver, long run: 5000 mutated JIMC images, goal
  # strings and protocol request lines, every outcome a typed Status and
  # every goal and request decided as its naive reference decides it, under
  # ASAN+UBSAN with findings fatal. Reproduce any failure with the printed
  # seed.
  ./build-ubsan/fuzz_jimc_main --seed=1 --iterations=5000
fi

# --- CRASH stage (fault injection + crash recovery under ASAN) -----------
# Reuses the ASAN tree: the crash-point enumeration (every syscall index
# during WriteStore) and the torn-write replays are exactly where a latent
# out-of-bounds read in recovery code would hide.
if [[ "${JIM_SKIP_CRASH:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_CRASH=1" "CRASH"
elif ! sanitizer_available address; then
  warn_skip "toolchain cannot link -fsanitize=address (libasan missing?)" \
    "CRASH"
else
  cmake -B build-asan -S . -DJIM_SANITIZE=address -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j --target \
    storage_fault_env_test storage_crash_recovery_test
  run_ctest build-asan 'FaultEnv|PosixEnv|CrashRecovery'
fi

# --- SERVE stage (serving daemon under ASAN + stdio smoke) ---------------
# Reuses the ASAN tree: connection handlers, checkpoint recovery, and the
# session replay path juggle raw buffers across threads — exactly where a
# lifetime bug would hide. The e2e suite in here is the PR's acceptance
# driver: 64 concurrent TCP sessions, daemon killed and restarted
# mid-stream, every remaining response line diffed byte-for-byte.
if [[ "${JIM_SKIP_SERVE:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_SERVE=1" "SERVE"
elif ! sanitizer_available address; then
  warn_skip "toolchain cannot link -fsanitize=address (libasan missing?)" \
    "SERVE"
else
  cmake -B build-asan -S . -DJIM_SANITIZE=address -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j --target \
    serve_protocol_test serve_session_manager_test \
    serve_checkpoint_crash_test serve_server_e2e_test \
    util_json_reader_test serve_request_decoder_parity_test \
    core_goal_parse_parity_test
  run_ctest build-asan \
    'Protocol|SessionManager|Serve|JsonReader|RequestDecoderParity|GoalParseParity'
  # stdio smoke against the tier-1 build: one piped daemon run must answer
  # ping/stats and exit cleanly on the shutdown verb.
  printf '%s\n' '{"verb":"ping"}' '{"verb":"stats"}' '{"verb":"shutdown"}' | \
    ./build/jim_cli serve --stdio \
      --load-instance="$smokedir/flights.jimc" \
      > "$smokedir/serve_stdio.txt" 2> "$smokedir/serve_stdio.err"
  grep -qF '"verb":"ping"' "$smokedir/serve_stdio.txt"
  grep -qF '"live":0' "$smokedir/serve_stdio.txt"
  grep -qF '"verb":"shutdown"' "$smokedir/serve_stdio.txt"
  # A misspelt flag must stop the daemon before it serves: with
  # --checkpoint_dir (underscore) it would otherwise run with checkpoints
  # off. The exit must be non-zero and the message must name the flag.
  if ./build/jim_cli serve --stdio --checkpoint_dir="$smokedir/ckpt" \
      < /dev/null > /dev/null 2> "$smokedir/serve_badflag.err"; then
    echo "ERROR: jim_cli serve accepted the unknown flag --checkpoint_dir" >&2
    exit 1
  fi
  grep -qF -- "--checkpoint_dir" "$smokedir/serve_badflag.err"
  if [[ -e "$smokedir/ckpt" ]]; then
    echo "ERROR: jim_cli serve created a checkpoint directory from an" \
      "unknown flag" >&2
    exit 1
  fi
fi

# --- invariant-audit stage -----------------------------------------------
if [[ "${JIM_SKIP_AUDIT:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_AUDIT=1" "audit"
else
  cmake -B build-audit -S . -DJIM_AUDIT_INVARIANTS=ON -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-audit -j --target \
    core_invariant_audit_test core_lookahead_parity_test \
    core_speculation_test core_encoded_parity_test \
    core_incremental_parity_test lattice_kernel_parity_test \
    core_lookahead_kernel_parity_test \
    query_factorized_parity_test storage_mapped_parity_test \
    core_engine_cow_test core_label_verdict_parity_test \
    core_inference_state_parity_test core_class_build_parity_test \
    serve_session_manager_test
  run_ctest build-audit \
    'Parity|InferenceStateParity|Speculation|InvariantAudit|EngineCow|SessionManager' \
    JIM_AUDIT_INVARIANTS=1
fi

# --- clang-tidy stage (advisory, opt-in) ---------------------------------
if [[ "${JIM_RUN_CLANG_TIDY:-0}" == "1" ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    warn_skip "clang-tidy not installed" "clang-tidy"
  else
    # Advisory: report, don't gate — the curated .clang-tidy check set is
    # the contract, and new findings land as review feedback, not breakage.
    git ls-files 'src/*.cc' | \
      xargs clang-tidy -p build --quiet || \
      echo "WARNING: clang-tidy reported findings (advisory stage)" >&2
  fi
fi

echo "ci.sh: all stages passed"
