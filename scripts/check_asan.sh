#!/usr/bin/env bash
# CI entry for memory-safety: builds the tree with AddressSanitizer +
# UndefinedBehaviorSanitizer (PEVM_SANITIZE=address,undefined — the CMake
# option passes the value straight to -fsanitize=) and runs the suites that
# stress ownership boundaries hardest: the query tier's refcounted snapshot
# handles and deferred pruning (use-after-release is exactly the bug class
# the retention contract exists to prevent), the bounded queue's
# close/abort-with-items-in-flight paths, the KV store's segment buffers and
# compaction, the trie's node recycling, the code cache's shared analyses
# and the interpreter's PUSH decoding under the code-cache differential
# suites, the HTTP parser under seeded malformed input, the ops plane's
# endpoints (the live trace is served as a GET response body; a POST to it is
# refused and writes nothing), the prefetch suite (SimStore::WarmBlock hands
# its key list to pool workers by batch index, so its lifetime must cover the
# whole ParallelFor), the thread pool (workers run through a pointer to the
# caller's function, which concurrent callers queue for on the job mutex),
# the chain runner's shutdown/abort teardown (the store's warm-up pool
# included), and its report: the per-block vectors are moved into
# ChainReport and Finish/Abort return a reference into the runner, which the
# persistence and resume suites read across reopened runners. The
# substrate suites run here too: UBSan checks the unrolled Keccak's rotations
# and the limb shifts of U256 division, ASan the bounds of the RLP writers the
# trie encodes nodes with.
#
# Selection goes through ctest so gtest_discover_tests stays the single
# source of truth. An empty selection is a HARD FAILURE — the gate must not
# pass while sanitizing nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}
# Parameterized suites carry their instantiation prefix ("Seeds/MptPropertyTest...").
ASAN_REGEX=${ASAN_REGEX:-'^(Seeds/)?(BoundedQueueTest|SnapshotRegistryTest|QueryEngineTest|QueryInertnessTest|ChainRunnerTest|ChainShutdownTest|ChainPersistenceTest|ChainResumeTest|KvStoreTest|KvConcurrencyTest|KvCompactionTest|ShardedMpt|IncrementalStateTrieTest|PrefetchPropertyTest|ThreadPoolTest|WorldStateTest|StateViewTest|CodeCacheTest|CodeCacheDifferentialTest|HttpServerTest|FlightRecorderTest|WatchdogTest|OpsPlaneTest|KeccakTest|U256Test|U256PropertyTest|RlpTest|MptTest|MptPropertyTest|MptDeleteTest|MptApplyDiffPropertyTest|MptHarvestTest)'}

# Intentional process-lifetime singletons (the telemetry registry, memoized
# test fixtures) are leaked by design; leak checking would only report those.
export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=0}

cmake -B "$BUILD_DIR" -S . -DPEVM_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bounded_queue_test query_test chain_test kv_test trie_test state_test \
           codecache_test ops_test support_test recovery_test prefetch_test determinism_test

cd "$BUILD_DIR"
selected=$(ctest -N -R "$ASAN_REGEX" | sed -n 's/^Total Tests: //p')
if [[ -z "$selected" || "$selected" -eq 0 ]]; then
  echo "FATAL: ctest selection '$ASAN_REGEX' matched ${selected:-0} tests." >&2
  echo "The ASan gate would have passed vacuously; fix the regex or the test registration." >&2
  exit 1
fi
echo "== ASan+UBSan: running $selected tests matching $ASAN_REGEX =="
ctest -R "$ASAN_REGEX" --output-on-failure -j "$(nproc)"

echo "== ASan+UBSan: reduced query-serving oracle battery =="
# Lifetime stress: handles pinned across retention evictions, engine torn
# down with futures in flight, registry destroyed after every release.
./tests/query_test --blocks=6 --gtest_filter='QueryOracleTest.*'

echo "AddressSanitizer+UBSan: all $selected selected tests (+ query battery slice) clean."
