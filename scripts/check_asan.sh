#!/usr/bin/env bash
# CI entry for memory-safety: builds the tree with AddressSanitizer +
# UndefinedBehaviorSanitizer (PEVM_SANITIZE=address,undefined — the CMake
# option passes the value straight to -fsanitize=) and runs the suites that
# stress ownership boundaries hardest: the query tier's refcounted snapshot
# handles and deferred pruning (use-after-release is exactly the bug class
# the retention contract exists to prevent), the bounded queue's
# close/abort-with-items-in-flight paths, the KV store's segment buffers and
# compaction, the trie's node recycling, and the chain runner's
# shutdown/abort teardown. The substrate suites run here too: UBSan checks the
# unrolled Keccak's rotations and the limb shifts of U256 division, ASan the
# bounds of the RLP writers the trie encodes nodes with.
#
# Selection goes through ctest so gtest_discover_tests stays the single
# source of truth. An empty selection is a HARD FAILURE — the gate must not
# pass while sanitizing nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}
# Parameterized suites carry their instantiation prefix ("Seeds/MptPropertyTest...").
ASAN_REGEX=${ASAN_REGEX:-'^(Seeds/)?(BoundedQueueTest|SnapshotRegistryTest|QueryEngineTest|QueryInertnessTest|ChainRunnerTest|ChainShutdownTest|KvStoreTest|KvConcurrencyTest|KvCompactionTest|ShardedMpt|IncrementalStateTrieTest|WorldStateTest|StateViewTest|CodeCacheTest|HttpServerTest|FlightRecorderTest|WatchdogTest|OpsPlaneTest|KeccakTest|U256Test|U256PropertyTest|RlpTest|MptTest|MptPropertyTest|MptDeleteTest|MptApplyDiffPropertyTest|MptHarvestTest)'}

# Intentional process-lifetime singletons (the telemetry registry, memoized
# test fixtures) are leaked by design; leak checking would only report those.
export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=0}

cmake -B "$BUILD_DIR" -S . -DPEVM_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bounded_queue_test query_test chain_test kv_test trie_test state_test \
           codecache_test ops_test support_test

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
