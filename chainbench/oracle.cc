// The serial-replay oracle: one streaming pass over the blocks with the
// serial executor, per-block roots from a trie fed by its diffs on a second
// thread, every RPC reply re-evaluated at its pinned block, and the final
// root rebuilt from scratch. No per-block state copies.
#include <algorithm>
#include <optional>
#include <thread>

#include "chainbench/common.h"
#include "src/chain/bounded_queue.h"
#include "src/chain/commit.h"
#include "src/state/state_view.h"

namespace chainbench {
namespace {

using namespace pevm;

bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  return a.status == b.status && a.value == b.value && a.bytes == b.bytes &&
         a.call_status == b.call_status && a.gas_used == b.gas_used &&
         a.writes_discarded == b.writes_discarded;
}

}  // namespace

bool ReplayOracle(const Inputs& inputs, size_t blocks, const std::vector<const Reply*>& replies,
                  std::vector<Hash256>* roots, std::string* error) {
  std::vector<const Reply*> pending(replies);
  std::stable_sort(pending.begin(), pending.end(), [](const Reply* a, const Reply* b) {
    return a->response.block_index < b->response.block_index;
  });
  for (const Reply* reply : pending) {
    if (!reply->response.ok() || reply->response.block_index > blocks) {
      *error = "a reply was refused or pinned past the replayed blocks";
      return false;
    }
  }
  // The trie seeds from genesis and folds each block's diff on its own
  // thread while the blocks execute, as ChainRunner's commit stage does.
  BoundedQueue<StateDiff> diffs(std::max<size_t>(1, blocks));
  Hash256 seed_root;
  std::thread folder([&] {
    CommitOptions commit;
    commit.os_threads = 3;  // The oracle runs after every timed phase.
    IncrementalStateTrie trie(inputs.genesis, nullptr, IncrementalStateTrie::SeedMode::kFresh,
                              commit);
    seed_root = trie.Root();
    while (std::optional<StateDiff> diff = diffs.Pop()) {
      trie.ApplyDiff(*diff);
      roots->push_back(trie.Root());
    }
  });
  WorldState state = inputs.genesis;
  std::unique_ptr<Executor> serial = MakeExecutor(ExecutorKind::kSerial, ExecOptions{});
  size_t next = 0;
  for (size_t b = 0; error->empty(); ++b) {
    // Replies pinned at block index b see the state after b blocks; their
    // roots are checked once the trie has caught up.
    for (; next < pending.size() && pending[next]->response.block_index == b; ++next) {
      const Reply& reply = *pending[next];
      WorldStateReader reader(state);
      if (!SameAnswer(reply.response, EvalQuery(*reply.request, reader, b, Hash256{}))) {
        *error = "RPC reply differs from serial replay at block " + std::to_string(b);
      }
    }
    if (b == blocks) {
      break;
    }
    state.BeginDiff();
    serial->Execute(inputs.blocks[b], state);
    diffs.Push(state.TakeDiff());
  }
  if (!error->empty()) {
    diffs.Abort();
    folder.join();
    return false;
  }
  diffs.Close();
  const Hash256 scratch_root = state.StateRoot();  // While the trie catches up.
  folder.join();
  for (const Reply* reply : pending) {
    const uint64_t b = reply->response.block_index;
    if (reply->response.root != (b == 0 ? seed_root : (*roots)[b - 1])) {
      *error = "RPC reply root differs from serial replay at block " + std::to_string(b);
      return false;
    }
  }
  if (scratch_root != (blocks == 0 ? seed_root : roots->back())) {
    *error = "incremental replay root differs from the from-scratch state root";
    return false;
  }
  return true;
}

}  // namespace chainbench
