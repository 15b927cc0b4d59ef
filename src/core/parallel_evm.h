// The ParallelEVM block executor (paper §5.1): read phase (speculative
// parallel execution with SSA operation-log generation), validation phase
// (in-order read-set checks against committed state), redo phase
// (operation-level conflict repair), write phase (commit, or full
// re-execution when the redo aborts).
#ifndef SRC_CORE_PARALLEL_EVM_H_
#define SRC_CORE_PARALLEL_EVM_H_

#include "src/exec/executor.h"

namespace pevm {

class ParallelEvmExecutor final : public Executor {
 public:
  // `pre_execution` models the Forerunner-style optimization (§6.3): SSA logs
  // are generated during the transaction-dissemination window, so the read
  // phase is off the critical path and transactions enter validation
  // directly.
  explicit ParallelEvmExecutor(const ExecOptions& options, bool pre_execution = false)
      : options_(options), pre_execution_(pre_execution) {}

  std::string_view name() const override {
    return pre_execution_ ? "parallelevm+preexec" : "parallelevm";
  }
  BlockReport Execute(const Block& block, WorldState& state) override {
    return Execute(block, state, nullptr);
  }
  BlockReport Execute(const Block& block, WorldState& state, BoundarySeeds* seeds) override;
  // Consumes full SSA-logged records: the chain's speculation stage must run
  // kWithLog so seeded transactions keep their redo capability in-block.
  SpecMode seed_mode() const override { return SpecMode::kWithLog; }
  SimStore* chain_store() override { return EnsureSimStore(options_, sim_store_); }

 private:
  ExecOptions options_;
  bool pre_execution_;
  // Simulated-storage front-end (wall-clock latency + block warm-up); lives
  // across blocks so the access-hint table learns. Null unless enabled.
  std::unique_ptr<SimStore> sim_store_;
};

}  // namespace pevm

#endif  // SRC_CORE_PARALLEL_EVM_H_
