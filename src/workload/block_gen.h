// Synthetic mainnet-like workload generation, the substitute for the paper's
// Ethereum blocks 14,000,000-15,000,000 (DESIGN.md §3.1). Contention
// structure is calibrated to the paper's own hot-spot measurements (Fig. 3):
// Zipfian contract popularity (s = 1.1 reproduces "0.1% of contracts receive
// 76% of invocations" at mainnet scale), Zipfian account activity, a
// transaction mix dominated by ERC-20 traffic, plus AMM swaps on hot pools,
// crowdfund contributions, and native transfers.
#ifndef SRC_WORKLOAD_BLOCK_GEN_H_
#define SRC_WORKLOAD_BLOCK_GEN_H_

#include <random>
#include <unordered_map>
#include <vector>

#include "src/exec/types.h"
#include "src/query/query_engine.h"
#include "src/state/world_state.h"
#include "src/support/zipf.h"

namespace pevm {

struct WorkloadConfig {
  uint64_t seed = 42;
  int transactions_per_block = 200;

  // Population sizes.
  int tokens = 24;
  int pools = 6;
  int users = 2000;
  int funds = 2;

  // Skew (rank-1 items are the hottest). Paper Fig. 3 measures 0.1% of slots
  // receiving 62% of accesses; within a single block that concentration
  // shows up as a handful of very hot keys (whale balances, top DEX pool
  // reserves, crowdfund accumulators) touched by a large share of
  // transactions.
  double token_zipf_s = 1.25;
  double user_zipf_s = 1.2;
  // DEX traffic concentrates hard on the top pools (WETH/stable pairs).
  double pool_zipf_s = 2.0;
  // Skew of the *unified* contract ranking (tokens ∪ pools ∪ funds) used by
  // MakeHotContractBlock: s ≈ 1 reproduces the paper's hot-contract
  // concentration over the whole deployed set, the regime the code cache's
  // hit rate is measured against.
  double contract_zipf_s = 1.0;

  // Transaction mix (fractions; remainder goes to native transfers).
  // DEX-era mainnet: swaps are a third of the gas, ERC-20 traffic most of
  // the rest.
  double erc20_transfer_frac = 0.36;
  double erc20_transfer_from_frac = 0.14;
  double amm_swap_frac = 0.30;
  double crowdfund_frac = 0.06;

  // Fraction of ERC-20 transfers whose amount exceeds the sender's balance
  // (they revert on-chain; exercises the constraint-guard abort path).
  double failing_tx_frac = 0.01;
};

// Read-only query load for the concurrent serving tier (DESIGN.md §4.7).
// Mirrors public-RPC traffic shape: balance polls dominated by active users,
// storage probes and eth_calls concentrated on the same Zipf-hot contracts
// the write workload hammers — so queries contend for exactly the snapshot
// versions the pipeline keeps publishing.
struct QueryWorkloadConfig {
  uint64_t seed = 7;
  // Kind mix (fractions; remainder goes to getBalance).
  double storage_frac = 0.30;  // getStorageAt on token/pool/fund slots.
  double call_frac = 0.25;     // eth_call: balanceOf / totalSupply.
  double nonce_frac = 0.10;    // getTransactionCount.
  double code_frac = 0.05;     // getCode on contracts.
  // Skew: which contract a storage probe / call targets, which user a
  // balance/nonce poll asks about (rank 1 hottest, like the write side).
  double contract_zipf_s = 1.0;
  double user_zipf_s = 1.2;
  // Arrival schedule. burst = 0 emits every offset at 0 (submit as fast as
  // backpressure allows). burst > 0 groups queries into bursts of that size,
  // `burst_gap_ns` apart — the bursty open-loop arrival the bench replays.
  int burst = 0;
  uint64_t burst_gap_ns = 0;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadConfig& config);

  // Builds the genesis world state: users funded with ether and tokens,
  // pools seeded with reserves and user approvals, contracts deployed.
  WorldState MakeGenesis() const;

  // Generates the next block (sender nonces advance across calls and must be
  // replayed in generation order against the genesis/evolving state).
  Block MakeBlock();

  // Figure 11 workload: a block of ERC-20 transferFrom transactions where
  // `conflict_ratio` of them drain the same owner account (all conflicting on
  // balances[A], paper §3.2) and the rest touch disjoint accounts.
  Block MakeErc20ConflictBlock(int transactions, double conflict_ratio);

  // Code-cache workload: every transaction targets a contract drawn from one
  // Zipfian ranking over the whole deployed set (tokens, then pools, then
  // funds, hottest-first by rank), with the call shape implied by the
  // contract's kind. With contract_zipf_s ≈ 1 a handful of code hashes absorb
  // most invocations — the distribution the per-code-hash analysis cache is
  // designed for.
  Block MakeHotContractBlock(int transactions);

  // Read-only query load over this workload's population (satellite of the
  // query tier): Zipf-skewed contract/user choice, kind mix per
  // QueryWorkloadConfig, arrival offsets per its burst schedule. const —
  // query generation must not perturb the transaction stream's RNG, so
  // interleaving MakeBlock and MakeQueryLoad calls changes nothing.
  std::vector<TimedQuery> MakeQueryLoad(int n, const QueryWorkloadConfig& config) const;

  const WorkloadConfig& config() const { return config_; }

  // Adjusts mix fractions / skew between blocks (Figure 9's block-to-block
  // diversity). Population sizes must not change — they are baked into the
  // genesis.
  void SetMix(double erc20, double erc20_from, double amm, double crowdfund, double failing) {
    config_.erc20_transfer_frac = erc20;
    config_.erc20_transfer_from_frac = erc20_from;
    config_.amm_swap_frac = amm;
    config_.crowdfund_frac = crowdfund;
    config_.failing_tx_frac = failing;
  }
  void SetTransactionsPerBlock(int n) { config_.transactions_per_block = n; }

  // Addresses (deterministic, derived from indices).
  Address TokenAddress(int i) const;
  Address PoolAddress(int i) const;
  Address FundAddress(int i) const;
  Address UserAddress(int i) const;

 private:
  Transaction MakeNativeTransfer(int from_user, int to_user);
  Transaction MakeErc20Transfer(int token, int from_user, int to_user, bool failing);
  Transaction MakeErc20TransferFrom(int token, int owner, int spender, int to_user);
  Transaction MakeAmmSwap(int pool, int user);
  Transaction MakeContribute(int fund, int user);

  uint64_t NextNonce(const Address& sender);
  int SampleUser();
  int SampleToken();

  WorkloadConfig config_;
  std::mt19937_64 rng_;
  ZipfDistribution token_zipf_;
  ZipfDistribution user_zipf_;
  ZipfDistribution pool_zipf_;
  ZipfDistribution contract_zipf_;
  std::unordered_map<Address, uint64_t> nonces_;
  uint64_t block_number_ = 14'000'000;
};

}  // namespace pevm

#endif  // SRC_WORKLOAD_BLOCK_GEN_H_
