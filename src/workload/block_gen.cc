#include "src/workload/block_gen.h"

#include <cassert>
#include <unordered_set>

#include "src/workload/contracts.h"

namespace pevm {
namespace {

// Address-space bases (disjoint ranges).
constexpr uint64_t kTokenBase = 0x100000;
constexpr uint64_t kPoolBase = 0x200000;
constexpr uint64_t kFundBase = 0x300000;
constexpr uint64_t kUserBase = 0x400000;

const U256 kUserEther = U256::Exp(U256(10), U256(21));       // 1000 ether.
const U256 kUserTokenBalance = U256::Exp(U256(10), U256(12));
const U256 kPoolReserve = U256::Exp(U256(10), U256(15));
const U256 kGasPrice = U256(10'000'000'000ULL);  // 10 gwei.

// The first users act as "operators" (exchange hot wallets) that hold
// transferFrom allowances from everyone.
constexpr int kOperators = 16;
// Whale owners: hot accounts that approved every user as a spender (the
// paper's §3.2 transferFrom conflict pattern).
constexpr int kWhales = 4;

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config)
    : config_(config),
      rng_(config.seed),
      token_zipf_(static_cast<uint64_t>(config.tokens), config.token_zipf_s),
      user_zipf_(static_cast<uint64_t>(config.users), config.user_zipf_s),
      pool_zipf_(static_cast<uint64_t>(config.pools), config.pool_zipf_s),
      contract_zipf_(static_cast<uint64_t>(config.tokens + config.pools + config.funds),
                     config.contract_zipf_s) {}

Address WorkloadGenerator::TokenAddress(int i) const {
  return Address::FromId(kTokenBase + static_cast<uint64_t>(i));
}
Address WorkloadGenerator::PoolAddress(int i) const {
  return Address::FromId(kPoolBase + static_cast<uint64_t>(i));
}
Address WorkloadGenerator::FundAddress(int i) const {
  return Address::FromId(kFundBase + static_cast<uint64_t>(i));
}
Address WorkloadGenerator::UserAddress(int i) const {
  return Address::FromId(kUserBase + static_cast<uint64_t>(i));
}

WorldState WorkloadGenerator::MakeGenesis() const {
  WorldState state;
  Bytes erc20 = BuildErc20Code();
  Bytes amm = BuildAmmCode();
  Bytes crowdfund = BuildCrowdfundCode();

  for (int u = 0; u < config_.users; ++u) {
    state.SetBalance(UserAddress(u), kUserEther);
  }
  for (int t = 0; t < config_.tokens; ++t) {
    Address token = TokenAddress(t);
    state.SetCode(token, erc20);
    U256 supply;
    for (int u = 0; u < config_.users; ++u) {
      state.SetStorage(token, Erc20BalanceSlot(UserAddress(u)), kUserTokenBalance);
      supply = supply + kUserTokenBalance;
    }
    for (int u = 0; u < config_.users; ++u) {
      Address user = UserAddress(u);
      // Everyone approved the operators (transferFrom workload), the pools
      // (AMM workload), and themselves (conflict-sweep workload).
      for (int o = 0; o < std::min(kOperators, config_.users); ++o) {
        state.SetStorage(token, Erc20AllowanceSlot(user, UserAddress(o)), ~U256{});
      }
      for (int p = 0; p < config_.pools; ++p) {
        state.SetStorage(token, Erc20AllowanceSlot(user, PoolAddress(p)), ~U256{});
      }
      state.SetStorage(token, Erc20AllowanceSlot(user, user), ~U256{});
      // Whale owners (exchange-style hot accounts, incl. the Figure 11
      // owner "A" = user 0) approved every user as a spender.
      for (int w = 0; w < std::min(kWhales, config_.users); ++w) {
        state.SetStorage(token, Erc20AllowanceSlot(UserAddress(w), user), ~U256{});
      }
    }
    for (int p = 0; p < config_.pools; ++p) {
      state.SetStorage(token, Erc20BalanceSlot(PoolAddress(p)), kPoolReserve);
      supply = supply + kPoolReserve;
    }
    state.SetStorage(token, U256(kErc20TotalSupplySlot), supply);
  }
  for (int p = 0; p < config_.pools; ++p) {
    Address pool = PoolAddress(p);
    int t0 = p % config_.tokens;
    int t1 = (p + 1) % config_.tokens;
    state.SetCode(pool, amm);
    state.SetStorage(pool, U256(kAmmToken0Slot), U256::FromAddress(TokenAddress(t0)));
    state.SetStorage(pool, U256(kAmmToken1Slot), U256::FromAddress(TokenAddress(t1)));
    state.SetStorage(pool, U256(kAmmReserve0Slot), kPoolReserve);
    state.SetStorage(pool, U256(kAmmReserve1Slot), kPoolReserve);
  }
  for (int f = 0; f < config_.funds; ++f) {
    state.SetCode(FundAddress(f), crowdfund);
  }
  return state;
}

uint64_t WorkloadGenerator::NextNonce(const Address& sender) { return nonces_[sender]++; }

int WorkloadGenerator::SampleUser() { return static_cast<int>(user_zipf_(rng_) - 1); }

int WorkloadGenerator::SampleToken() { return static_cast<int>(token_zipf_(rng_) - 1); }

Transaction WorkloadGenerator::MakeNativeTransfer(int from_user, int to_user) {
  Transaction tx;
  tx.from = UserAddress(from_user);
  tx.to = UserAddress(to_user);
  tx.value = U256(1 + rng_() % 1'000'000) * U256(1'000'000'000ULL);
  tx.gas_limit = 50'000;
  tx.gas_price = kGasPrice;
  tx.nonce = NextNonce(tx.from);
  return tx;
}

Transaction WorkloadGenerator::MakeErc20Transfer(int token, int from_user, int to_user,
                                                 bool failing) {
  Transaction tx;
  tx.from = UserAddress(from_user);
  tx.to = TokenAddress(token);
  U256 amount = failing ? kUserTokenBalance * U256(1000) : U256(1 + rng_() % 1000);
  tx.data = Erc20TransferCall(UserAddress(to_user), amount);
  tx.gas_limit = 150'000;
  tx.gas_price = kGasPrice;
  tx.nonce = NextNonce(tx.from);
  return tx;
}

Transaction WorkloadGenerator::MakeErc20TransferFrom(int token, int owner, int spender,
                                                     int to_user) {
  Transaction tx;
  tx.from = UserAddress(spender);
  tx.to = TokenAddress(token);
  tx.data = Erc20TransferFromCall(UserAddress(owner), UserAddress(to_user),
                                  U256(1 + rng_() % 1000));
  tx.gas_limit = 200'000;
  tx.gas_price = kGasPrice;
  tx.nonce = NextNonce(tx.from);
  return tx;
}

Transaction WorkloadGenerator::MakeAmmSwap(int pool, int user) {
  Transaction tx;
  tx.from = UserAddress(user);
  tx.to = PoolAddress(pool);
  tx.data = AmmSwapCall(U256(1000 + rng_() % 100'000), (rng_() & 1) != 0);
  tx.gas_limit = 500'000;
  tx.gas_price = kGasPrice;
  tx.nonce = NextNonce(tx.from);
  return tx;
}

Transaction WorkloadGenerator::MakeContribute(int fund, int user) {
  Transaction tx;
  tx.from = UserAddress(user);
  tx.to = FundAddress(fund);
  tx.data = CrowdfundContributeCall();
  tx.value = U256(1 + rng_() % 100) * U256::Exp(U256(10), U256(12));
  tx.gas_limit = 100'000;
  tx.gas_price = kGasPrice;
  tx.nonce = NextNonce(tx.from);
  return tx;
}

Block WorkloadGenerator::MakeBlock() {
  Block block;
  block.context.number = U256(block_number_);
  block.context.timestamp = U256(block_number_ * 12);
  block.context.coinbase = Address::FromId(0xC0FFEE);
  block.context.base_fee = U256(1'000'000'000ULL);
  block.context.prevrandao = U256(block_number_ * 0x9e3779b97f4a7c15ULL);
  ++block_number_;

  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::unordered_set<int> used_senders;
  auto sample_sender = [&]() {
    // Mainnet blocks have mostly distinct senders (same-account transactions
    // serialize on the nonce anyway); resample a few times before accepting a
    // repeat.
    for (int attempt = 0; attempt < 4; ++attempt) {
      int s = static_cast<int>(rng_() % static_cast<uint64_t>(config_.users));
      if (used_senders.insert(s).second) {
        return s;
      }
    }
    return static_cast<int>(rng_() % static_cast<uint64_t>(config_.users));
  };
  int target = config_.transactions_per_block;
  while (static_cast<int>(block.transactions.size()) < target) {
    double roll = uniform(rng_);
    // Recipients and contracts are hot (Fig. 3); senders mostly distinct.
    int sender = sample_sender();
    int receiver = SampleUser();
    if (roll < config_.erc20_transfer_frac) {
      bool failing = uniform(rng_) < config_.failing_tx_frac;
      block.transactions.push_back(
          MakeErc20Transfer(SampleToken(), sender, receiver, failing));
    } else if (roll < config_.erc20_transfer_frac + config_.erc20_transfer_from_frac) {
      // Exchange-style batch payouts: several adjacent transferFroms draining
      // the same hot whale account (the paper's §3.2 conflict pattern).
      int whale = static_cast<int>(rng_() % kWhales);
      int token = SampleToken();
      int burst = 1 + static_cast<int>(rng_() % 3);
      for (int b = 0; b < burst && static_cast<int>(block.transactions.size()) < target; ++b) {
        block.transactions.push_back(MakeErc20TransferFrom(
            token, /*owner=*/whale, /*spender=*/b == 0 ? sender : sample_sender(),
            /*to=*/SampleUser()));
      }
    } else if (roll < config_.erc20_transfer_frac + config_.erc20_transfer_from_frac +
                          config_.amm_swap_frac) {
      // MEV-era DEX traffic: arbitrage/sandwich bundles put several swaps on
      // the same pool at *adjacent* block positions.
      int pool = static_cast<int>(pool_zipf_(rng_) - 1);
      int bundle = 1 + static_cast<int>(rng_() % 4);
      for (int b = 0; b < bundle && static_cast<int>(block.transactions.size()) < target; ++b) {
        block.transactions.push_back(MakeAmmSwap(pool, b == 0 ? sender : sample_sender()));
      }
    } else if (roll < config_.erc20_transfer_frac + config_.erc20_transfer_from_frac +
                          config_.amm_swap_frac + config_.crowdfund_frac) {
      // ICO/crowdfund rushes cluster contributions at adjacent positions.
      int fund = static_cast<int>(rng_() % static_cast<uint64_t>(config_.funds));
      int burst = 1 + static_cast<int>(rng_() % 3);
      for (int b = 0; b < burst && static_cast<int>(block.transactions.size()) < target; ++b) {
        block.transactions.push_back(MakeContribute(fund, b == 0 ? sender : sample_sender()));
      }
    } else {
      block.transactions.push_back(MakeNativeTransfer(sender, receiver));
    }
  }
  return block;
}

Block WorkloadGenerator::MakeHotContractBlock(int transactions) {
  Block block;
  block.context.number = U256(block_number_);
  block.context.timestamp = U256(block_number_ * 12);
  block.context.coinbase = Address::FromId(0xC0FFEE);
  block.context.base_fee = U256(1'000'000'000ULL);
  block.context.prevrandao = U256(block_number_ * 0x9e3779b97f4a7c15ULL);
  ++block_number_;

  for (int j = 0; j < transactions; ++j) {
    // One unified hotness ranking across every deployed contract, pools
    // first: the hottest mainnet contracts by call volume are the top DEX
    // pools (DEX traffic concentrates hard on the top pools), so the head of
    // the Zipf ranking maps to the AMM deployments, then the ERC-20 tokens,
    // then the long-tail crowdfund contracts.
    int rank = static_cast<int>(contract_zipf_(rng_) - 1);
    int sender = static_cast<int>(rng_() % static_cast<uint64_t>(config_.users));
    if (rank < config_.pools) {
      block.transactions.push_back(MakeAmmSwap(rank, sender));
    } else if (rank < config_.pools + config_.tokens) {
      block.transactions.push_back(
          MakeErc20Transfer(rank - config_.pools, sender, SampleUser(), /*failing=*/false));
    } else {
      block.transactions.push_back(
          MakeContribute(rank - config_.pools - config_.tokens, sender));
    }
  }
  return block;
}

Block WorkloadGenerator::MakeErc20ConflictBlock(int transactions, double conflict_ratio) {
  assert(config_.users > transactions + 1000);
  Block block;
  block.context.number = U256(block_number_);
  block.context.timestamp = U256(block_number_ * 12);
  block.context.coinbase = Address::FromId(0xC0FFEE);
  ++block_number_;

  int conflicting = static_cast<int>(conflict_ratio * transactions + 0.5);
  for (int j = 0; j < transactions; ++j) {
    int spender = 1 + j;  // Distinct senders: no nonce interference.
    int owner = j < conflicting ? 0 : spender;  // Shared owner -> balances[A] conflict.
    int recipient = 1000 + j;
    block.transactions.push_back(MakeErc20TransferFrom(0, owner, spender, recipient));
  }
  return block;
}

std::vector<TimedQuery> WorkloadGenerator::MakeQueryLoad(int n,
                                                         const QueryWorkloadConfig& qc) const {
  // Own RNG and skew state: const method, so a bench interleaving query
  // generation with MakeBlock cannot perturb the transaction stream.
  std::mt19937_64 rng(qc.seed);
  ZipfDistribution contract_zipf(
      static_cast<uint64_t>(config_.pools + config_.tokens + config_.funds), qc.contract_zipf_s);
  ZipfDistribution user_zipf(static_cast<uint64_t>(config_.users), qc.user_zipf_s);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  // Same pools-first unified hotness ranking as MakeHotContractBlock, so the
  // query tier probes exactly the contracts the write pipeline is mutating.
  auto pick_contract = [&](int rank, bool* is_token, int* index) {
    if (rank < config_.pools) {
      *is_token = false;
      *index = rank;
      return PoolAddress(rank);
    }
    if (rank < config_.pools + config_.tokens) {
      *is_token = true;
      *index = rank - config_.pools;
      return TokenAddress(*index);
    }
    *is_token = false;
    *index = rank - config_.pools - config_.tokens;
    return FundAddress(*index);
  };

  std::vector<TimedQuery> load;
  load.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TimedQuery timed;
    QueryRequest& req = timed.request;
    const double kind = uniform(rng);
    const int user = static_cast<int>(user_zipf(rng) - 1);
    if (kind < qc.storage_frac) {
      req.kind = QueryKind::kGetStorageAt;
      int rank = static_cast<int>(contract_zipf(rng) - 1);
      bool is_token = false;
      int index = 0;
      req.account = pick_contract(rank, &is_token, &index);
      if (is_token) {
        // Hot-user balance slot or total supply, like a token dashboard.
        req.slot = (rng() % 4 == 0) ? U256(kErc20TotalSupplySlot)
                                    : Erc20BalanceSlot(UserAddress(user));
      } else if (rank < config_.pools) {
        req.slot = U256(rng() % 2 == 0 ? kAmmReserve0Slot : kAmmReserve1Slot);
      } else {
        req.slot = U256(kCrowdfundTotalSlot);
      }
    } else if (kind < qc.storage_frac + qc.call_frac) {
      // eth_call traffic goes to the ERC-20s (the only read-only selectors
      // the workload contracts expose); token choice inherits the contract
      // ranking's skew.
      req.kind = QueryKind::kCall;
      int rank = static_cast<int>(contract_zipf(rng) - 1);
      req.account = TokenAddress(rank % config_.tokens);
      req.caller = UserAddress(user);
      req.calldata = (rng() % 4 == 0) ? Erc20TotalSupplyCall()
                                      : Erc20BalanceOfCall(UserAddress(user));
    } else if (kind < qc.storage_frac + qc.call_frac + qc.nonce_frac) {
      req.kind = QueryKind::kGetNonce;
      req.account = UserAddress(user);
    } else if (kind < qc.storage_frac + qc.call_frac + qc.nonce_frac + qc.code_frac) {
      req.kind = QueryKind::kGetCode;
      int rank = static_cast<int>(contract_zipf(rng) - 1);
      bool is_token = false;
      int index = 0;
      req.account = pick_contract(rank, &is_token, &index);
    } else {
      req.kind = QueryKind::kGetBalance;
      req.account = UserAddress(user);
    }
    load.push_back(std::move(timed));
  }
  return load;
}

}  // namespace pevm
