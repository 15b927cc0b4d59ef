// Applies one transaction to a StateView: the full Ethereum envelope (nonce
// check/bump, intrinsic gas, upfront fee debit, value transfer, execution,
// refund) shared verbatim by every executor so they necessarily agree on
// semantics.
//
// Coinbase fees are NOT written to state here: every executor accumulates
// Receipt::fee and credits the coinbase once at block end. Writing the
// coinbase balance per transaction would make every transaction pair
// conflict, an artifact all parallel-execution systems special-case (see
// DESIGN.md).
#ifndef SRC_EXEC_APPLY_H_
#define SRC_EXEC_APPLY_H_

#include "src/codecache/program.h"
#include "src/evm/tracer.h"
#include "src/exec/types.h"
#include "src/state/state_view.h"

namespace pevm {

inline constexpr int64_t kTxBaseGas = 21000;
inline constexpr int64_t kTxDataZeroGas = 4;
inline constexpr int64_t kTxDataNonZeroGas = 16;

int64_t IntrinsicGas(const Transaction& tx);

// Executes `tx` against `view`, buffering all writes in the view. `tracer`
// may be null. `provider` (the code cache, may be null) only affects wall
// clock — see src/codecache/program.h.
Receipt ApplyTransaction(StateView& view, const BlockContext& block, const Transaction& tx,
                         Tracer* tracer = nullptr, CodeProvider* provider = nullptr);

}  // namespace pevm

#endif  // SRC_EXEC_APPLY_H_
