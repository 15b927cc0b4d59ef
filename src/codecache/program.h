// Cached per-code-hash analysis shared by every executor, OS thread and block
// (the hot-contract code cache, DESIGN.md §4.6): the JUMPDEST bitmap the
// interpreter would otherwise rebuild on the first jump of every frame. The
// analysis is a pure function of the bytecode (JumpdestBitmap in
// src/evm/opcode.h), so which provider produced it — or whether there is a
// provider at all — cannot change any result; only wall clock moves.
//
// This header is intentionally link-free (no .cc): pevm_evm's interpreter
// consumes these types and the abstract CodeProvider without depending on the
// cache implementation, which lives above it in pevm_codecache.
#ifndef SRC_CODECACHE_PROGRAM_H_
#define SRC_CODECACHE_PROGRAM_H_

#include <memory>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/keccak.h"

namespace pevm {

// Analysis of one code blob.
struct CodeAnalysis {
  Hash256 hash{};
  std::vector<bool> jumpdests;  // JumpdestBitmap(code).
};

// How executors obtain analyses. Implementations must be safe to call from
// any number of threads concurrently.
class CodeProvider {
 public:
  virtual ~CodeProvider() = default;
  // Returns the analysis for `code`; never null. `hash` is the precomputed
  // code hash when the caller has one (WorldState keeps them alongside the
  // code); implementations hash the bytes themselves when it is null.
  virtual std::shared_ptr<const CodeAnalysis> Analyze(const Bytes& code,
                                                      const Hash256* hash) = 0;
};

}  // namespace pevm

#endif  // SRC_CODECACHE_PROGRAM_H_
