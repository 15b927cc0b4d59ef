// Recursive Length Prefix encoding (yellow paper appendix B) — the encoding
// the Merkle Patricia Trie nodes and account bodies use.
//
// Two layers: append-style writers that add one item (or a list header) to
// the end of a caller-owned buffer, each paired with a function giving its
// encoded size, so a caller can size a list's payload, reserve the buffer
// once and write the header and items straight into it; and one-shot
// encoders returning a fresh buffer, built on the writers.
#ifndef SRC_SUPPORT_RLP_H_
#define SRC_SUPPORT_RLP_H_

#include <span>

#include "src/support/bytes.h"
#include "src/support/u256.h"

namespace pevm {

// --- Sizes. ---

// Length of the header in front of a string or list payload of `payload`
// bytes (a single byte below 0x80 encodes as itself, with no header: see
// RlpBytesSize).
size_t RlpHeaderSize(size_t payload);

// Encoded size of `data` as a byte string.
size_t RlpBytesSize(BytesView data);

// Encoded size of `value` as an integer (see RlpEncodeUint).
size_t RlpUintSize(const U256& value);

// --- Append-style writers. ---

// Appends the header of a string / list whose payload is `payload` bytes.
void RlpAppendStringHeader(Bytes& out, size_t payload);
void RlpAppendListHeader(Bytes& out, size_t payload);

// Appends `data` encoded as a byte string.
void RlpAppendBytes(Bytes& out, BytesView data);

// Appends `value` as its minimal big-endian byte string.
void RlpAppendUint(Bytes& out, const U256& value);

// --- One-shot encoders. ---

// Encodes a byte string.
Bytes RlpEncodeBytes(BytesView data);

// Encodes an unsigned integer as its minimal big-endian byte string (zero
// encodes as the empty string, per the yellow paper).
Bytes RlpEncodeUint(const U256& value);

// Wraps already-encoded items into a list.
Bytes RlpEncodeList(std::span<const Bytes> items);

}  // namespace pevm

#endif  // SRC_SUPPORT_RLP_H_
