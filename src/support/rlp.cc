#include "src/support/rlp.h"

#include <bit>

namespace pevm {
namespace {

// Length of the big-endian payload size that follows the first header byte
// of a payload above 55 bytes.
size_t LengthBytes(size_t len) { return (std::bit_width(len) + 7) / 8; }

// Appends the header for a payload of `len` bytes, where `base` is 0x80 for
// strings and 0xc0 for lists.
void AppendHeader(Bytes& out, size_t len, uint8_t base) {
  if (len <= 55) {
    out.push_back(static_cast<uint8_t>(base + len));
    return;
  }
  const size_t n = LengthBytes(len);
  out.push_back(static_cast<uint8_t>(base + 55 + n));
  for (size_t i = n; i-- > 0;) {
    out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
}

bool IsSelfEncoded(BytesView data) { return data.size() == 1 && data[0] < 0x80; }

}  // namespace

size_t RlpHeaderSize(size_t payload) { return payload <= 55 ? 1 : 1 + LengthBytes(payload); }

size_t RlpBytesSize(BytesView data) {
  return IsSelfEncoded(data) ? 1 : RlpHeaderSize(data.size()) + data.size();
}

size_t RlpUintSize(const U256& value) {
  const unsigned len = value.ByteLength();
  return (len == 1 && value.AsUint64() < 0x80) ? 1 : 1 + len;
}

void RlpAppendStringHeader(Bytes& out, size_t payload) { AppendHeader(out, payload, 0x80); }

void RlpAppendListHeader(Bytes& out, size_t payload) { AppendHeader(out, payload, 0xc0); }

void RlpAppendBytes(Bytes& out, BytesView data) {
  if (!IsSelfEncoded(data)) {
    RlpAppendStringHeader(out, data.size());
  }
  out.insert(out.end(), data.begin(), data.end());
}

void RlpAppendUint(Bytes& out, const U256& value) {
  const std::array<uint8_t, 32> be = value.ToBigEndian();
  const unsigned len = value.ByteLength();
  RlpAppendBytes(out, BytesView(be.data() + (32 - len), len));
}

Bytes RlpEncodeBytes(BytesView data) {
  Bytes out;
  out.reserve(RlpBytesSize(data));
  RlpAppendBytes(out, data);
  return out;
}

Bytes RlpEncodeUint(const U256& value) {
  Bytes out;
  out.reserve(RlpUintSize(value));
  RlpAppendUint(out, value);
  return out;
}

Bytes RlpEncodeList(std::span<const Bytes> items) {
  size_t payload = 0;
  for (const Bytes& item : items) {
    payload += item.size();
  }
  Bytes out;
  out.reserve(RlpHeaderSize(payload) + payload);
  RlpAppendListHeader(out, payload);
  for (const Bytes& item : items) {
    out.insert(out.end(), item.begin(), item.end());
  }
  return out;
}

}  // namespace pevm
