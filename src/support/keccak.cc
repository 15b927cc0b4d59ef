#include "src/support/keccak.h"

#include <bit>
#include <cstring>

namespace pevm {
namespace {

constexpr int kRounds = 24;
constexpr size_t kRateBytes = 136;  // 1088-bit rate for Keccak-256.
constexpr size_t kRateLanes = kRateBytes / 8;

constexpr uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL, 0x8000000080008000ULL,
    0x000000000000808bULL, 0x0000000080000001ULL, 0x8000000080008081ULL, 0x8000000000008009ULL,
    0x000000000000008aULL, 0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL, 0x8000000000008003ULL,
    0x8000000000008002ULL, 0x8000000000000080ULL, 0x000000000000800aULL, 0x800000008000000aULL,
    0x8000000080008081ULL, 0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// Lanes are little-endian 64-bit words.
uint64_t LoadLane(const uint8_t* p) {
  uint64_t lane;
  std::memcpy(&lane, p, 8);
  return lane;
}

// Chi on one row of five lanes, given in x order.
void ChiRow(uint64_t* row, uint64_t b0, uint64_t b1, uint64_t b2, uint64_t b3, uint64_t b4) {
  row[0] = b0 ^ (~b1 & b2);
  row[1] = b1 ^ (~b2 & b3);
  row[2] = b2 ^ (~b3 & b4);
  row[3] = b3 ^ (~b4 & b0);
  row[4] = b4 ^ (~b0 & b1);
}

// One round of Keccak-f[1600] from state `a` into state `e`, written out in
// full: theta's column parities (c) and mixers (d); then, row by row, the
// five lanes rho rotates and pi moves into that row of the output, with chi
// applied as the row is formed; then iota. Lane x + 5y holds A[x][y].
void Round(const uint64_t* a, uint64_t* e, uint64_t rc) {
  const uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const uint64_t d0 = c4 ^ std::rotl(c1, 1);
  const uint64_t d1 = c0 ^ std::rotl(c2, 1);
  const uint64_t d2 = c1 ^ std::rotl(c3, 1);
  const uint64_t d3 = c2 ^ std::rotl(c4, 1);
  const uint64_t d4 = c3 ^ std::rotl(c0, 1);
  ChiRow(e + 0, a[0] ^ d0, std::rotl(a[6] ^ d1, 44),
         std::rotl(a[12] ^ d2, 43), std::rotl(a[18] ^ d3, 21), std::rotl(a[24] ^ d4, 14));
  ChiRow(e + 5, std::rotl(a[3] ^ d3, 28), std::rotl(a[9] ^ d4, 20),
         std::rotl(a[10] ^ d0, 3), std::rotl(a[16] ^ d1, 45), std::rotl(a[22] ^ d2, 61));
  ChiRow(e + 10, std::rotl(a[1] ^ d1, 1), std::rotl(a[7] ^ d2, 6),
         std::rotl(a[13] ^ d3, 25), std::rotl(a[19] ^ d4, 8), std::rotl(a[20] ^ d0, 18));
  ChiRow(e + 15, std::rotl(a[4] ^ d4, 27), std::rotl(a[5] ^ d0, 36),
         std::rotl(a[11] ^ d1, 10), std::rotl(a[17] ^ d2, 15), std::rotl(a[23] ^ d3, 56));
  ChiRow(e + 20, std::rotl(a[2] ^ d2, 62), std::rotl(a[8] ^ d3, 55),
         std::rotl(a[14] ^ d4, 39), std::rotl(a[15] ^ d0, 41), std::rotl(a[21] ^ d1, 2));
  e[0] ^= rc;
}

// Two rounds per iteration, alternating between the state and a second
// lane buffer, so no round has to copy its output back.
void KeccakF1600(uint64_t state[25]) {
  uint64_t next[25];
  for (int round = 0; round < kRounds; round += 2) {
    Round(state, next, kRoundConstants[round]);
    Round(next, state, kRoundConstants[round + 1]);
  }
}

}  // namespace

Hash256 Keccak256(BytesView data) {
  uint64_t state[25] = {};
  const uint8_t* p = data.data();
  size_t n = data.size();
  // Absorb every full block straight from the input.
  for (; n >= kRateBytes; p += kRateBytes, n -= kRateBytes) {
    for (size_t i = 0; i < kRateLanes; ++i) {
      state[i] ^= LoadLane(p + i * 8);
    }
    KeccakF1600(state);
  }
  // Final block: the remaining whole lanes, then the partial tail lane with
  // Keccak's 0x01 pad byte; the closing 0x80 goes into the last rate lane.
  const size_t lanes = n / 8;
  for (size_t i = 0; i < lanes; ++i) {
    state[i] ^= LoadLane(p + i * 8);
  }
  uint8_t tail[8] = {};
  const size_t rem = n % 8;
  if (rem > 0) {
    std::memcpy(tail, p + lanes * 8, rem);
  }
  tail[rem] = 0x01;
  state[lanes] ^= LoadLane(tail);
  state[kRateLanes - 1] ^= 0x8000000000000000ULL;
  KeccakF1600(state);
  // Squeeze 32 bytes.
  Hash256 out;
  std::memcpy(out.data(), state, out.size());
  return out;
}

U256 Keccak256Word(BytesView data) {
  Hash256 h = Keccak256(data);
  return U256::FromBigEndian(BytesView(h.data(), h.size()));
}

U256 MappingSlot(const U256& key, const U256& slot) {
  std::array<uint8_t, 64> buf;
  std::array<uint8_t, 32> k = key.ToBigEndian();
  std::array<uint8_t, 32> s = slot.ToBigEndian();
  std::copy(k.begin(), k.end(), buf.begin());
  std::copy(s.begin(), s.end(), buf.begin() + 32);
  return Keccak256Word(BytesView(buf.data(), buf.size()));
}

U256 MappingSlot2(const U256& key1, const U256& key2, const U256& slot) {
  return MappingSlot(key2, MappingSlot(key1, slot));
}

}  // namespace pevm
