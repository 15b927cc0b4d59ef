#include "src/support/keccak.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Sponge steps on a state whose lane i lives at state[i * stride]: stride 1
// is the one-input state, stride 8 one column of the eight-input state.
void AbsorbBlock(uint64_t* state, size_t stride, const uint8_t* p) {
  for (size_t i = 0; i < kRateLanes; ++i) {
    state[i * stride] ^= LoadLane(p + i * 8);
  }
}

// The final block of an `n`-byte tail (n < 136): the remaining whole lanes,
// then the partial tail lane with Keccak's 0x01 pad byte; the closing 0x80
// goes into the last rate lane.
void AbsorbFinal(uint64_t* state, size_t stride, const uint8_t* p, size_t n) {
  const size_t lanes = n / 8;
  for (size_t i = 0; i < lanes; ++i) {
    state[i * stride] ^= LoadLane(p + i * 8);
  }
  uint8_t tail[8] = {};
  const size_t rem = n % 8;
  if (rem > 0) {
    std::memcpy(tail, p + lanes * 8, rem);
  }
  tail[rem] = 0x01;
  state[lanes * stride] ^= LoadLane(tail);
  state[(kRateLanes - 1) * stride] ^= 0x8000000000000000ULL;
}

// Squeezes 32 bytes.
void Squeeze(const uint64_t* state, size_t stride, Hash256& out) {
  for (size_t i = 0; i < out.size() / 8; ++i) {
    std::memcpy(out.data() + i * 8, &state[i * stride], 8);
  }
}

void Keccak256Scalar(std::span<const BytesView> inputs, std::span<Hash256> out) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    out[i] = Keccak256(inputs[i]);
  }
}

#if defined(__x86_64__)

// Keccak-f[1600] on eight states at once: vector i holds lane i of all eight
// states, one per 64-bit element, so the round is the scalar Round above
// with every operation widened. Theta's five-way parities are two
// three-input XORs (vpternlogq 0x96), chi's b0 ^ (~b1 & b2) one vpternlogq
// 0xD2, and rho's rotations vprolq. GCC 12's _mm512_rol_epi64 passes an
// uninitialized pass-through operand that trips -Wmaybe-uninitialized; the
// zero-masking form with every element selected is the same instruction.
template <int kBits>
__attribute__((target("avx512f"), always_inline)) inline __m512i Rol(__m512i v) {
  return _mm512_maskz_rol_epi64(0xFF, v, kBits);
}

__attribute__((target("avx512f"), always_inline)) inline __m512i Xor5(
    __m512i a, __m512i b, __m512i c, __m512i d, __m512i e) {
  return _mm512_ternarylogic_epi64(_mm512_ternarylogic_epi64(a, b, c, 0x96), d, e, 0x96);
}

__attribute__((target("avx512f"), always_inline)) inline void ChiRowX8(
    __m512i* row, __m512i b0, __m512i b1, __m512i b2, __m512i b3, __m512i b4) {
  row[0] = _mm512_ternarylogic_epi64(b0, b1, b2, 0xD2);
  row[1] = _mm512_ternarylogic_epi64(b1, b2, b3, 0xD2);
  row[2] = _mm512_ternarylogic_epi64(b2, b3, b4, 0xD2);
  row[3] = _mm512_ternarylogic_epi64(b3, b4, b0, 0xD2);
  row[4] = _mm512_ternarylogic_epi64(b4, b0, b1, 0xD2);
}

__attribute__((target("avx512f"), always_inline)) inline void RoundX8(const __m512i* a,
                                                                      __m512i* e, uint64_t rc) {
  const __m512i c0 = Xor5(a[0], a[5], a[10], a[15], a[20]);
  const __m512i c1 = Xor5(a[1], a[6], a[11], a[16], a[21]);
  const __m512i c2 = Xor5(a[2], a[7], a[12], a[17], a[22]);
  const __m512i c3 = Xor5(a[3], a[8], a[13], a[18], a[23]);
  const __m512i c4 = Xor5(a[4], a[9], a[14], a[19], a[24]);
  const __m512i d0 = _mm512_xor_si512(c4, Rol<1>(c1));
  const __m512i d1 = _mm512_xor_si512(c0, Rol<1>(c2));
  const __m512i d2 = _mm512_xor_si512(c1, Rol<1>(c3));
  const __m512i d3 = _mm512_xor_si512(c2, Rol<1>(c4));
  const __m512i d4 = _mm512_xor_si512(c3, Rol<1>(c0));
  ChiRowX8(e + 0, _mm512_xor_si512(a[0], d0), Rol<44>(_mm512_xor_si512(a[6], d1)),
           Rol<43>(_mm512_xor_si512(a[12], d2)), Rol<21>(_mm512_xor_si512(a[18], d3)),
           Rol<14>(_mm512_xor_si512(a[24], d4)));
  ChiRowX8(e + 5, Rol<28>(_mm512_xor_si512(a[3], d3)), Rol<20>(_mm512_xor_si512(a[9], d4)),
           Rol<3>(_mm512_xor_si512(a[10], d0)), Rol<45>(_mm512_xor_si512(a[16], d1)),
           Rol<61>(_mm512_xor_si512(a[22], d2)));
  ChiRowX8(e + 10, Rol<1>(_mm512_xor_si512(a[1], d1)), Rol<6>(_mm512_xor_si512(a[7], d2)),
           Rol<25>(_mm512_xor_si512(a[13], d3)), Rol<8>(_mm512_xor_si512(a[19], d4)),
           Rol<18>(_mm512_xor_si512(a[20], d0)));
  ChiRowX8(e + 15, Rol<27>(_mm512_xor_si512(a[4], d4)), Rol<36>(_mm512_xor_si512(a[5], d0)),
           Rol<10>(_mm512_xor_si512(a[11], d1)), Rol<15>(_mm512_xor_si512(a[17], d2)),
           Rol<56>(_mm512_xor_si512(a[23], d3)));
  ChiRowX8(e + 20, Rol<62>(_mm512_xor_si512(a[2], d2)), Rol<55>(_mm512_xor_si512(a[8], d3)),
           Rol<39>(_mm512_xor_si512(a[14], d4)), Rol<41>(_mm512_xor_si512(a[15], d0)),
           Rol<2>(_mm512_xor_si512(a[21], d1)));
  e[0] = _mm512_xor_si512(e[0], _mm512_set1_epi64(static_cast<long long>(rc)));
}

// `state` is 25 rows of eight lanes: state[i * 8 + j] is lane i of state j.
__attribute__((target("avx512f"))) void KeccakF1600x8(uint64_t* state) {
  __m512i a[25];
  __m512i e[25];
  for (int i = 0; i < 25; ++i) {
    a[i] = _mm512_load_si512(state + i * 8);
  }
  for (int round = 0; round < kRounds; round += 2) {
    RoundX8(a, e, kRoundConstants[round]);
    RoundX8(e, a, kRoundConstants[round + 1]);
  }
  for (int i = 0; i < 25; ++i) {
    _mm512_store_si512(state + i * 8, a[i]);
  }
}

// Runs the inputs through eight sponges. Every permutation advances each
// busy lane by one block; a lane whose final block was just permuted hands
// out its digest, clears its column and takes the next input, so inputs of
// different lengths keep every lane busy until the queue runs dry.
void Keccak256x8(std::span<const BytesView> inputs, std::span<Hash256> out) {
  constexpr size_t kLanes = 8;
  struct Lane {
    const uint8_t* p = nullptr;
    size_t n = 0;
    size_t index = 0;
    bool busy = false;
    bool last = false;  // The block absorbed this step was the final one.
  };
  alignas(64) uint64_t state[25 * kLanes] = {};
  Lane lanes[kLanes];
  size_t next = 0;
  size_t busy = 0;
  auto take = [&](Lane& lane) {
    lane = Lane{};
    if (next < inputs.size()) {
      lane = Lane{inputs[next].data(), inputs[next].size(), next, true, false};
      ++next;
      ++busy;
    }
  };
  for (Lane& lane : lanes) {
    take(lane);
  }
  while (busy > 0) {
    for (size_t j = 0; j < kLanes; ++j) {
      Lane& lane = lanes[j];
      if (!lane.busy) {
        continue;
      }
      if (lane.n >= kRateBytes) {
        AbsorbBlock(state + j, kLanes, lane.p);
        lane.p += kRateBytes;
        lane.n -= kRateBytes;
      } else {
        AbsorbFinal(state + j, kLanes, lane.p, lane.n);
        lane.last = true;
      }
    }
    KeccakF1600x8(state);
    for (size_t j = 0; j < kLanes; ++j) {
      Lane& lane = lanes[j];
      if (!lane.busy || !lane.last) {
        continue;
      }
      Squeeze(state + j, kLanes, out[lane.index]);
      for (size_t i = 0; i < 25; ++i) {
        state[i * kLanes + j] = 0;
      }
      --busy;
      take(lane);
    }
  }
}

// A lone input runs faster through the one-state permutation.
void Keccak256Avx512(std::span<const BytesView> inputs, std::span<Hash256> out) {
  if (inputs.size() < 2) {
    Keccak256Scalar(inputs, out);
  } else {
    Keccak256x8(inputs, out);
  }
}

#endif  // defined(__x86_64__)

using BatchFn = void (*)(std::span<const BytesView>, std::span<Hash256>);

BatchFn ChooseBatch() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    return Keccak256Avx512;
  }
#endif
  return Keccak256Scalar;
}

BatchFn BatchKernel() {
  static const BatchFn kernel = ChooseBatch();
  return kernel;
}

}  // namespace

Hash256 Keccak256(BytesView data) {
  uint64_t state[25] = {};
  const uint8_t* p = data.data();
  size_t n = data.size();
  // Absorb every full block straight from the input.
  for (; n >= kRateBytes; p += kRateBytes, n -= kRateBytes) {
    AbsorbBlock(state, 1, p);
    KeccakF1600(state);
  }
  AbsorbFinal(state, 1, p, n);
  KeccakF1600(state);
  Hash256 out;
  Squeeze(state, 1, out);
  return out;
}

void Keccak256Batch(std::span<const BytesView> inputs, std::span<Hash256> out) {
  BatchKernel()(inputs, out.first(inputs.size()));
}

int Keccak256BatchLanes() { return BatchKernel() == Keccak256Scalar ? 1 : 8; }

std::span<const Hash256> Keccak256WordBatch::Hash() {
  inputs_.clear();
  for (const auto& word : words_) {
    inputs_.emplace_back(word);
  }
  digests_.resize(words_.size());
  Keccak256Batch(inputs_, digests_);
  return digests_;
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
