#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <random>

#include "src/support/bytes.h"
#include "src/support/keccak.h"
#include "src/support/rlp.h"
#include "src/support/u256.h"
#include "src/support/zipf.h"

namespace pevm {
namespace {

// --- Hex / bytes ---

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(data), "0001abff");
  EXPECT_EQ(HexDecode("0001abff"), data);
  EXPECT_EQ(HexDecode("0x0001ABFF"), data);
}

TEST(BytesTest, HexDecodeRejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").has_value());
  EXPECT_FALSE(HexDecode("zz").has_value());
}

TEST(BytesTest, AddressFromId) {
  Address a = Address::FromId(0x1234);
  EXPECT_EQ(a.ToHex(), "0x0000000000000000000000000000000000001234");
  EXPECT_FALSE(a.IsZero());
  EXPECT_TRUE(Address().IsZero());
}

TEST(BytesTest, AddressHexRoundTrip) {
  Address a = Address::FromId(0xdeadbeef);
  std::optional<Address> b = Address::FromHex(a.ToHex());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a, *b);
}

// --- U256 arithmetic ---

TEST(U256Test, BasicAddSub) {
  U256 a(100);
  U256 b(42);
  EXPECT_EQ(a + b, U256(142));
  EXPECT_EQ(a - b, U256(58));
}

TEST(U256Test, AddWraps) {
  U256 max = ~U256{};
  EXPECT_EQ(max + U256(1), U256{});
  EXPECT_EQ(U256{} - U256(1), max);
}

TEST(U256Test, AddCarriesAcrossLimbs) {
  U256 a(0, 0, 0, ~uint64_t{0});
  EXPECT_EQ(a + U256(1), U256(0, 0, 1, 0));
}

TEST(U256Test, MulBasicAndWrap) {
  EXPECT_EQ(U256(7) * U256(6), U256(42));
  U256 two_to_128 = U256::Shl(128, U256(1));
  EXPECT_EQ(two_to_128 * two_to_128, U256{});  // 2^256 wraps to zero.
  EXPECT_EQ(U256(0, 0, 1, 0) * U256(0, 0, 1, 0), two_to_128);  // 2^64 * 2^64.
  U256 two_to_255 = U256::Shl(255, U256(1));
  EXPECT_EQ(two_to_255 * U256(2), U256{});
}

TEST(U256Test, DivMod) {
  EXPECT_EQ(U256::Div(U256(100), U256(7)), U256(14));
  EXPECT_EQ(U256::Mod(U256(100), U256(7)), U256(2));
  EXPECT_EQ(U256::Div(U256(100), U256{}), U256{});  // EVM: div by zero is 0.
  EXPECT_EQ(U256::Mod(U256(100), U256{}), U256{});
  EXPECT_EQ(U256::Div(U256(5), U256(100)), U256{});
  EXPECT_EQ(U256::Mod(U256(5), U256(100)), U256(5));
}

TEST(U256Test, DivLargeValues) {
  U256 a = U256::Exp(U256(10), U256(40));
  U256 b = U256::Exp(U256(10), U256(20));
  EXPECT_EQ(U256::Div(a, b), b);
  EXPECT_EQ(U256::Mod(a, b), U256{});
  EXPECT_EQ(U256::Mod(a + U256(3), b), U256(3));
}

TEST(U256Test, SDivSemantics) {
  U256 minus_ten = -U256(10);
  EXPECT_EQ(U256::SDiv(minus_ten, U256(3)), -U256(3));
  EXPECT_EQ(U256::SDiv(U256(10), -U256(3)), -U256(3));
  EXPECT_EQ(U256::SDiv(minus_ten, -U256(3)), U256(3));
  // SDIV(-2^255, -1) == -2^255 (the EVM's only signed-overflow case).
  U256 int_min = U256::Shl(255, U256(1));
  EXPECT_EQ(U256::SDiv(int_min, -U256(1)), int_min);
  EXPECT_EQ(U256::SDiv(U256(1), U256{}), U256{});
}

TEST(U256Test, SModTakesDividendSign) {
  EXPECT_EQ(U256::SMod(-U256(10), U256(3)), -U256(1));
  EXPECT_EQ(U256::SMod(U256(10), -U256(3)), U256(1));
  EXPECT_EQ(U256::SMod(-U256(10), -U256(3)), -U256(1));
}

TEST(U256Test, AddModMulMod) {
  EXPECT_EQ(U256::AddMod(U256(10), U256(10), U256(7)), U256(6));
  EXPECT_EQ(U256::MulMod(U256(10), U256(10), U256(7)), U256(2));
  EXPECT_EQ(U256::AddMod(U256(10), U256(10), U256{}), U256{});
  EXPECT_EQ(U256::MulMod(U256(10), U256(10), U256{}), U256{});
  // The intermediate sum/product must not wrap at 2^256.
  U256 max = ~U256{};
  EXPECT_EQ(U256::AddMod(max, max, U256(12)), U256::Mod(U256::Mod(max, U256(12)) * U256(2), U256(12)));
  EXPECT_EQ(U256::MulMod(max, max, max - U256(1)), U256(1));  // (n+1)^2 mod n == 1 for n = max-1.
  // A modulus above 2^255: reducing the 512-bit product must keep the bit
  // that doubling a partial remainder carries out of 256 bits.
  EXPECT_EQ(
      U256::MulMod(
          *U256::FromString("0x58aba2016a61be95971a0d4e1af555d3321d92cc70fc99e78f0b49b38c72fbab"),
          *U256::FromString("0x6c33436c343dfee8bcbc073529d9d0575c7e55440a333d648f4ec44f6648b785"),
          *U256::FromString("0x975f305d458d39421cd20b7a5a1edbbe2a87dd2ff319ec03b468dae94683624a")),
      *U256::FromString("0x3db3c63a82c859a50368a1528191259ec118a1995f24aff06ffad3b2b5f64d5d"));
}

TEST(U256Test, Exp) {
  EXPECT_EQ(U256::Exp(U256(2), U256(10)), U256(1024));
  EXPECT_EQ(U256::Exp(U256(0), U256(0)), U256(1));  // EVM: 0^0 == 1.
  EXPECT_EQ(U256::Exp(U256(0), U256(5)), U256{});
  EXPECT_EQ(U256::Exp(U256(2), U256(256)), U256{});  // Wraps.
  EXPECT_EQ(U256::Exp(U256(3), U256(4)), U256(81));
}

TEST(U256Test, SignExtend) {
  // 0xff at byte 0 sign-extends to -1.
  EXPECT_EQ(U256::SignExtend(U256(0), U256(0xff)), ~U256{});
  EXPECT_EQ(U256::SignExtend(U256(0), U256(0x7f)), U256(0x7f));
  // Upper garbage is cleared when the sign bit is 0.
  EXPECT_EQ(U256::SignExtend(U256(0), U256(0x170)), U256(0x70));
  EXPECT_EQ(U256::SignExtend(U256(31), U256(0xff)), U256(0xff));
  EXPECT_EQ(U256::SignExtend(U256(100), U256(0xff)), U256(0xff));
}

TEST(U256Test, ByteOp) {
  U256 v = U256::FromString("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20").value();
  EXPECT_EQ(U256::Byte(U256(0), v), U256(0x01));
  EXPECT_EQ(U256::Byte(U256(31), v), U256(0x20));
  EXPECT_EQ(U256::Byte(U256(32), v), U256{});
}

TEST(U256Test, Shifts) {
  EXPECT_EQ(U256::Shl(4, U256(1)), U256(16));
  EXPECT_EQ(U256::Shr(4, U256(16)), U256(1));
  EXPECT_EQ(U256::Shl(256, U256(1)), U256{});
  EXPECT_EQ(U256::Shr(256, ~U256{}), U256{});
  EXPECT_EQ(U256::Shl(64, U256(1)), U256(0, 0, 1, 0));
  EXPECT_EQ(U256::Shr(64, U256(0, 0, 1, 0)), U256(1));
  EXPECT_EQ(U256::Shl(130, U256(1)), U256(0, 4, 0, 0));
}

TEST(U256Test, Sar) {
  EXPECT_EQ(U256::Sar(U256(1), -U256(4)), -U256(2));
  EXPECT_EQ(U256::Sar(U256(1), U256(4)), U256(2));
  EXPECT_EQ(U256::Sar(U256(300), -U256(1)), ~U256{});
  EXPECT_EQ(U256::Sar(U256(300), U256(7)), U256{});
  EXPECT_EQ(U256::Sar(U256(0), -U256(4)), -U256(4));
}

TEST(U256Test, Comparisons) {
  EXPECT_TRUE(U256(1) < U256(2));
  EXPECT_TRUE(U256(0, 0, 1, 0) > U256(~uint64_t{0}));
  EXPECT_TRUE(U256::SLt(-U256(1), U256(0)));
  EXPECT_FALSE(U256::SLt(U256(0), -U256(1)));
  EXPECT_TRUE(U256::SLt(-U256(5), -U256(3)));
}

TEST(U256Test, BigEndianRoundTrip) {
  U256 v = U256::FromString("0xdeadbeefcafebabe0123456789abcdef").value();
  std::array<uint8_t, 32> be = v.ToBigEndian();
  EXPECT_EQ(U256::FromBigEndian(BytesView(be.data(), be.size())), v);
  // Short input is right-aligned (zero-extended on the left).
  Bytes two = {0x01, 0x00};
  EXPECT_EQ(U256::FromBigEndian(two), U256(256));
}

TEST(U256Test, AddressConversionTruncatesTo160Bits) {
  U256 v = U256::FromString("0xffffffffffffffffffffffff1122334455667788990011223344556677889900")
               .value();
  EXPECT_EQ(v.ToAddress().ToHex(), "0x1122334455667788990011223344556677889900");
  Address a = Address::FromId(7);
  EXPECT_EQ(U256::FromAddress(a), U256(7));
}

TEST(U256Test, StringConversions) {
  EXPECT_EQ(U256::FromString("12345").value(), U256(12345));
  EXPECT_EQ(U256::FromString("0xff").value(), U256(255));
  EXPECT_EQ(U256(255).ToHexString(), "0xff");
  EXPECT_EQ(U256{}.ToString(), "0");
  EXPECT_EQ(U256{}.ToHexString(), "0x0");
  U256 big = U256::Exp(U256(10), U256(30));
  EXPECT_EQ(big.ToString(), "1000000000000000000000000000000");
  EXPECT_EQ(U256::FromString(big.ToString()).value(), big);
  EXPECT_FALSE(U256::FromString("").has_value());
  EXPECT_FALSE(U256::FromString("12a").has_value());
  EXPECT_FALSE(U256::FromString("0x").has_value());
  // 65 hex digits overflow.
  EXPECT_FALSE(U256::FromString("0x1" + std::string(64, '0')).has_value());
}

TEST(U256Test, BitAndByteLength) {
  EXPECT_EQ(U256{}.BitLength(), 0u);
  EXPECT_EQ(U256(1).BitLength(), 1u);
  EXPECT_EQ(U256(255).BitLength(), 8u);
  EXPECT_EQ(U256(256).BitLength(), 9u);
  EXPECT_EQ((~U256{}).BitLength(), 256u);
  EXPECT_EQ(U256(255).ByteLength(), 1u);
  EXPECT_EQ(U256(256).ByteLength(), 2u);
}

// Property sweep: EVM identities over pseudo-random values.
class U256PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(U256PropertyTest, AlgebraicIdentities) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    U256 a(rng(), rng(), rng(), rng());
    U256 b(rng(), rng(), rng(), rng());
    U256 n(0, 0, rng(), rng());
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a - b, -(b - a));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a ^ b) ^ b, a);
    EXPECT_EQ(~~a, a);
    if (!b.IsZero()) {
      EXPECT_EQ(U256::Div(a, b) * b + U256::Mod(a, b), a);
      EXPECT_TRUE(U256::Mod(a, b) < b);
    }
    if (!n.IsZero()) {
      EXPECT_EQ(U256::AddMod(a, b, n), U256::Mod(U256::Mod(a, n) + U256::Mod(b, n), n));
    }
    EXPECT_EQ(U256::Shr(8, U256::Shl(8, U256::Shr(8, a))), U256::Shr(8, a));
    std::array<uint8_t, 32> be = a.ToBigEndian();
    EXPECT_EQ(U256::FromBigEndian(BytesView(be.data(), be.size())), a);
  }
}


// --- U256 division against the bit-serial oracle ---
//
// Restoring long division, one quotient bit per step: the implementation
// U256::Div / Mod used before Knuth's algorithm D. Slow, but too simple to
// get wrong.

struct OracleDivMod {
  U256 quotient;
  U256 remainder;
};

OracleDivMod BitSerialDivMod(const U256& a, const U256& b) {
  OracleDivMod out;
  if (b.IsZero()) {
    return out;
  }
  for (int i = static_cast<int>(a.BitLength()) - 1; i >= 0; --i) {
    out.remainder = U256::Shl(1, out.remainder);
    if ((a.limb(static_cast<size_t>(i) / 64) >> (i % 64)) & 1) {
      out.remainder = out.remainder | U256(1);
    }
    if (out.remainder >= b) {
      out.remainder = out.remainder - b;
      out.quotient = out.quotient | U256::Shl(static_cast<uint64_t>(i), U256(1));
    }
  }
  return out;
}

// (a * b) mod n over the full 512-bit product, reduced bit by bit the way
// MulMod did before Knuth's algorithm D, except that the old reduction
// dropped the bit doubling carries out of 256 bits (wrong for n > 2^255).
U256 BitSerialMulMod(const U256& a, const U256& b, const U256& n) {
  if (n.IsZero()) {
    return U256{};
  }
  std::array<uint64_t, 8> prod{};
  for (size_t i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (size_t j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb(i)) * b.limb(j) + prod[i + j] + carry;
      prod[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    prod[i + 4] = static_cast<uint64_t>(carry);
  }
  U256 rem;
  for (size_t li = 8; li-- > 0;) {
    for (int bi = 63; bi >= 0; --bi) {
      // rem < n <= 2^256 - 1, so doubling it can carry out of 256 bits; the
      // carry means the true value exceeds n and one subtraction fixes it.
      const bool carry = rem.IsNegative();
      rem = U256::Shl(1, rem) | U256((prod[li] >> bi) & 1);
      if (carry || rem >= n) {
        rem = rem - n;
      }
    }
  }
  return rem;
}

// A random operand with `live` live limbs (0-4). Half the limbs are edge
// values, which make quotient-limb estimates land exactly on their
// correction paths; the top live limb is non-zero, with its high bit set or
// clear as asked (set means algorithm D needs no normalization shift).
U256 RandomOperand(std::mt19937_64& rng, int live, bool top_high_bit) {
  static constexpr uint64_t kEdges[] = {0,          1,          2,
                                        1ULL << 63, ~0ULL >> 1, ~0ULL,
                                        ~0ULL - 1,  1ULL << 32, (1ULL << 63) + 1};
  std::array<uint64_t, 4> limbs{};
  for (int i = 0; i < live; ++i) {
    limbs[i] = rng() % 2 == 0 ? kEdges[rng() % std::size(kEdges)] : rng();
  }
  if (live > 0) {
    uint64_t& top = limbs[live - 1];
    top = top_high_bit ? top | (1ULL << 63) : (top & (~0ULL >> 1));
    if (top == 0) {
      top = 1 + rng() % 0xffff;
    }
  }
  return U256(limbs[3], limbs[2], limbs[1], limbs[0]);
}

void ExpectDivisionMatchesOracle(const U256& a, const U256& b) {
  const OracleDivMod want = BitSerialDivMod(a, b);
  EXPECT_EQ(U256::Div(a, b), want.quotient) << a.ToHexString() << " / " << b.ToHexString();
  EXPECT_EQ(U256::Mod(a, b), want.remainder) << a.ToHexString() << " % " << b.ToHexString();
}

TEST(U256Test, DivisionMatchesBitSerialOracleOnEdgeCases) {
  const U256 max = ~U256{};
  const U256 values[] = {U256{}, U256(1), U256(2), U256(10), U256(~0ULL),
                         U256(0, 0, 1, 0), U256(0, 1, 0, 0), U256(1, 0, 0, 0),
                         U256::Shl(255, U256(1)), max - U256(1), max};
  for (const U256& a : values) {
    for (const U256& b : values) {
      ExpectDivisionMatchesOracle(a, b);  // Covers a < b, a == b, b == 0, b == 1.
    }
  }
  // Quotient-limb estimates that are one too large after the two-limb
  // correction, so the multiply-and-subtract goes negative and algorithm D
  // must add the divisor back (the 64-bit-limb forms of the add-back cases in
  // Hacker's Delight's divmnu tests).
  ExpectDivisionMatchesOracle(U256(0, 1ULL << 63, 0, 3), U256(0, 1ULL << 61, 0, 1));
  ExpectDivisionMatchesOracle(U256(~0ULL >> 1, 1ULL << 63, 0, 0), U256(0, 1ULL << 63, 0, 1));
}

TEST_P(U256PropertyTest, KnuthDivisionMatchesBitSerialOracle) {
  std::mt19937_64 rng(GetParam());
  for (int live_a = 1; live_a <= 4; ++live_a) {
    for (int live_b = 1; live_b <= 4; ++live_b) {
      for (bool top_high_bit : {false, true}) {
        for (int i = 0; i < 40; ++i) {
          const U256 a = RandomOperand(rng, live_a, rng() % 2 == 0);
          const U256 b = RandomOperand(rng, live_b, top_high_bit);
          ExpectDivisionMatchesOracle(a, b);
          const U256 c = RandomOperand(rng, 1 + static_cast<int>(rng() % 4), rng() % 2 == 0);
          EXPECT_EQ(U256::MulMod(a, c, b), BitSerialMulMod(a, c, b))
              << a.ToHexString() << " * " << c.ToHexString() << " % " << b.ToHexString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256PropertyTest, ::testing::Values(1, 2, 3, 42, 1337));

// --- Keccak-256 (known-answer vectors) ---

TEST(KeccakTest, EmptyInput) {
  EXPECT_EQ(HexEncode(Keccak256({})),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(KeccakTest, Abc) {
  Bytes abc = {'a', 'b', 'c'};
  EXPECT_EQ(HexEncode(Keccak256(abc)),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(KeccakTest, Erc20TransferSelector) {
  // keccak("transfer(address,uint256)")[0:4] == a9059cbb — the universally
  // known ERC-20 selector; a strong end-to-end check of the permutation.
  std::string sig = "transfer(address,uint256)";
  Bytes data(sig.begin(), sig.end());
  EXPECT_EQ(HexEncode(Keccak256(data)).substr(0, 8), "a9059cbb");
}

TEST(KeccakTest, MultiBlockInput) {
  // > 136 bytes forces a second absorb round. Vector from OpenSSL KECCAK-256.
  Bytes data(200, 0x61);  // 200 * 'a'
  EXPECT_EQ(HexEncode(Keccak256(data)),
            "96ea54061def936c4be90b518992fdc6f12f535068a256229aca54267b4d084d");
}

TEST(KeccakTest, ExactRateBoundary) {
  // Exactly one full rate block; padding goes into a second block.
  // Vector from OpenSSL KECCAK-256.
  Bytes data(136, 0x00);
  EXPECT_EQ(HexEncode(Keccak256(data)),
            "3a5912a7c5faa06ee4fe906253e339467a9ce87d533c65be3c15cb231cdb25f9");
}

// The rolled textbook Keccak-f[1600] over a 5x5 lane array, absorbing
// through a zero-padded block: the implementation Keccak256 used before its
// unrolled rewrite, kept here as the oracle.
void RolledKeccakF1600(uint64_t a[5][5]) {
  static constexpr uint64_t kRoundConstants[24] = {
      0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL, 0x8000000080008000ULL,
      0x000000000000808bULL, 0x0000000080000001ULL, 0x8000000080008081ULL, 0x8000000000008009ULL,
      0x000000000000008aULL, 0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
      0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL, 0x8000000000008003ULL,
      0x8000000000008002ULL, 0x8000000000000080ULL, 0x000000000000800aULL, 0x800000008000000aULL,
      0x8000000080008081ULL, 0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
  };
  static constexpr int kRotations[5][5] = {
      {0, 36, 3, 41, 18}, {1, 44, 10, 45, 2}, {62, 6, 43, 15, 61}, {28, 55, 25, 21, 56},
      {27, 20, 39, 8, 14},
  };
  auto rotl = [](uint64_t v, int s) { return s == 0 ? v : (v << s) | (v >> (64 - s)); };
  for (uint64_t rc : kRoundConstants) {
    uint64_t c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4];
    }
    for (int x = 0; x < 5; ++x) {
      const uint64_t d = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
      for (int y = 0; y < 5; ++y) {
        a[x][y] ^= d;
      }
    }
    uint64_t b[5][5];
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        b[y][(2 * x + 3 * y) % 5] = rotl(a[x][y], kRotations[x][y]);
      }
    }
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        a[x][y] = b[x][y] ^ (~b[(x + 1) % 5][y] & b[(x + 2) % 5][y]);
      }
    }
    a[0][0] ^= rc;
  }
}

Hash256 RolledKeccak256(BytesView data) {
  constexpr size_t kRate = 136;
  uint64_t state[5][5] = {};
  auto absorb = [&](const uint8_t* block) {
    for (size_t i = 0; i < kRate / 8; ++i) {
      uint64_t lane;
      std::memcpy(&lane, block + i * 8, 8);
      state[i % 5][i / 5] ^= lane;
    }
    RolledKeccakF1600(state);
  };
  size_t offset = 0;
  for (; data.size() - offset >= kRate; offset += kRate) {
    absorb(data.data() + offset);
  }
  uint8_t block[kRate] = {};
  std::copy(data.begin() + static_cast<long>(offset), data.end(), block);
  block[data.size() - offset] = 0x01;
  block[kRate - 1] |= 0x80;
  absorb(block);
  Hash256 out;
  for (size_t i = 0; i < 4; ++i) {
    std::memcpy(out.data() + i * 8, &state[i % 5][i / 5], 8);
  }
  return out;
}

TEST(KeccakTest, MatchesRolledReferenceAtEveryLength) {
  // Every length 0-1100 covers the padding cases around the rate boundaries
  // (135/136/137, 271/272/273, ...); the start offset varies so lane loads
  // see every alignment.
  std::mt19937_64 rng(1600);
  Bytes data(1100 + 8);
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>(rng());
  }
  for (size_t len = 0; len <= 1100; ++len) {
    const BytesView input(data.data() + len % 8, len);
    ASSERT_EQ(HexEncode(Keccak256(input)), HexEncode(RolledKeccak256(input))) << "length " << len;
  }
}

TEST(KeccakTest, MappingSlotMatchesManualConstruction) {
  U256 key(0x1234);
  U256 slot(2);
  Bytes buf(64, 0);
  std::array<uint8_t, 32> k = key.ToBigEndian();
  std::array<uint8_t, 32> s = slot.ToBigEndian();
  std::copy(k.begin(), k.end(), buf.begin());
  std::copy(s.begin(), s.end(), buf.begin() + 32);
  EXPECT_EQ(MappingSlot(key, slot), Keccak256Word(buf));
  EXPECT_EQ(MappingSlot2(U256(1), U256(2), U256(3)), MappingSlot(U256(2), MappingSlot(U256(1), U256(3))));
}

// --- RLP (yellow-paper examples) ---

TEST(RlpTest, SingleByte) {
  Bytes dog = {'d', 'o', 'g'};
  EXPECT_EQ(HexEncode(RlpEncodeBytes(dog)), "83646f67");
  Bytes single = {0x0f};
  EXPECT_EQ(HexEncode(RlpEncodeBytes(single)), "0f");
  Bytes hi = {0x80};
  EXPECT_EQ(HexEncode(RlpEncodeBytes(hi)), "8180");
}

TEST(RlpTest, EmptyStringAndZero) {
  EXPECT_EQ(HexEncode(RlpEncodeBytes({})), "80");
  EXPECT_EQ(HexEncode(RlpEncodeUint(U256{})), "80");
  EXPECT_EQ(HexEncode(RlpEncodeUint(U256(15))), "0f");
  EXPECT_EQ(HexEncode(RlpEncodeUint(U256(1024))), "820400");
}

TEST(RlpTest, List) {
  std::vector<Bytes> items = {RlpEncodeBytes(Bytes{'c', 'a', 't'}),
                              RlpEncodeBytes(Bytes{'d', 'o', 'g'})};
  EXPECT_EQ(HexEncode(RlpEncodeList(items)), "c88363617483646f67");
  EXPECT_EQ(HexEncode(RlpEncodeList({})), "c0");
}

TEST(RlpTest, LongString) {
  std::string lorem = "Lorem ipsum dolor sit amet, consectetur adipisicing elit";
  Bytes data(lorem.begin(), lorem.end());
  Bytes enc = RlpEncodeBytes(data);
  EXPECT_EQ(enc[0], 0xb8);
  EXPECT_EQ(enc[1], data.size());
  EXPECT_EQ(enc.size(), data.size() + 2);
}

TEST(RlpTest, LongList) {
  std::vector<Bytes> items(30, RlpEncodeBytes(Bytes{'a', 'b', 'c'}));
  Bytes enc = RlpEncodeList(items);
  EXPECT_EQ(enc[0], 0xf8);
  EXPECT_EQ(enc[1], 30 * 4);
}

TEST(RlpTest, SizesMatchTheWriters) {
  EXPECT_EQ(RlpHeaderSize(0), 1u);
  EXPECT_EQ(RlpHeaderSize(55), 1u);
  EXPECT_EQ(RlpHeaderSize(56), 2u);
  EXPECT_EQ(RlpHeaderSize(255), 2u);
  EXPECT_EQ(RlpHeaderSize(256), 3u);
  EXPECT_EQ(RlpHeaderSize(65536), 4u);
  for (size_t len : {0, 1, 2, 55, 56, 255, 256, 1024, 65536}) {
    const Bytes data(len, 0xab);
    Bytes out = {0xee};  // Writers append after whatever the buffer holds.
    RlpAppendBytes(out, data);
    EXPECT_EQ(out.size(), 1 + RlpBytesSize(data)) << len;
    EXPECT_EQ(out[0], 0xee);
    Bytes list;
    RlpAppendListHeader(list, len);
    EXPECT_EQ(list.size(), RlpHeaderSize(len)) << len;
  }
  Bytes header;
  RlpAppendStringHeader(header, 256);
  EXPECT_EQ(HexEncode(header), "b90100");
  header.clear();
  RlpAppendListHeader(header, 1024);
  EXPECT_EQ(HexEncode(header), "f90400");
  for (const U256& v : {U256{}, U256(1), U256(0x7f), U256(0x80), U256(0xff), U256(0x100),
                        ~U256{}}) {
    Bytes out;
    RlpAppendUint(out, v);
    EXPECT_EQ(out.size(), RlpUintSize(v)) << v.ToHexString();
  }
  for (uint8_t b : {0x00, 0x7f, 0x80, 0xff}) {
    EXPECT_EQ(RlpBytesSize(BytesView(&b, 1)), b < 0x80 ? 1u : 2u);
  }
}

// --- Zipf sampler ---

TEST(ZipfTest, ProducesValidRange) {
  std::mt19937_64 rng(7);
  ZipfDistribution zipf(1000, 1.1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t k = zipf(rng);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 1000u);
  }
}

TEST(ZipfTest, SkewMatchesExpectation) {
  std::mt19937_64 rng(7);
  ZipfDistribution zipf(100000, 1.05);
  std::map<uint64_t, int> counts;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    counts[zipf(rng)]++;
  }
  // Rank 1 must dominate, and the top 100 (0.1%) should carry a majority of
  // the mass — the paper's hot-spot shape.
  int top100 = 0;
  for (uint64_t r = 1; r <= 100; ++r) {
    top100 += counts.count(r) ? counts[r] : 0;
  }
  EXPECT_GT(counts[1], counts.count(2) ? counts[2] : 0);
  EXPECT_GT(static_cast<double>(top100) / kSamples, 0.45);
}

TEST(ZipfTest, DegenerateSingleElement) {
  std::mt19937_64 rng(7);
  ZipfDistribution zipf(1, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf(rng), 1u);
  }
}

}  // namespace
}  // namespace pevm
