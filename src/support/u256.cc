#include "src/support/u256.h"

#include <algorithm>
#include <bit>
#include <span>

namespace pevm {
namespace {

struct DivModResult {
  U256 quotient;
  U256 remainder;
};

bool GetBit(const U256& v, unsigned i) { return (v.limb(i / 64) >> (i % 64)) & 1; }

using u128 = unsigned __int128;

// Number of limbs up to the highest non-zero one (0 for zero).
size_t LiveLimbs(const uint64_t* x, size_t n) {
  while (n > 0 && x[n - 1] == 0) {
    --n;
  }
  return n;
}

// Knuth's algorithm D (TAOCP vol. 2, §4.3.1) on 64-bit limbs, little-endian:
// divides the m-limb `u` by the n-limb `v` (1 <= n <= 4, n <= m <= 8,
// v[n-1] != 0), writing m - n + 1 quotient limbs to `q` and n remainder limbs
// to `r`.
void KnuthDivide(const uint64_t* u, size_t m, const uint64_t* v, size_t n, uint64_t* q,
                 uint64_t* r) {
  if (n == 1) {
    // One-limb divisor: schoolbook division by a single digit.
    u128 rem = 0;
    for (size_t i = m; i-- > 0;) {
      const u128 cur = (rem << 64) | u[i];
      q[i] = static_cast<uint64_t>(cur / v[0]);
      rem = cur % v[0];
    }
    r[0] = static_cast<uint64_t>(rem);
    return;
  }
  // D1: normalize so the divisor's top limb has its high bit set; the
  // dividend gains one limb.
  const int s = std::countl_zero(v[n - 1]);
  uint64_t vn[4];
  uint64_t un[9];
  for (size_t i = n - 1; i > 0; --i) {
    vn[i] = s == 0 ? v[i] : (v[i] << s) | (v[i - 1] >> (64 - s));
  }
  vn[0] = v[0] << s;
  un[m] = s == 0 ? 0 : u[m - 1] >> (64 - s);
  for (size_t i = m - 1; i > 0; --i) {
    un[i] = s == 0 ? u[i] : (u[i] << s) | (u[i - 1] >> (64 - s));
  }
  un[0] = u[0] << s;

  for (size_t j = m - n + 1; j-- > 0;) {
    // D3: estimate the quotient limb from the top two dividend limbs and the
    // top divisor limb, then correct it with the second divisor limb; the
    // estimate is then at most one too large.
    const u128 top = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = top / vn[n - 1];
    u128 rhat = top % vn[n - 1];
    while (qhat >> 64 != 0 || qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >> 64 != 0) {
        break;
      }
    }
    // D4: multiply and subtract qhat * vn from un[j .. j+n].
    const uint64_t qd = static_cast<uint64_t>(qhat);
    uint64_t carry = 0;
    uint64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      const u128 p = static_cast<u128>(qd) * vn[i] + carry;
      carry = static_cast<uint64_t>(p >> 64);
      const uint64_t lo = static_cast<uint64_t>(p);
      const uint64_t t = un[i + j] - lo;
      const uint64_t next_borrow = (un[i + j] < lo) | (t < borrow);
      un[i + j] = t - borrow;
      borrow = next_borrow;
    }
    const uint64_t t = un[j + n] - carry;
    const bool negative = (un[j + n] < carry) | (t < borrow);
    un[j + n] = t - borrow;
    q[j] = qd;
    if (negative) {
      // D6: the estimate was one too large; add the divisor back.
      --q[j];
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<uint64_t>(sum);
        c = static_cast<uint64_t>(sum >> 64);
      }
      un[j + n] += c;
    }
  }
  // D8: the remainder is un[0 .. n], shifted back.
  for (size_t i = 0; i < n; ++i) {
    r[i] = s == 0 ? un[i] : (un[i] >> s) | (un[i + 1] << (64 - s));
  }
}

U256 FromLimbs(const uint64_t* x) { return U256(x[3], x[2], x[1], x[0]); }

// Divides the little-endian limbs `limbs` (up to 512 bits) by n != 0: returns
// the remainder and, when `quotient` is set, stores the quotient's low 256
// bits there.
U256 DivideLimbs(std::span<const uint64_t> limbs, const U256& n, U256* quotient) {
  const uint64_t v[4] = {n.limb(0), n.limb(1), n.limb(2), n.limb(3)};
  const size_t vlen = LiveLimbs(v, 4);
  const size_t ulen = LiveLimbs(limbs.data(), limbs.size());
  if (ulen < vlen) {
    // Fewer live limbs than the divisor: the dividend is the remainder.
    uint64_t r[4] = {};
    std::copy(limbs.begin(), limbs.begin() + static_cast<long>(ulen), r);
    return FromLimbs(r);
  }
  uint64_t q[8] = {};
  uint64_t r[4] = {};
  KnuthDivide(limbs.data(), ulen, v, vlen, q, r);
  if (quotient != nullptr) {
    *quotient = FromLimbs(q);
  }
  return FromLimbs(r);
}

DivModResult DivMod(const U256& a, const U256& b) {
  DivModResult out;
  if (b.IsZero()) {
    return out;  // EVM: x / 0 == 0, x % 0 == 0.
  }
  const uint64_t u[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  out.remainder = DivideLimbs(u, b, &out.quotient);
  return out;
}

}  // namespace

U256 U256::Div(const U256& a, const U256& b) { return DivMod(a, b).quotient; }

U256 U256::Mod(const U256& a, const U256& b) { return DivMod(a, b).remainder; }

U256 U256::SDiv(const U256& a, const U256& b) {
  if (b.IsZero()) {
    return U256{};
  }
  bool neg_a = a.IsNegative();
  bool neg_b = b.IsNegative();
  U256 ua = neg_a ? -a : a;
  U256 ub = neg_b ? -b : b;
  U256 q = Div(ua, ub);
  // Note: SDIV(-2^255, -1) overflows to -2^255; the negate below reproduces
  // that naturally since -(2^255) == 2^255 in wrapping arithmetic.
  return (neg_a != neg_b) ? -q : q;
}

U256 U256::SMod(const U256& a, const U256& b) {
  if (b.IsZero()) {
    return U256{};
  }
  bool neg_a = a.IsNegative();
  U256 ua = neg_a ? -a : a;
  U256 ub = b.IsNegative() ? -b : b;
  U256 r = Mod(ua, ub);
  return neg_a ? -r : r;
}

U256 U256::AddMod(const U256& a, const U256& b, const U256& n) {
  if (n.IsZero()) {
    return U256{};
  }
  U256 ra = Mod(a, n);
  U256 rb = Mod(b, n);
  U256 sum = ra + rb;
  // ra, rb < n <= 2^256 - 1, so ra + rb < 2n. Overflow past 2^256 or sum >= n
  // both mean exactly one subtraction of n is needed (wrapping subtraction is
  // correct in the overflow case).
  bool overflow = sum < ra;
  if (overflow || sum >= n) {
    sum = sum - n;
  }
  return sum;
}

U256 U256::MulMod(const U256& a, const U256& b, const U256& n) {
  if (n.IsZero()) {
    return U256{};
  }
  // Full 512-bit product, then reduce.
  std::array<uint64_t, 8> prod{};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb(i)) * b.limb(j) + prod[i + j] + carry;
      prod[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    prod[i + 4] = static_cast<uint64_t>(carry);
  }
  return DivideLimbs(prod, n, nullptr);
}

U256 U256::Exp(const U256& base, const U256& exponent) {
  U256 result(1);
  U256 b = base;
  for (unsigned i = 0; i < exponent.BitLength(); ++i) {
    if (GetBit(exponent, i)) {
      result = result * b;
    }
    b = b * b;
  }
  return result;
}

U256 U256::SignExtend(const U256& byte_index, const U256& value) {
  if (!byte_index.FitsUint64() || byte_index.AsUint64() >= 31) {
    return value;
  }
  unsigned idx = static_cast<unsigned>(byte_index.AsUint64());
  unsigned sign_bit = idx * 8 + 7;
  U256 mask = Shl(sign_bit + 1, U256(1)) - U256(1);  // Low (idx+1)*8 bits set.
  if (GetBit(value, sign_bit)) {
    return value | ~mask;
  }
  return value & mask;
}

U256 U256::Byte(const U256& i, const U256& value) {
  if (!i.FitsUint64() || i.AsUint64() >= 32) {
    return U256{};
  }
  unsigned shift = (31 - static_cast<unsigned>(i.AsUint64())) * 8;
  return Shr(shift, value) & U256(0xff);
}

U256 U256::FromBigEndian(BytesView bytes) {
  U256 r;
  size_t n = std::min<size_t>(bytes.size(), 32);
  // Right-align: the last byte of input is the least significant.
  for (size_t i = 0; i < n; ++i) {
    uint8_t b = bytes[bytes.size() - 1 - i];
    r.limbs_[i / 8] |= static_cast<uint64_t>(b) << (8 * (i % 8));
  }
  return r;
}

std::array<uint8_t, 32> U256::ToBigEndian() const {
  std::array<uint8_t, 32> out{};
  for (size_t i = 0; i < 32; ++i) {
    out[31 - i] = static_cast<uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

Address U256::ToAddress() const {
  std::array<uint8_t, 32> be = ToBigEndian();
  std::array<uint8_t, Address::kSize> a;
  std::copy(be.begin() + 12, be.end(), a.begin());
  return Address(a);
}

std::optional<U256> U256::FromString(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
    if (text.empty() || text.size() > 64) {
      return std::nullopt;
    }
    U256 r;
    for (char c : text) {
      int v;
      if (c >= '0' && c <= '9') {
        v = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        v = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        v = c - 'A' + 10;
      } else {
        return std::nullopt;
      }
      r = Shl(4, r) | U256(static_cast<uint64_t>(v));
    }
    return r;
  }
  U256 r;
  const U256 ten(10);
  for (char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    U256 next = r * ten + U256(static_cast<uint64_t>(c - '0'));
    if (Div(next - U256(static_cast<uint64_t>(c - '0')), ten) != r) {
      return std::nullopt;  // Overflow.
    }
    r = next;
  }
  return r;
}

std::string U256::ToString() const {
  if (IsZero()) {
    return "0";
  }
  std::string digits;
  U256 v = *this;
  const U256 ten(10);
  while (!v.IsZero()) {
    DivModResult dm = DivMod(v, ten);
    digits.push_back(static_cast<char>('0' + dm.remainder.AsUint64()));
    v = dm.quotient;
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string U256::ToHexString() const {
  if (IsZero()) {
    return "0x0";
  }
  std::array<uint8_t, 32> be = ToBigEndian();
  std::string hex = HexEncode(BytesView(be.data(), be.size()));
  size_t first = hex.find_first_not_of('0');
  return "0x" + hex.substr(first);
}

}  // namespace pevm
