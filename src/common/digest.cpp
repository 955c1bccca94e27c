#include "common/digest.hpp"

namespace reshape {

namespace {
constexpr std::uint64_t kPrime = 0x100000001b3ULL;
}  // namespace

Digest64& Digest64::update(std::string_view data) {
  for (const char c : data) {
    hash_ ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash_ *= kPrime;
  }
  return *this;
}

Digest64& Digest64::update_u64(std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (v >> (8 * byte)) & 0xffULL;
    hash_ *= kPrime;
  }
  return *this;
}

}  // namespace reshape
