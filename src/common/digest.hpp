// 64-bit FNV-1a digests: the planning server hashes model keys and plan
// fingerprints with them, and the controller its unit admission digests.
// FNV-1a is not cryptographic, but it is deterministic across platforms
// and cheap.
#pragma once

#include <cstdint>
#include <string_view>

namespace reshape {

/// Streaming FNV-1a 64-bit digest.
class Digest64 {
 public:
  Digest64& update(std::string_view data);
  Digest64& update_u64(std::uint64_t v);

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace reshape
