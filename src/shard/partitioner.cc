#include "shard/partitioner.h"

namespace seraph {
namespace shard {

uint64_t StableHash64(const void* data, size_t size) {
  // FNV-1a, 64-bit (public-domain constants).
  uint64_t h = 14695981039346656037ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t StableHash64(const std::string& text) {
  return StableHash64(text.data(), text.size());
}

}  // namespace shard
}  // namespace seraph
