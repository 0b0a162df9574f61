#include "serve/fingerprint.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace rannc {
namespace serve {

namespace {

// splitmix64 finalizer: the standard cheap 64-bit bijective mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Streaming word hasher: order-sensitive, one 64-bit state.
class Hasher {
 public:
  explicit Hasher(std::uint64_t seed) : state_(mix64(seed)) {}

  Hasher& add(std::uint64_t w) {
    state_ = mix64(state_ ^ mix64(w));
    return *this;
  }
  Hasher& add_bytes(const std::string& s) {
    // FNV-1a over the bytes, then folded in as one word with the length
    // (so "ab","c" never collides with "a","bc" across adjacent fields).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return add(h).add(s.size());
  }
  Hasher& add_shape(const Shape& s) {
    add(s.rank());
    for (std::int64_t d : s.dims) add(static_cast<std::uint64_t>(d));
    return *this;
  }
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_;
};

// Domain-separation tags for the different label kinds.
constexpr std::uint64_t kTagInput = 0xA11CE001;
constexpr std::uint64_t kTagParam = 0xA11CE002;
constexpr std::uint64_t kTagTask = 0xA11CE003;
constexpr std::uint64_t kTagOutput = 0xA11CE004;

}  // namespace

std::string Fingerprint::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i)
    out[15 - i] = kHex[(hi >> (4 * i)) & 0xF];
  for (int i = 0; i < 16; ++i)
    out[31 - i] = kHex[(lo >> (4 * i)) & 0xF];
  return out;
}

Fingerprint parse_fingerprint(const std::string& hex) {
  if (hex.size() != 32)
    throw std::invalid_argument("fingerprint: expected 32 hex digits, got '" +
                                hex + "'");
  Fingerprint fp;
  for (int i = 0; i < 32; ++i) {
    const char c = hex[i];
    std::uint64_t nib = 0;
    if (c >= '0' && c <= '9') nib = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') nib = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      throw std::invalid_argument("fingerprint: bad hex digit in '" + hex +
                                  "'");
    (i < 16 ? fp.hi : fp.lo) = ((i < 16 ? fp.hi : fp.lo) << 4) | nib;
  }
  return fp;
}

Fingerprint fingerprint_graph(const VerifiedGraph& verified) {
  const TaskGraph& g = verified.graph();
  std::vector<std::uint64_t> label(g.num_values(), 0);

  // Graph inputs are fed positionally, so their ordinal is semantic.
  std::uint64_t input_ordinal = 0;
  for (const Value& v : g.values()) {
    const auto idx = static_cast<std::size_t>(v.id);
    if (v.kind == ValueKind::Input) {
      label[idx] = Hasher(kTagInput)
                       .add(input_ordinal++)
                       .add_shape(v.shape)
                       .add(static_cast<std::uint64_t>(v.dtype))
                       .digest();
    } else if (v.kind == ValueKind::Param) {
      label[idx] = Hasher(kTagParam)
                       .add_shape(v.shape)
                       .add(static_cast<std::uint64_t>(v.dtype))
                       .digest();
    }
  }

  // Insertion order is a topological order, so every input label exists by
  // the time its consumer is visited.
  for (const Task& t : g.tasks()) {
    Hasher h(kTagTask);
    h.add(static_cast<std::uint64_t>(t.kind));

    h.add(t.attrs.ints.size());
    for (const auto& [k, v] : t.attrs.ints)
      h.add_bytes(k).add(static_cast<std::uint64_t>(v));
    h.add(t.attrs.floats.size());
    for (const auto& [k, v] : t.attrs.floats)
      h.add_bytes(k).add(std::bit_cast<std::uint64_t>(v));

    h.add(t.inputs.size());
    for (ValueId in : t.inputs) h.add(label[static_cast<std::size_t>(in)]);

    // Verified: the recorded output metadata is what the inputs imply.
    const Value& out = g.value(t.output);
    h.add_shape(out.shape).add(static_cast<std::uint64_t>(out.dtype));
    label[static_cast<std::size_t>(t.output)] = h.digest();
  }

  // Combine into a multiset digest: two independent per-label mixes feed
  // a wrapping sum and an xor, so insertion order of independent subgraphs
  // cannot matter while single-label changes still flip both words.
  std::uint64_t sum_a = 0, xor_a = 0, sum_b = 0, xor_b = 0;
  std::uint64_t count = 0;
  const auto absorb = [&](std::uint64_t l) {
    const std::uint64_t a = mix64(l ^ 0x5bf03635aaf25957ULL);
    const std::uint64_t b = mix64(l ^ 0xc2b2ae3d27d4eb4fULL);
    sum_a += a;
    xor_a ^= a;
    sum_b += b;
    xor_b ^= b;
    ++count;
  };
  for (const Value& v : g.values()) {
    absorb(label[static_cast<std::size_t>(v.id)]);
    if (v.is_output)
      absorb(mix64(label[static_cast<std::size_t>(v.id)] ^ kTagOutput));
  }

  Fingerprint fp;
  fp.hi = mix64(sum_a ^ mix64(xor_a) ^ mix64(count));
  fp.lo = mix64(sum_b ^ mix64(xor_b) ^ mix64(count ^ kTagTask));
  return fp;
}

}  // namespace serve
}  // namespace rannc
