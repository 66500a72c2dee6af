// Frame-corpus fuzzing (ISSUE 9 satellite): ≥1000 seeded deterministic
// mutations — bit flips, truncations, length-field lies, splices — applied
// to *recorded real frames* (a task spec, a gradient-bearing result, an
// lz4 model delta, a hello), driven through the full decode path. The
// invariant is absolute: no crash, no out-of-bounds, and anything the
// decoder does emit either decodes cleanly or fails with a Status.
//
// Allocation guard: decoders run with a small max_frame_bytes, so a mutated
// length field can never drive a large allocation — a lying header must be
// rejected before body storage is reserved.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/grad_vector.hpp"
#include "optim/payloads.hpp"
#include "store/model_delta.hpp"
#include "transport/frame.hpp"
#include "transport/wire.hpp"

namespace asyncml::transport {
namespace {

// xorshift64* — deterministic across platforms, seeded per mutation.
struct Rng {
  std::uint64_t x;
  explicit Rng(std::uint64_t seed) : x(seed * 2685821657736338717ull | 1) {}
  std::uint64_t next() {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 2685821657736338717ull;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

// The corpus: real frames as the driver actually emits them.
std::vector<std::vector<std::uint8_t>> record_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;

  corpus.push_back(encode_frame(static_cast<std::uint8_t>(FrameKind::kHello),
                                encode_hello(HelloMsg{kProtocolVersion, 2})));

  engine::TaskSpec spec;
  spec.id = 41;
  spec.partition = 3;
  spec.seq = 12;
  spec.model_version = 7;
  spec.service_floor_ms = 2.0;
  spec.rng_seed = 0xFEEDull;
  corpus.push_back(encode_frame(static_cast<std::uint8_t>(FrameKind::kTaskSpec),
                                encode_task_spec(to_wire(spec))));

  engine::TaskResult result;
  result.id = 41;
  result.worker = 2;
  result.partition = 3;
  result.seq = 12;
  result.model_version = 7;
  optim::GradCount gc;
  gc.grad = linalg::GradVector(linalg::GradVectorConfig(512, 0.9, false));
  for (std::uint32_t i = 0; i < 40; ++i) {
    gc.grad.set(i * 12 + 1, 0.25 * static_cast<double>(i) - 2.0);
  }
  gc.count = 40;
  result.payload = engine::Payload::wrap(std::move(gc), 488);
  result.compute_ms = 0.7;
  result.service_ms = 2.0;
  corpus.push_back(encode_frame(static_cast<std::uint8_t>(FrameKind::kTaskResult),
                                encode_task_result(to_wire(result))));

  store::ModelDelta delta;
  delta.parent = 6;
  delta.dim = 2048;
  for (std::uint32_t i = 0; i < 64; ++i) {
    delta.indices.push_back(i * 31 + 5);
    delta.values.push_back(1.0 / (1.0 + static_cast<double>(i)));
  }
  const std::size_t modeled = delta.wire_bytes();
  const auto env = encode_payload_envelope(engine::Payload::wrap(std::move(delta), modeled));
  corpus.push_back(
      encode_frame_lz4(static_cast<std::uint8_t>(FrameKind::kModelDelta), env));

  return corpus;
}

FrameKind corpus_kind(std::size_t i) {
  static const FrameKind kinds[] = {FrameKind::kHello, FrameKind::kTaskSpec,
                                    FrameKind::kTaskResult, FrameKind::kModelDelta};
  return kinds[i];
}

std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& frame, Rng& rng) {
  std::vector<std::uint8_t> m = frame;
  switch (rng.below(6)) {
    case 0:  // single bit flip
      m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1: {  // burst of byte rewrites
      const std::size_t n = 1 + rng.below(8);
      for (std::size_t k = 0; k < n; ++k) {
        m[rng.below(m.size())] = static_cast<std::uint8_t>(rng.next());
      }
      break;
    }
    case 2:  // truncate
      m.resize(rng.below(m.size()));
      break;
    case 3: {  // length-field lie: rewrite body_len / raw_len with junk
      const std::size_t off = rng.below(2) == 0 ? 8 : 12;
      for (std::size_t k = 0; k < 4; ++k) {
        m[off + k] = static_cast<std::uint8_t>(rng.next());
      }
      break;
    }
    case 4: {  // splice: prepend the tail of another copy (mis-framed stream)
      std::vector<std::uint8_t> tail(frame.end() - static_cast<std::ptrdiff_t>(
                                                       1 + rng.below(frame.size() - 1)),
                                     frame.end());
      tail.insert(tail.end(), m.begin(), m.end());
      m = std::move(tail);
      break;
    }
    default: {  // grow: append junk past the frame boundary
      const std::size_t n = 1 + rng.below(64);
      for (std::size_t k = 0; k < n; ++k) {
        m.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      break;
    }
  }
  return m;
}

// Drives one mutated byte string through the exact path the socket layer
// uses: incremental decode (in two random splits, like real reads), then
// message_bytes + typed re-encode for every frame that survives framing.
void drive(const std::vector<std::uint8_t>& data, FrameKind kind, Rng& rng) {
  FrameDecoder decoder(/*max_frame_bytes=*/1 << 16);  // allocation guard
  std::vector<Frame> frames;
  const std::size_t cut = data.empty() ? 0 : rng.below(data.size() + 1);
  support::Status status = decoder.feed({data.data(), cut}, frames);
  if (status.is_ok()) {
    status = decoder.feed({data.data() + cut, data.size() - cut}, frames);
  }
  if (!status.is_ok()) {
    EXPECT_TRUE(decoder.poisoned());
    return;  // framing rejected the mutation — the expected common case
  }
  for (const Frame& f : frames) {
    auto msg = f.message_bytes();
    if (!msg.is_ok()) continue;  // corrupt lz4 body caught at decompression
    // Rarely a mutation survives crc (e.g. junk appended after a valid
    // frame): the typed layer must then either decode or return Status.
    (void)reencode_message(kind, msg.value());
  }
}

TEST(FrameFuzz, ThousandsOfSeededMutationsNeverCrash) {
  const auto corpus = record_corpus();
  ASSERT_EQ(corpus.size(), 4u);

  std::size_t mutations = 0;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
      Rng rng(seed * 1000003ull + c);
      const auto mutated = mutate(corpus[c], rng);
      drive(mutated, corpus_kind(c), rng);
      ++mutations;
    }
  }
  EXPECT_GE(mutations, 1000u);
}

// Every single-bit flip of a complete frame is caught somewhere: header
// flips fail field validation, body flips fail crc, length flips either
// fail validation or leave the decoder waiting for bytes that never come.
// The only flips that may emit a complete frame are in the type/flags bytes
// where the result is a *different valid* (type, flags) combination — those
// framing cannot distinguish from a legitimate frame, and the request/ack
// protocol layer rejects them as kind mismatches. Exhaustive over the
// (small) hello frame — no bit is silently absorbed.
TEST(FrameFuzz, EverySingleBitFlipOfAHelloFrameIsCaught) {
  const auto frame = encode_frame(static_cast<std::uint8_t>(FrameKind::kHello),
                                  encode_hello(HelloMsg{}));
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto m = frame;
      m[byte] ^= static_cast<std::uint8_t>(1 << bit);
      FrameDecoder decoder;
      std::vector<Frame> frames;
      const auto status = decoder.feed(m, frames);
      if (!status.is_ok() || frames.empty()) continue;  // rejected or torn
      ASSERT_EQ(frames.size(), 1u);
      const bool type_or_flags_changed =
          frames[0].type != frame[4] || frames[0].flags != frame[5];
      EXPECT_TRUE(type_or_flags_changed && (byte == 4 || byte == 5))
          << "byte " << byte << " bit " << bit
          << " produced a frame indistinguishable from the original";
    }
  }
}

// The allocation guard, pinned directly: a frame header claiming a body of
// ~4 GiB against a 64 KiB decoder must fail before reserving body storage.
// (If the decoder allocated first, this test would OOM the runner, not just
// fail.)
TEST(FrameFuzz, LyingLengthHeaderCannotDriveAllocation) {
  for (std::uint32_t lie : {0x7FFFFFFFu, 0xFFFFFFF0u, 0x00100001u}) {
    auto frame = encode_frame(static_cast<std::uint8_t>(FrameKind::kTaskResult),
                              std::vector<std::uint8_t>(64, 1));
    frame[8] = static_cast<std::uint8_t>(lie);
    frame[9] = static_cast<std::uint8_t>(lie >> 8);
    frame[10] = static_cast<std::uint8_t>(lie >> 16);
    frame[11] = static_cast<std::uint8_t>(lie >> 24);
    FrameDecoder decoder(/*max_frame_bytes=*/1 << 16);
    std::vector<Frame> frames;
    EXPECT_FALSE(decoder.feed({frame.data(), kFrameHeaderBytes}, frames).is_ok())
        << "lie " << lie;
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace asyncml::transport
