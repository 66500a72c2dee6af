// Typed wire schema (ISSUE 9): every message that crosses a channel must
// round-trip value-exactly, and encodings must be *canonical* — for each
// value, encode∘decode∘encode is byte-identical. The endpoint relay
// re-encodes everything it receives, so canonicality is what makes the
// socket backends bit-compatible with the in-process oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "linalg/grad_vector.hpp"
#include "optim/payloads.hpp"
#include "store/disk/blob.hpp"
#include "store/model_delta.hpp"
#include "store/model_store.hpp"
#include "support/sha256.hpp"
#include "transport/frame.hpp"
#include "transport/msgpack.hpp"
#include "transport/wire.hpp"

namespace asyncml::transport {
namespace {

linalg::GradVector sparse_grad(std::size_t dim, std::initializer_list<std::uint32_t> idx) {
  linalg::GradVector g(linalg::GradVectorConfig(dim, /*threshold=*/0.9,
                                                /*dense_start=*/false));
  double v = 0.5;
  for (std::uint32_t i : idx) {
    g.set(i, v);
    v = v * 1.7 + 0.1;
  }
  return g;
}

linalg::GradVector dense_grad(std::size_t dim) {
  linalg::GradVector g(linalg::GradVectorConfig(dim, /*threshold=*/0.1,
                                                /*dense_start=*/true));
  std::vector<double> vals(dim);
  for (std::size_t i = 0; i < dim; ++i) vals[i] = 0.25 * static_cast<double>(i) - 3.0;
  g.assign_dense(vals);
  return g;
}

// A delta over strictly ascending `idx` with distinct values.
store::ModelDelta make_delta(engine::Version parent, std::size_t dim,
                             std::initializer_list<std::uint32_t> idx) {
  store::ModelDelta d;
  d.parent = parent;
  d.dim = dim;
  double v = 0.5;
  for (std::uint32_t i : idx) {
    d.indices.push_back(i);
    d.values.push_back(v);
    v = v * 1.7 + 0.1;
  }
  return d;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_bitwise_equal(const store::ModelDelta& a, const store::ModelDelta& b) {
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.dim, b.dim);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(bits_of(a.values), bits_of(b.values));
  EXPECT_EQ(a.wire_bytes(), b.wire_bytes());
}

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

void expect_bitwise_equal(const linalg::GradVector& a, const linalg::GradVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.is_dense(), b.is_dense()) << "representation must be preserved";
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.size_bytes(), b.size_bytes()) << "modeled wire size must be preserved";
  EXPECT_TRUE(linalg::bitwise_equal(a.to_dense(), b.to_dense()));
}

// ---------------------------------------------------------------------------
// Control messages.

TEST(Wire, HelloRoundTrips) {
  HelloMsg in;
  in.worker = 7;
  const auto bytes = encode_hello(in);
  HelloMsg out;
  out.worker = -1;
  ASSERT_TRUE(decode_hello(bytes, out).is_ok());
  EXPECT_EQ(out.protocol, kProtocolVersion);
  EXPECT_EQ(out.worker, 7);
  EXPECT_EQ(encode_hello(out), bytes);  // canonical
}

TEST(Wire, ErrorRoundTripsAndMaterializes) {
  ErrorMsg in;
  in.code = static_cast<std::uint32_t>(support::StatusCode::kInvalidArgument);
  in.message = "bad frame body";
  const auto bytes = encode_error(in);
  ErrorMsg out;
  ASSERT_TRUE(decode_error(bytes, out).is_ok());
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.message, in.message);

  const support::Status s = error_to_status(out);
  EXPECT_EQ(s.code(), support::StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad frame body");

  ErrorMsg junk;
  junk.code = 250;  // not a StatusCode — degrade, don't fail
  EXPECT_EQ(error_to_status(junk).code(), support::StatusCode::kInternal);
}

TEST(Wire, DecodingTruncatedControlMessagesFails) {
  const auto hello = encode_hello(HelloMsg{});
  HelloMsg out;
  for (std::size_t cut = 0; cut < hello.size(); ++cut) {
    EXPECT_FALSE(decode_hello({hello.data(), cut}, out).is_ok()) << cut;
  }
}

// ---------------------------------------------------------------------------
// Dispatch plane.

TEST(Wire, TaskSpecRoundTripsAndIsCanonical) {
  engine::TaskSpec spec;
  spec.id = 0x1234567890ull;
  spec.partition = 17;
  spec.seq = 42;
  spec.model_version = 9;
  spec.service_floor_ms = 6.25;
  spec.rng_seed = 0xDEADBEEFCAFEull;
  spec.migration_ms = 0.125;

  const TaskSpecMsg msg = to_wire(spec);
  const auto bytes = encode_task_spec(msg);
  TaskSpecMsg decoded;
  ASSERT_TRUE(decode_task_spec(bytes, decoded).is_ok());
  EXPECT_EQ(encode_task_spec(decoded), bytes);

  engine::TaskSpec rebuilt;
  apply_wire(decoded, rebuilt);
  EXPECT_EQ(rebuilt.id, spec.id);
  EXPECT_EQ(rebuilt.partition, spec.partition);
  EXPECT_EQ(rebuilt.seq, spec.seq);
  EXPECT_EQ(rebuilt.model_version, spec.model_version);
  EXPECT_EQ(rebuilt.service_floor_ms, spec.service_floor_ms);
  EXPECT_EQ(rebuilt.rng_seed, spec.rng_seed);
  EXPECT_EQ(rebuilt.migration_ms, spec.migration_ms);
}

// ---------------------------------------------------------------------------
// Payload codecs.

TEST(Wire, GradCountPayloadRoundTripsSparse) {
  optim::GradCount gc;
  gc.grad = sparse_grad(1000, {3, 999, 17, 501, 4});
  gc.count = 32;
  const std::size_t modeled = optim::payload_size_bytes(gc);
  const engine::Payload payload = engine::Payload::wrap(std::move(gc), modeled);

  const EncodedPayload enc = encode_payload(payload);
  ASSERT_EQ(enc.kind, PayloadKind::kGradCount);
  EXPECT_EQ(enc.modeled_bytes, modeled);

  auto decoded = decode_payload(enc.kind, enc.body, enc.modeled_bytes, nullptr);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().bytes(), modeled) << "charged bytes are backend-invariant";
  const auto& out = decoded.value().get<optim::GradCount>();
  EXPECT_EQ(out.count, 32u);
  expect_bitwise_equal(payload.get<optim::GradCount>().grad, out.grad);

  // Canonical: re-encoding the decoded value reproduces the bytes.
  EXPECT_EQ(encode_payload(decoded.value()).body, enc.body);
}

TEST(Wire, GradHistPayloadRoundTripsDense) {
  optim::GradHist gh;
  gh.grad = dense_grad(64);
  gh.hist = sparse_grad(64, {1, 2, 63});
  gh.count = 8;
  const std::size_t modeled = optim::payload_size_bytes(gh);
  const engine::Payload payload = engine::Payload::wrap(std::move(gh), modeled);

  const EncodedPayload enc = encode_payload(payload);
  ASSERT_EQ(enc.kind, PayloadKind::kGradHist);
  auto decoded = decode_payload(enc.kind, enc.body, enc.modeled_bytes, nullptr);
  ASSERT_TRUE(decoded.is_ok());
  const auto& out = decoded.value().get<optim::GradHist>();
  expect_bitwise_equal(payload.get<optim::GradHist>().grad, out.grad);
  expect_bitwise_equal(payload.get<optim::GradHist>().hist, out.hist);
  EXPECT_EQ(encode_payload(decoded.value()).body, enc.body);
}

// A msgpack bin can start at any byte of a frame, so a dense value bin is
// rarely 8-aligned: the decoder must copy the doubles out rather than load
// them through a misaligned pointer (undefined behaviour, which the
// UBSan build reports).
TEST(Wire, DenseGradCountDecodesFromAnyByteOffset) {
  optim::GradCount gc;
  gc.grad = dense_grad(33);
  gc.count = 5;
  const std::size_t modeled = optim::payload_size_bytes(gc);
  const engine::Payload payload = engine::Payload::wrap(std::move(gc), modeled);
  const EncodedPayload enc = encode_payload(payload);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<std::uint8_t> buffer(offset + enc.body.size());
    std::memcpy(buffer.data() + offset, enc.body.data(), enc.body.size());
    const std::span<const std::uint8_t> body(buffer.data() + offset, enc.body.size());
    auto decoded = decode_payload(enc.kind, body, enc.modeled_bytes, nullptr);
    ASSERT_TRUE(decoded.is_ok()) << "offset " << offset;
    const auto& out = decoded.value().get<optim::GradCount>();
    EXPECT_EQ(out.count, 5u);
    expect_bitwise_equal(payload.get<optim::GradCount>().grad, out.grad);
  }
}

TEST(Wire, ModelDeltaEnvelopeIsCanonicalAndCompressible) {
  const store::ModelDelta delta = make_delta(12, 4096, {3, 9, 77, 100, 2048, 4000});
  const std::size_t modeled = delta.wire_bytes();
  const engine::Payload payload = engine::Payload::wrap(delta, modeled);

  EXPECT_EQ(envelope_frame_kind(payload), FrameKind::kModelDelta);
  const auto env = encode_payload_envelope(payload);
  auto decoded = decode_payload_envelope(env, nullptr);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().bytes(), modeled);
  expect_bitwise_equal(delta, decoded.value().get<store::ModelDelta>());
  EXPECT_EQ(encode_payload_envelope(decoded.value()), env);

  // The flat arrays are copied out of the frame, so a body at any byte
  // offset decodes without a misaligned load.
  for (std::size_t offset = 1; offset < 8; ++offset) {
    std::vector<std::uint8_t> buffer(offset + env.size());
    std::memcpy(buffer.data() + offset, env.data(), env.size());
    auto shifted = decode_payload_envelope({buffer.data() + offset, env.size()}, nullptr);
    ASSERT_TRUE(shifted.is_ok()) << "offset " << offset;
    expect_bitwise_equal(delta, shifted.value().get<store::ModelDelta>());
  }
}

// Frames and disk blob digests of store-built deltas are pinned: these are
// the envelopes the hash-table ModelDelta encoded for the same publishes.
// Version 1 ships a -0.0, a NaN and -1e-300; version 2 ships
// a coordinate set back to its older value and the NaN again, but not the
// coordinates whose only change is the sign of a zero.
TEST(Wire, StoreBuiltDeltaEnvelopesKeepTheirBytes) {
  engine::BroadcastStore broadcasts;
  store::ModelStore model_store(&broadcasts);
  linalg::DenseVector w(64);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 0.5 * static_cast<double>(i) - 3.0;
  model_store.publish(w, 0);
  w[3] = -0.0;
  w[17] = 2.75;
  w[40] += 1.0 / 3.0;
  w[63] = -1e-300;
  w[9] = std::numeric_limits<double>::quiet_NaN();
  const engine::BroadcastId v1 = model_store.publish(w, 1);
  w[0] = 0.0;
  w[6] = -0.0;
  w[3] = 0.0;
  w[17] = 5.5;
  const engine::BroadcastId v2 = model_store.publish(w, 2);

  EXPECT_EQ(hex_of(encode_payload_envelope(broadcasts.get(v1))),
            "930644c44f92009640c2cb3ff028f5c28f5c29c2c414030000000900000011000000"
            "280000003f000000c4280000000000000080000000000000f87f0000000000000640"
            "555555555555314059f3f8c21f6ea581");
  EXPECT_EQ(hex_of(encode_payload_envelope(broadcasts.get(v2))),
            "93062cc43792019640c2cb3ff028f5c28f5c29c2c40c000000000900000011000000"
            "c4180000000000000000000000000000f87f0000000000001640");
}

// The CRC-bearing bytes end to end: a frame header carries the CRC-32 of its
// body and a blob header that of its payload, so the sha256 of a whole frame
// or blob file pins the CRC with the rest. The result is the 6 476-byte frame
// sgd-epsilon-durable ships, an 800-dim dense GradCount; the delta envelope
// crosses the wire lz4-compressed and lands on disk as a blob.
TEST(Wire, CrcBearingFramesAndBlobKeepTheirBytes) {
  engine::TaskResult result;
  result.id = 200;
  result.worker = 2;
  result.partition = 5;
  result.seq = 9;
  result.model_version = 17;
  optim::GradCount gc;
  gc.grad = dense_grad(800);
  gc.count = 100;
  const std::size_t grad_bytes = gc.grad.size_bytes();
  result.payload = engine::Payload::wrap(std::move(gc), grad_bytes);
  result.compute_ms = 0.75;
  result.service_ms = 1.5;
  const std::vector<std::uint8_t> result_frame = encode_frame(
      static_cast<std::uint8_t>(FrameKind::kTaskResult), encode_task_result(to_wire(result)));

  store::ModelDelta delta;
  delta.parent = 12;
  delta.dim = 4096;
  for (std::uint32_t i = 0; i < 256; ++i) {
    delta.indices.push_back(16 * i);
    delta.values.push_back(1.0 / (1.0 + static_cast<double>(i % 7)));
  }
  const std::size_t delta_bytes = delta.wire_bytes();
  const std::vector<std::uint8_t> envelope =
      encode_payload_envelope(engine::Payload::wrap(std::move(delta), delta_bytes));
  const std::vector<std::uint8_t> delta_frame =
      encode_frame_lz4(static_cast<std::uint8_t>(FrameKind::kModelDelta), envelope);
  const std::vector<std::uint8_t> blob = store::disk::encode_blob(envelope);

  const auto digest_of = [](const std::vector<std::uint8_t>& bytes) {
    return support::sha256_hex(support::sha256(bytes));
  };
  EXPECT_EQ(result_frame.size(), 6476u);
  EXPECT_EQ(digest_of(result_frame),
            "47fd59c5b92e050f6c5f7134db6e50317d142a144ecb3915c891cf02c1af01e3");
  EXPECT_EQ(digest_of(delta_frame),
            "b0db5057d41a65dda3b20e35029ff4e4a8153fcaabc16e17e46dcd27760ef5a2");
  EXPECT_EQ(digest_of(blob),
            "84307a208856fc02d826134c29c05d9a2a50aacf479136209d7a42123bb7f684");
}

// One wire slot of a ModelDelta body each; the defaults decode.
struct DeltaBody {
  std::size_t arity = 6;
  std::uint64_t dim = 8;
  bool dense = false;
  double threshold = 1.01;
  std::vector<std::uint32_t> indices = {1, 5};
  std::vector<double> values = {0.25, -2.0};
  std::size_t index_bin_bytes = 8;  ///< bytes of `indices` the index bin carries
};

std::vector<std::uint8_t> delta_envelope(const DeltaBody& d) {
  MsgWriter body;
  body.begin_array(2);
  body.write_uint(4);
  body.begin_array(d.arity);
  body.write_uint(d.dim);
  body.write_bool(d.dense);
  body.write_double(d.threshold);
  body.write_bool(false);
  body.write_bin({reinterpret_cast<const std::uint8_t*>(d.indices.data()), d.index_bin_bytes});
  body.write_bin({reinterpret_cast<const std::uint8_t*>(d.values.data()),
                  d.values.size() * sizeof(double)});
  MsgWriter env;
  env.begin_array(3);
  env.write_uint(static_cast<std::uint64_t>(PayloadKind::kModelDelta));
  env.write_uint(32);
  env.write_bin(body.bytes());
  return env.take();
}

TEST(Wire, ModelDeltaDecodeRejectsEachMalformedBody) {
  auto accepted = decode_payload_envelope(delta_envelope(DeltaBody{}), nullptr);
  ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
  expect_bitwise_equal(accepted.value().get<store::ModelDelta>(),
                       store::ModelDelta{4, 8, {1, 5}, {0.25, -2.0}});

  const auto rejects = [](const char* what, const DeltaBody& d) {
    EXPECT_FALSE(decode_payload_envelope(delta_envelope(d), nullptr).is_ok()) << what;
  };
  DeltaBody d;
  d.arity = 5;
  rejects("5-element body", d);
  d = {};
  d.dim = 0x100000000ull;
  rejects("dim past the u32 index space", d);
  for (double threshold : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.5}) {
    d = {};
    d.threshold = threshold;
    rejects("non-finite or negative threshold", d);
  }
  d = {};
  d.dense = true;  // a well-formed dense GradVector body
  d.indices = {};
  d.index_bin_bytes = 0;
  d.values.assign(8, 1.0);
  rejects("dense form", d);
  d = {};
  d.index_bin_bytes = 6;
  rejects("index bin not a multiple of 4", d);
  d = {};
  d.values = {0.25};
  rejects("value bin not 8 bytes per index", d);
  d = {};
  d.indices = {1, 8};
  rejects("index >= dim", d);
  d = {};
  d.indices = {5, 5};
  rejects("repeated index", d);
  d = {};
  d.indices = {5, 1};
  rejects("descending indices", d);
}

// Kind 4 once carried a bare GradVector. A well-formed GradVector body under
// that kind is refused like any unknown kind: in an envelope and in a task
// result, where the driver decodes them and where the endpoint re-encodes.
TEST(Wire, RetiredGradVectorKindIsRefused) {
  constexpr std::uint64_t kRetiredKind = 4;
  const std::vector<std::uint32_t> indices = {1, 5};
  const std::vector<double> values = {0.25, -2.0};
  MsgWriter grad;  // [dim, dense?, densify_threshold, start_dense?, indices, values]
  grad.begin_array(6);
  grad.write_uint(8);
  grad.write_bool(false);
  grad.write_double(1.01);
  grad.write_bool(false);
  grad.write_bin({reinterpret_cast<const std::uint8_t*>(indices.data()),
                  indices.size() * sizeof(std::uint32_t)});
  grad.write_bin({reinterpret_cast<const std::uint8_t*>(values.data()),
                  values.size() * sizeof(double)});

  MsgWriter env;
  env.begin_array(3);
  env.write_uint(kRetiredKind);
  env.write_uint(32);
  env.write_bin(grad.bytes());
  const std::vector<std::uint8_t> envelope = env.take();
  EXPECT_FALSE(decode_payload_envelope(envelope, nullptr).is_ok());
  EXPECT_FALSE(reencode_message(FrameKind::kOpaque, envelope).is_ok());

  TaskResultMsg msg;
  msg.payload_kind = static_cast<PayloadKind>(kRetiredKind);
  msg.payload_modeled_bytes = 32;
  msg.payload_body = grad.take();
  const std::vector<std::uint8_t> body = encode_task_result(msg);
  TaskResultMsg decoded;
  ASSERT_TRUE(decode_task_result(body, decoded).is_ok());
  EXPECT_FALSE(from_wire(decoded, nullptr).is_ok());
  EXPECT_FALSE(reencode_message(FrameKind::kTaskResult, body).is_ok());
}

TEST(Wire, DenseVectorEnvelopeIsBase) {
  linalg::DenseVector w(128);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0 / (1.0 + double(i));
  const std::size_t modeled = w.size() * sizeof(double);
  const engine::Payload payload = engine::Payload::wrap(std::move(w), modeled);

  EXPECT_EQ(envelope_frame_kind(payload), FrameKind::kModelBase);
  const auto env = encode_payload_envelope(payload);
  auto decoded = decode_payload_envelope(env, nullptr);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(linalg::bitwise_equal(payload.get<linalg::DenseVector>(),
                                    decoded.value().get<linalg::DenseVector>()));
  EXPECT_EQ(encode_payload_envelope(decoded.value()), env);
}

TEST(Wire, OpaquePayloadNeedsLocalSource) {
  // An unregistered type crosses as metadata only; reconstruction requires
  // the local original, and honestly fails without one.
  struct Unregistered {
    int x = 5;
  };
  const engine::Payload payload = engine::Payload::wrap(Unregistered{}, 4096);
  const EncodedPayload enc = encode_payload(payload);
  EXPECT_EQ(enc.kind, PayloadKind::kOpaque);
  EXPECT_EQ(enc.modeled_bytes, 4096u);
  EXPECT_TRUE(enc.body.empty());

  EXPECT_FALSE(decode_payload(enc.kind, enc.body, enc.modeled_bytes, nullptr).is_ok());

  auto decoded = decode_payload(enc.kind, enc.body, enc.modeled_bytes, &payload);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().get<Unregistered>().x, 5);
  EXPECT_EQ(decoded.value().bytes(), 4096u);
}

TEST(Wire, EmptyPayloadRoundTripsAsNone) {
  const engine::Payload empty;
  const EncodedPayload enc = encode_payload(empty);
  EXPECT_EQ(enc.kind, PayloadKind::kNone);
  auto decoded = decode_payload(enc.kind, enc.body, enc.modeled_bytes, nullptr);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_FALSE(decoded.value().has_value());
}

// ---------------------------------------------------------------------------
// Result plane.

TEST(Wire, TaskResultRoundTripsWithPayloadAndStatus) {
  engine::TaskResult result;
  result.id = 77;
  result.worker = 3;
  result.partition = 12;
  result.seq = 5;
  result.model_version = 21;
  result.status = support::Status(support::StatusCode::kCancelled, "dropped by fault");
  optim::GradCount gc;
  gc.grad = sparse_grad(256, {0, 128, 255});
  gc.count = 16;
  result.payload = engine::Payload::wrap(std::move(gc), 44);
  result.compute_ms = 1.5;
  result.service_ms = 6.0;

  const TaskResultMsg msg = to_wire(result);
  const auto bytes = encode_task_result(msg);
  TaskResultMsg decoded_msg;
  ASSERT_TRUE(decode_task_result(bytes, decoded_msg).is_ok());
  EXPECT_EQ(encode_task_result(decoded_msg), bytes);  // canonical

  auto rebuilt = from_wire(decoded_msg, nullptr);
  ASSERT_TRUE(rebuilt.is_ok());
  const engine::TaskResult& out = rebuilt.value();
  EXPECT_EQ(out.id, result.id);
  EXPECT_EQ(out.worker, result.worker);
  EXPECT_EQ(out.partition, result.partition);
  EXPECT_EQ(out.seq, result.seq);
  EXPECT_EQ(out.model_version, result.model_version);
  EXPECT_EQ(out.status.code(), support::StatusCode::kCancelled);
  EXPECT_EQ(out.status.message(), "dropped by fault");
  EXPECT_EQ(out.compute_ms, result.compute_ms);
  EXPECT_EQ(out.service_ms, result.service_ms);
  EXPECT_EQ(out.payload.bytes(), 44u);
  expect_bitwise_equal(result.payload.get<optim::GradCount>().grad,
                       out.payload.get<optim::GradCount>().grad);
}

// ---------------------------------------------------------------------------
// Endpoint relay.

TEST(Wire, ReencodeMessageIsIdentityForEveryKind) {
  // The relay's contract: decode + canonical re-encode echoes the bytes.
  engine::TaskSpec spec;
  spec.id = 5;
  spec.rng_seed = 99;
  const auto spec_bytes = encode_task_spec(to_wire(spec));
  auto r1 = reencode_message(FrameKind::kTaskSpec, spec_bytes);
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(r1.value(), spec_bytes);

  engine::TaskResult result;
  result.id = 6;
  optim::GradCount gc;
  gc.grad = sparse_grad(64, {2, 61});
  result.payload = engine::Payload::wrap(std::move(gc), 32);
  const auto result_bytes = encode_task_result(to_wire(result));
  auto r2 = reencode_message(FrameKind::kTaskResult, result_bytes);
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2.value(), result_bytes);

  store::ModelDelta delta = make_delta(2, 512, {5, 100});
  const std::size_t modeled = delta.wire_bytes();
  const auto env = encode_payload_envelope(engine::Payload::wrap(std::move(delta), modeled));
  auto r3 = reencode_message(FrameKind::kModelDelta, env);
  ASSERT_TRUE(r3.is_ok());
  EXPECT_EQ(r3.value(), env);

  const auto hello = encode_hello(HelloMsg{});
  auto r4 = reencode_message(FrameKind::kHello, hello);
  ASSERT_TRUE(r4.is_ok());
  EXPECT_EQ(r4.value(), hello);
}

TEST(Wire, ReencodeMessageRejectsGarbage) {
  const std::vector<std::uint8_t> garbage = {0xFF, 0x00, 0x13, 0x37};
  EXPECT_FALSE(reencode_message(FrameKind::kTaskSpec, garbage).is_ok());
  EXPECT_FALSE(reencode_message(FrameKind::kTaskResult, garbage).is_ok());
  EXPECT_FALSE(reencode_message(FrameKind::kModelDelta, garbage).is_ok());
}

// Sparse entries are emitted in ascending index order regardless of the hash
// table's iteration order — two equal-valued vectors built in different
// insertion orders must encode identically.
TEST(Wire, SparseEncodingIsInsertionOrderIndependent) {
  linalg::GradVector a(linalg::GradVectorConfig(100, 0.9, false));
  linalg::GradVector b(linalg::GradVectorConfig(100, 0.9, false));
  a.set(3, 1.0);
  a.set(50, 2.0);
  a.set(99, 3.0);
  b.set(99, 3.0);
  b.set(3, 1.0);
  b.set(50, 2.0);

  optim::GradCount ga{std::move(a), 1};
  optim::GradCount gb{std::move(b), 1};
  const auto ea = encode_payload(engine::Payload::wrap(std::move(ga), 44));
  const auto eb = encode_payload(engine::Payload::wrap(std::move(gb), 44));
  EXPECT_EQ(ea.body, eb.body);
}

}  // namespace
}  // namespace asyncml::transport
