#include "transport/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "linalg/dense_vector.hpp"
#include "linalg/grad_vector.hpp"
#include "optim/payloads.hpp"
#include "store/model_delta.hpp"
#include "transport/msgpack.hpp"

namespace asyncml::transport {

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

Status bad(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

// Raw little-endian array bins: multi-gigabyte gradient data rides as flat
// bins (one memcpy each way), not per-element msgpack. Both endpoints run on
// the same host architecture; the grammar in docs/TRANSPORT.md records the
// byte order explicitly.
void write_u32_bin(MsgWriter& w, std::span<const std::uint32_t> values) {
  w.write_bin({reinterpret_cast<const std::uint8_t*>(values.data()),
               values.size() * sizeof(std::uint32_t)});
}

void write_f64_bin(MsgWriter& w, std::span<const double> values) {
  w.write_bin({reinterpret_cast<const std::uint8_t*>(values.data()),
               values.size() * sizeof(double)});
}

std::uint32_t read_u32_at(std::span<const std::uint8_t> bin, std::size_t i) {
  std::uint32_t v;
  std::memcpy(&v, bin.data() + i * sizeof(v), sizeof(v));
  return v;
}

double read_f64_at(std::span<const std::uint8_t> bin, std::size_t i) {
  double v;
  std::memcpy(&v, bin.data() + i * sizeof(v), sizeof(v));
  return v;
}

// --- GradVector ------------------------------------------------------------
// [dim, dense?, densify_threshold, start_dense?, bin indices, bin values]

void begin_grad_vector(MsgWriter& w, std::uint64_t dim, bool dense, double threshold,
                       bool start_dense) {
  w.begin_array(6);
  w.write_uint(dim);
  w.write_bool(dense);
  w.write_double(threshold);
  w.write_bool(start_dense);
}

void encode_grad_vector(MsgWriter& w, const linalg::GradVector& g) {
  begin_grad_vector(w, g.dim(), g.is_dense(), g.config().densify_threshold,
                    g.config().start_dense);
  if (g.is_dense()) {
    // nnz() is 0 for an untouched dense accumulator (no storage, ships 0
    // bytes) and dim once storage exists; the value bin mirrors that.
    std::vector<double> values;
    if (g.nnz() != 0) {
      values.reserve(g.dim());
      values.resize(g.dim());
      g.for_each([&](std::uint32_t i, double v) { values[i] = v; });
    }
    w.write_bin({});
    write_f64_bin(w, values);
    return;
  }
  // Canonical form: ascending index order regardless of table layout.
  std::vector<std::pair<std::uint32_t, double>> entries;
  entries.reserve(g.nnz());
  g.for_each([&](std::uint32_t i, double v) { entries.emplace_back(i, v); });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint32_t> indices;
  std::vector<double> values;
  indices.reserve(entries.size());
  values.reserve(entries.size());
  for (const auto& [i, v] : entries) {
    indices.push_back(i);
    values.push_back(v);
  }
  write_u32_bin(w, indices);
  write_f64_bin(w, values);
}

// The six fields of a GradVector body, read with the checks every form
// shares: dim fits the u32 index space, the threshold is finite and >= 0.
struct GradVectorBody {
  std::uint64_t dim = 0;
  bool dense = false;
  double threshold = 0.0;
  bool start_dense = false;
  std::span<const std::uint8_t> idx_bin;
  std::span<const std::uint8_t> val_bin;
};

Status read_grad_vector_body(MsgReader& r, GradVectorBody& b) {
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 6) return bad("gradvector: expected 6-element array");
  if (Status s = r.read_uint(b.dim); !s.is_ok()) return s;
  if (Status s = r.read_bool(b.dense); !s.is_ok()) return s;
  if (Status s = r.read_double(b.threshold); !s.is_ok()) return s;
  if (Status s = r.read_bool(b.start_dense); !s.is_ok()) return s;
  if (Status s = r.read_bin(b.idx_bin); !s.is_ok()) return s;
  if (Status s = r.read_bin(b.val_bin); !s.is_ok()) return s;
  if (b.dim > 0xFFFFFFFFull) return bad("gradvector: dim exceeds u32 index space");
  if (!std::isfinite(b.threshold) || b.threshold < 0.0) {
    return bad("gradvector: non-finite densify threshold");
  }
  return Status::ok();
}

/// Sparse form: the index bin holds whole u32s and the value bin one f64 per
/// index. Sets the entry count.
Status sparse_nnz(const GradVectorBody& b, std::size_t& nnz) {
  if (b.idx_bin.size() % sizeof(std::uint32_t) != 0) {
    return bad("gradvector: index bin not a multiple of 4");
  }
  nnz = b.idx_bin.size() / sizeof(std::uint32_t);
  if (b.val_bin.size() != nnz * sizeof(double)) {
    return bad("gradvector: sparse value bin size mismatch");
  }
  return Status::ok();
}

Status decode_grad_vector(MsgReader& r, linalg::GradVector& out) {
  GradVectorBody b;
  if (Status s = read_grad_vector_body(r, b); !s.is_ok()) return s;
  const auto dim = static_cast<std::size_t>(b.dim);
  if (dim == 0) {
    if (b.dense || !b.idx_bin.empty() || !b.val_bin.empty()) {
      return bad("gradvector: entries on a zero-dim vector");
    }
    out = linalg::GradVector();
    return Status::ok();
  }

  if (b.dense) {
    if (!b.idx_bin.empty()) return bad("gradvector: dense form carries indices");
    if (b.val_bin.empty()) {
      // Untouched dense accumulator: representation is dense with no
      // storage, which only a dense-start config can hold.
      if (!b.start_dense) return bad("gradvector: storage-free dense needs start_dense");
      out = linalg::GradVector(linalg::GradVectorConfig(dim, b.threshold, true));
      return Status::ok();
    }
    if (b.val_bin.size() != dim * sizeof(double)) {
      return bad("gradvector: dense value bin size mismatch");
    }
    // A msgpack bin can start at any byte offset of the frame: copy the bytes
    // out rather than reading doubles through a misaligned pointer.
    std::vector<double> values(dim);
    std::memcpy(values.data(), b.val_bin.data(), b.val_bin.size());
    linalg::GradVector g(linalg::GradVectorConfig(dim, b.threshold, b.start_dense));
    g.assign_dense(values);
    out = std::move(g);
    return Status::ok();
  }

  std::size_t nnz = 0;
  if (Status s = sparse_nnz(b, nnz); !s.is_ok()) return s;
  // Re-inserting through set() must never densify: the decoded vector keeps
  // the sparse form the frame carries even when its nnz exceeds
  // threshold*dim, so the working threshold is raised just far enough while
  // a within-threshold vector keeps its original config bit-for-bit.
  const double floor_threshold =
      (static_cast<double>(nnz) + 1.0) / static_cast<double>(dim);
  linalg::GradVectorConfig cfg(dim, std::max(b.threshold, floor_threshold), false);
  cfg.expected_nnz = nnz;
  linalg::GradVector g(cfg);
  std::uint32_t prev = 0;
  for (std::size_t k = 0; k < nnz; ++k) {
    const std::uint32_t idx = read_u32_at(b.idx_bin, k);
    if (idx >= dim) return bad("gradvector: index out of range");
    if (k > 0 && idx <= prev) return bad("gradvector: indices not strictly ascending");
    prev = idx;
    g.set(idx, read_f64_at(b.val_bin, k));
  }
  out = std::move(g);
  return Status::ok();
}

// --- DenseVector -----------------------------------------------------------

void encode_dense_vector(MsgWriter& w, const linalg::DenseVector& v) {
  w.begin_array(2);
  w.write_uint(v.size());
  write_f64_bin(w, v.span());
}

Status decode_dense_vector(MsgReader& r, linalg::DenseVector& out) {
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 2) return bad("densevector: expected 2-element array");
  std::uint64_t size = 0;
  std::span<const std::uint8_t> bin;
  if (Status s = r.read_uint(size); !s.is_ok()) return s;
  if (Status s = r.read_bin(bin); !s.is_ok()) return s;
  if (bin.size() != size * sizeof(double)) {
    return bad("densevector: value bin size mismatch");
  }
  linalg::DenseVector v(static_cast<std::size_t>(size));
  if (size > 0) std::memcpy(v.data(), bin.data(), bin.size());
  out = std::move(v);
  return Status::ok();
}

// --- GradCount / GradHist / ModelDelta ------------------------------------

void encode_grad_count(MsgWriter& w, const optim::GradCount& g) {
  w.begin_array(2);
  encode_grad_vector(w, g.grad);
  w.write_uint(g.count);
}

Status decode_grad_count(MsgReader& r, optim::GradCount& out) {
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 2) return bad("gradcount: expected 2-element array");
  if (Status s = decode_grad_vector(r, out.grad); !s.is_ok()) return s;
  return r.read_uint(out.count);
}

void encode_grad_hist(MsgWriter& w, const optim::GradHist& g) {
  w.begin_array(3);
  encode_grad_vector(w, g.grad);
  encode_grad_vector(w, g.hist);
  w.write_uint(g.count);
}

Status decode_grad_hist(MsgReader& r, optim::GradHist& out) {
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 3) return bad("gradhist: expected 3-element array");
  if (Status s = decode_grad_vector(r, out.grad); !s.is_ok()) return s;
  if (Status s = decode_grad_vector(r, out.hist); !s.is_ok()) return s;
  return r.read_uint(out.count);
}

// A ModelDelta body is a sparse GradVector body byte for byte, its threshold
// slot always the "never densify" 1.01: disk blobs are named by the sha256 of
// these bytes, so they must not drift (tests/transport/wire_test.cpp pins
// them). The flat arrays are already ascending, so both directions copy them
// straight through.
constexpr double kModelDeltaThreshold = 1.01;

void encode_model_delta(MsgWriter& w, const store::ModelDelta& d) {
  w.begin_array(2);
  w.write_uint(d.parent);
  begin_grad_vector(w, d.dim, /*dense=*/false, kModelDeltaThreshold,
                    /*start_dense=*/false);
  write_u32_bin(w, d.indices);
  write_f64_bin(w, d.values);
}

// Accepts exactly the sparse bodies decode_grad_vector accepts.
Status decode_model_delta(MsgReader& r, store::ModelDelta& out) {
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 2) return bad("modeldelta: expected 2-element array");
  std::uint64_t parent = 0;
  if (Status s = r.read_uint(parent); !s.is_ok()) return s;
  GradVectorBody b;
  if (Status s = read_grad_vector_body(r, b); !s.is_ok()) return s;
  if (b.dense) return bad("modeldelta: values must stay sparse");
  std::size_t nnz = 0;
  if (Status s = sparse_nnz(b, nnz); !s.is_ok()) return s;
  store::ModelDelta d;
  d.parent = parent;
  d.dim = static_cast<std::size_t>(b.dim);
  // Bins can sit at any byte offset of the frame: copy, never alias.
  d.indices.resize(nnz);
  d.values.resize(nnz);
  if (nnz > 0) {
    std::memcpy(d.indices.data(), b.idx_bin.data(), b.idx_bin.size());
    std::memcpy(d.values.data(), b.val_bin.data(), b.val_bin.size());
  }
  for (std::size_t k = 0; k < nnz; ++k) {
    if (d.indices[k] >= d.dim) return bad("modeldelta: index out of range");
    if (k > 0 && d.indices[k] <= d.indices[k - 1]) {
      return bad("modeldelta: indices not strictly ascending");
    }
  }
  out = std::move(d);
  return Status::ok();
}

Status expect_end(const MsgReader& r, const char* what) {
  if (!r.at_end()) {
    return bad(std::string(what) + ": trailing bytes after message");
  }
  return Status::ok();
}

}  // namespace

// --- Hello / Error ---------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloMsg& msg) {
  MsgWriter w;
  w.begin_array(2);
  w.write_uint(msg.protocol);
  w.write_int(msg.worker);
  return w.take();
}

Status decode_hello(std::span<const std::uint8_t> body, HelloMsg& out) {
  MsgReader r(body);
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 2) return bad("hello: expected 2-element array");
  std::uint64_t protocol = 0;
  std::int64_t worker = 0;
  if (Status s = r.read_uint(protocol); !s.is_ok()) return s;
  if (Status s = r.read_int(worker); !s.is_ok()) return s;
  if (protocol > 0xFFFFFFFFull) return bad("hello: protocol overflows u32");
  if (worker < -1 || worker > 0x7FFFFFFF) return bad("hello: worker id out of range");
  out.protocol = static_cast<std::uint32_t>(protocol);
  out.worker = static_cast<std::int32_t>(worker);
  return expect_end(r, "hello");
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& msg) {
  MsgWriter w;
  w.begin_array(2);
  w.write_uint(msg.code);
  w.write_str(msg.message);
  return w.take();
}

Status decode_error(std::span<const std::uint8_t> body, ErrorMsg& out) {
  MsgReader r(body);
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 2) return bad("error: expected 2-element array");
  std::uint64_t code = 0;
  if (Status s = r.read_uint(code); !s.is_ok()) return s;
  if (Status s = r.read_str(out.message); !s.is_ok()) return s;
  if (code > 0xFFFFFFFFull) return bad("error: code overflows u32");
  out.code = static_cast<std::uint32_t>(code);
  return expect_end(r, "error");
}

Status error_to_status(const ErrorMsg& msg) {
  const auto code = msg.code <= static_cast<std::uint32_t>(StatusCode::kUnavailable)
                        ? static_cast<StatusCode>(msg.code)
                        : StatusCode::kInternal;
  return Status(code == StatusCode::kOk ? StatusCode::kInternal : code, msg.message);
}

// --- TaskSpec --------------------------------------------------------------

TaskSpecMsg to_wire(const engine::TaskSpec& spec) {
  TaskSpecMsg msg;
  msg.id = spec.id;
  msg.partition = spec.partition;
  msg.seq = spec.seq;
  msg.model_version = spec.model_version;
  msg.service_floor_ms = spec.service_floor_ms;
  msg.rng_seed = spec.rng_seed;
  msg.migration_ms = spec.migration_ms;
  return msg;
}

void apply_wire(const TaskSpecMsg& msg, engine::TaskSpec& spec) {
  spec.id = msg.id;
  spec.partition = msg.partition;
  spec.seq = msg.seq;
  spec.model_version = msg.model_version;
  spec.service_floor_ms = msg.service_floor_ms;
  spec.rng_seed = msg.rng_seed;
  spec.migration_ms = msg.migration_ms;
}

std::vector<std::uint8_t> encode_task_spec(const TaskSpecMsg& msg) {
  MsgWriter w;
  w.begin_array(7);
  w.write_uint(msg.id);
  w.write_int(msg.partition);
  w.write_uint(msg.seq);
  w.write_uint(msg.model_version);
  w.write_double(msg.service_floor_ms);
  w.write_uint(msg.rng_seed);
  w.write_double(msg.migration_ms);
  return w.take();
}

Status decode_task_spec(std::span<const std::uint8_t> body, TaskSpecMsg& out) {
  MsgReader r(body);
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 7) return bad("taskspec: expected 7-element array");
  std::int64_t partition = 0;
  if (Status s = r.read_uint(out.id); !s.is_ok()) return s;
  if (Status s = r.read_int(partition); !s.is_ok()) return s;
  if (Status s = r.read_uint(out.seq); !s.is_ok()) return s;
  if (Status s = r.read_uint(out.model_version); !s.is_ok()) return s;
  if (Status s = r.read_double(out.service_floor_ms); !s.is_ok()) return s;
  if (Status s = r.read_uint(out.rng_seed); !s.is_ok()) return s;
  if (Status s = r.read_double(out.migration_ms); !s.is_ok()) return s;
  if (partition < -1 || partition > 0x7FFFFFFF) {
    return bad("taskspec: partition out of range");
  }
  out.partition = static_cast<std::int32_t>(partition);
  return expect_end(r, "taskspec");
}

// --- Payload codecs --------------------------------------------------------

EncodedPayload encode_payload(const engine::Payload& payload) {
  EncodedPayload out;
  out.modeled_bytes = payload.bytes();
  if (!payload.has_value()) {
    out.kind = PayloadKind::kNone;
    return out;
  }
  MsgWriter w;
  if (payload.holds<optim::GradCount>()) {
    out.kind = PayloadKind::kGradCount;
    encode_grad_count(w, payload.get<optim::GradCount>());
  } else if (payload.holds<optim::GradHist>()) {
    out.kind = PayloadKind::kGradHist;
    encode_grad_hist(w, payload.get<optim::GradHist>());
  } else if (payload.holds<linalg::DenseVector>()) {
    out.kind = PayloadKind::kDenseVector;
    encode_dense_vector(w, payload.get<linalg::DenseVector>());
  } else if (payload.holds<store::ModelDelta>()) {
    out.kind = PayloadKind::kModelDelta;
    encode_model_delta(w, payload.get<store::ModelDelta>());
  } else {
    out.kind = PayloadKind::kOpaque;
    return out;
  }
  out.body = w.take();
  return out;
}

StatusOr<engine::Payload> decode_payload(PayloadKind kind,
                                         std::span<const std::uint8_t> body,
                                         std::uint64_t modeled_bytes,
                                         const engine::Payload* opaque_source) {
  const auto bytes = static_cast<std::size_t>(modeled_bytes);
  switch (kind) {
    case PayloadKind::kNone:
      if (!body.empty()) return bad("payload: kNone with nonempty body");
      return engine::Payload();
    case PayloadKind::kOpaque: {
      if (!body.empty()) return bad("payload: kOpaque with nonempty body");
      if (opaque_source == nullptr || !opaque_source->has_value()) {
        return bad("payload: opaque kind without a local source object");
      }
      return *opaque_source;
    }
    case PayloadKind::kGradCount: {
      MsgReader r(body);
      optim::GradCount value;
      if (Status s = decode_grad_count(r, value); !s.is_ok()) return s;
      if (Status s = expect_end(r, "gradcount"); !s.is_ok()) return s;
      return engine::Payload::wrap(std::move(value), bytes);
    }
    case PayloadKind::kGradHist: {
      MsgReader r(body);
      optim::GradHist value;
      if (Status s = decode_grad_hist(r, value); !s.is_ok()) return s;
      if (Status s = expect_end(r, "gradhist"); !s.is_ok()) return s;
      return engine::Payload::wrap(std::move(value), bytes);
    }
    case PayloadKind::kDenseVector: {
      MsgReader r(body);
      linalg::DenseVector value;
      if (Status s = decode_dense_vector(r, value); !s.is_ok()) return s;
      if (Status s = expect_end(r, "densevector"); !s.is_ok()) return s;
      return engine::Payload::wrap(std::move(value), bytes);
    }
    case PayloadKind::kModelDelta: {
      MsgReader r(body);
      store::ModelDelta value;
      if (Status s = decode_model_delta(r, value); !s.is_ok()) return s;
      if (Status s = expect_end(r, "modeldelta"); !s.is_ok()) return s;
      return engine::Payload::wrap(std::move(value), bytes);
    }
  }
  return bad("payload: unknown kind " + std::to_string(static_cast<int>(kind)));
}

// --- Payload envelope ------------------------------------------------------

std::vector<std::uint8_t> encode_payload_envelope(const engine::Payload& payload) {
  EncodedPayload encoded = encode_payload(payload);
  MsgWriter w;
  w.begin_array(3);
  w.write_uint(static_cast<std::uint64_t>(encoded.kind));
  w.write_uint(encoded.modeled_bytes);
  w.write_bin(encoded.body);
  return w.take();
}

namespace {

Status parse_envelope(std::span<const std::uint8_t> body, PayloadKind& kind,
                      std::uint64_t& modeled_bytes,
                      std::span<const std::uint8_t>& payload_body) {
  MsgReader r(body);
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 3) return bad("envelope: expected 3-element array");
  std::uint64_t kind_raw = 0;
  if (Status s = r.read_uint(kind_raw); !s.is_ok()) return s;
  if (Status s = r.read_uint(modeled_bytes); !s.is_ok()) return s;
  if (Status s = r.read_bin(payload_body); !s.is_ok()) return s;
  if (kind_raw > static_cast<std::uint64_t>(PayloadKind::kModelDelta)) {
    return bad("envelope: unknown payload kind " + std::to_string(kind_raw));
  }
  kind = static_cast<PayloadKind>(kind_raw);
  return expect_end(r, "envelope");
}

}  // namespace

StatusOr<engine::Payload> decode_payload_envelope(std::span<const std::uint8_t> body,
                                                  const engine::Payload* opaque_source) {
  PayloadKind kind = PayloadKind::kNone;
  std::uint64_t modeled_bytes = 0;
  std::span<const std::uint8_t> payload_body;
  if (Status s = parse_envelope(body, kind, modeled_bytes, payload_body); !s.is_ok()) {
    return s;
  }
  return decode_payload(kind, payload_body, modeled_bytes, opaque_source);
}

FrameKind envelope_frame_kind(const engine::Payload& payload) {
  if (payload.holds<store::ModelDelta>()) return FrameKind::kModelDelta;
  if (payload.holds<linalg::DenseVector>()) return FrameKind::kModelBase;
  return FrameKind::kOpaque;
}

// --- TaskResult ------------------------------------------------------------

TaskResultMsg to_wire(const engine::TaskResult& result) {
  TaskResultMsg msg;
  msg.id = result.id;
  msg.worker = result.worker;
  msg.partition = result.partition;
  msg.seq = result.seq;
  msg.model_version = result.model_version;
  msg.status_code = static_cast<std::uint32_t>(result.status.code());
  msg.status_message = result.status.message();
  msg.compute_ms = result.compute_ms;
  msg.service_ms = result.service_ms;
  EncodedPayload encoded = encode_payload(result.payload);
  msg.payload_kind = encoded.kind;
  msg.payload_modeled_bytes = encoded.modeled_bytes;
  msg.payload_body = std::move(encoded.body);
  return msg;
}

StatusOr<engine::TaskResult> from_wire(const TaskResultMsg& msg,
                                       const engine::Payload* opaque_source) {
  if (msg.status_code > static_cast<std::uint32_t>(StatusCode::kUnavailable)) {
    return bad("taskresult: unknown status code " + std::to_string(msg.status_code));
  }
  engine::TaskResult result;
  result.id = msg.id;
  result.worker = msg.worker;
  result.partition = msg.partition;
  result.seq = msg.seq;
  result.model_version = msg.model_version;
  result.status = Status(static_cast<StatusCode>(msg.status_code), msg.status_message);
  result.compute_ms = msg.compute_ms;
  result.service_ms = msg.service_ms;
  auto payload = decode_payload(msg.payload_kind, msg.payload_body,
                                msg.payload_modeled_bytes, opaque_source);
  if (!payload.is_ok()) return payload.status();
  result.payload = std::move(payload).value();
  return result;
}

std::vector<std::uint8_t> encode_task_result(const TaskResultMsg& msg) {
  MsgWriter w;
  w.begin_array(12);
  w.write_uint(msg.id);
  w.write_int(msg.worker);
  w.write_int(msg.partition);
  w.write_uint(msg.seq);
  w.write_uint(msg.model_version);
  w.write_uint(msg.status_code);
  w.write_str(msg.status_message);
  w.write_double(msg.compute_ms);
  w.write_double(msg.service_ms);
  w.write_uint(static_cast<std::uint64_t>(msg.payload_kind));
  w.write_uint(msg.payload_modeled_bytes);
  w.write_bin(msg.payload_body);
  return w.take();
}

Status decode_task_result(std::span<const std::uint8_t> body, TaskResultMsg& out) {
  MsgReader r(body);
  std::size_t arity = 0;
  if (Status s = r.read_array(arity); !s.is_ok()) return s;
  if (arity != 12) return bad("taskresult: expected 12-element array");
  std::int64_t worker = 0;
  std::int64_t partition = 0;
  std::uint64_t status_code = 0;
  std::uint64_t payload_kind = 0;
  std::span<const std::uint8_t> payload_bin;
  if (Status s = r.read_uint(out.id); !s.is_ok()) return s;
  if (Status s = r.read_int(worker); !s.is_ok()) return s;
  if (Status s = r.read_int(partition); !s.is_ok()) return s;
  if (Status s = r.read_uint(out.seq); !s.is_ok()) return s;
  if (Status s = r.read_uint(out.model_version); !s.is_ok()) return s;
  if (Status s = r.read_uint(status_code); !s.is_ok()) return s;
  if (Status s = r.read_str(out.status_message); !s.is_ok()) return s;
  if (Status s = r.read_double(out.compute_ms); !s.is_ok()) return s;
  if (Status s = r.read_double(out.service_ms); !s.is_ok()) return s;
  if (Status s = r.read_uint(payload_kind); !s.is_ok()) return s;
  if (Status s = r.read_uint(out.payload_modeled_bytes); !s.is_ok()) return s;
  if (Status s = r.read_bin(payload_bin); !s.is_ok()) return s;
  if (worker < -1 || worker > 0x7FFFFFFF) return bad("taskresult: worker out of range");
  if (partition < -1 || partition > 0x7FFFFFFF) {
    return bad("taskresult: partition out of range");
  }
  if (status_code > static_cast<std::uint64_t>(StatusCode::kUnavailable)) {
    return bad("taskresult: unknown status code");
  }
  if (payload_kind > static_cast<std::uint64_t>(PayloadKind::kModelDelta)) {
    return bad("taskresult: unknown payload kind");
  }
  out.worker = static_cast<std::int32_t>(worker);
  out.partition = static_cast<std::int32_t>(partition);
  out.status_code = static_cast<std::uint32_t>(status_code);
  out.payload_kind = static_cast<PayloadKind>(payload_kind);
  out.payload_body.assign(payload_bin.begin(), payload_bin.end());
  return expect_end(r, "taskresult");
}

// --- Endpoint relay --------------------------------------------------------

namespace {

/// Decodes a payload body and re-encodes it canonically, without a local
/// object: the endpoint relay's codec-oracle step. kNone/kOpaque bodies echo
/// as empty.
StatusOr<std::vector<std::uint8_t>> reencode_payload_body(
    PayloadKind kind, std::span<const std::uint8_t> body) {
  if (kind == PayloadKind::kNone || kind == PayloadKind::kOpaque) {
    if (!body.empty()) return bad("payload: metadata-only kind with body");
    return std::vector<std::uint8_t>{};
  }
  auto payload = decode_payload(kind, body, /*modeled_bytes=*/0, /*opaque_source=*/nullptr);
  if (!payload.is_ok()) return payload.status();
  return encode_payload(payload.value()).body;
}

}  // namespace

StatusOr<std::vector<std::uint8_t>> reencode_message(FrameKind frame_kind,
                                                     std::span<const std::uint8_t> body) {
  switch (frame_kind) {
    case FrameKind::kHello: {
      HelloMsg msg;
      if (Status s = decode_hello(body, msg); !s.is_ok()) return s;
      if (msg.protocol != kProtocolVersion) {
        return Status(StatusCode::kFailedPrecondition,
                      "protocol version mismatch: got " + std::to_string(msg.protocol) +
                          ", want " + std::to_string(kProtocolVersion));
      }
      return encode_hello(msg);
    }
    case FrameKind::kTaskSpec: {
      TaskSpecMsg msg;
      if (Status s = decode_task_spec(body, msg); !s.is_ok()) return s;
      return encode_task_spec(msg);
    }
    case FrameKind::kTaskResult: {
      TaskResultMsg msg;
      if (Status s = decode_task_result(body, msg); !s.is_ok()) return s;
      auto payload = reencode_payload_body(msg.payload_kind, msg.payload_body);
      if (!payload.is_ok()) return payload.status();
      msg.payload_body = std::move(payload).value();
      return encode_task_result(msg);
    }
    case FrameKind::kModelBase:
    case FrameKind::kModelDelta:
    case FrameKind::kOpaque: {
      PayloadKind kind = PayloadKind::kNone;
      std::uint64_t modeled_bytes = 0;
      std::span<const std::uint8_t> payload_body;
      if (Status s = parse_envelope(body, kind, modeled_bytes, payload_body);
          !s.is_ok()) {
        return s;
      }
      auto reencoded = reencode_payload_body(kind, payload_body);
      if (!reencoded.is_ok()) return reencoded.status();
      MsgWriter w;
      w.begin_array(3);
      w.write_uint(static_cast<std::uint64_t>(kind));
      w.write_uint(modeled_bytes);
      w.write_bin(reencoded.value());
      return w.take();
    }
    case FrameKind::kShutdown:
      if (!body.empty()) return bad("shutdown: expected empty body");
      return std::vector<std::uint8_t>{};
    case FrameKind::kError: {
      ErrorMsg msg;
      if (Status s = decode_error(body, msg); !s.is_ok()) return s;
      return encode_error(msg);
    }
  }
  return bad("unknown frame kind");
}

}  // namespace asyncml::transport
