#include "linalg/grad_vector.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace asyncml::linalg {

double expected_union_density(double density, double batch_rows) {
  const double d = std::clamp(density, 0.0, 1.0);
  if (d >= 1.0 || batch_rows <= 0.0) return d;
  return 1.0 - std::pow(1.0 - d, batch_rows);
}

GradVectorConfig resolve_grad_config(GradMode mode, std::size_t dim, double density,
                                     double densify_threshold) {
  GradVectorConfig cfg(dim, densify_threshold, /*dense_start=*/false);
  // Table pre-size hint: the expected batch-union support in coordinates.
  cfg.expected_nnz = static_cast<std::size_t>(
      std::clamp(density, 0.0, 1.0) * static_cast<double>(dim));
  switch (mode) {
    case GradMode::kDense:
      cfg.start_dense = true;
      break;
    case GradMode::kSparse:
      cfg.start_dense = false;
      break;
    case GradMode::kAuto:
      cfg.start_dense = density >= densify_threshold;
      break;
  }
  return cfg;
}

double* GradVector::touch_dense() {
  if (dense_.empty()) dense_.assign(cfg_.dim, 0.0);
  return dense_.data();
}

void GradVector::init_table() {
  // Pre-size to keep the expected batch-union support at <=1/2 load: one
  // allocation instead of a grow-rehash chain from 32 slots (rehashing was
  // 2-3x the probe cost at mid densities). The 5/8 growth rule still
  // applies if the estimate is exceeded.
  // An accumulator densifies past densify_threshold*dim entries, so never
  // pre-size beyond what the sparse phase can actually hold.
  const auto max_sparse_nnz = static_cast<std::size_t>(
      cfg_.densify_threshold * static_cast<double>(cfg_.dim)) + 1;
  const std::size_t target = std::min(cfg_.expected_nnz, max_sparse_nnz);
  std::size_t capacity = kInitialSlots;
  while (capacity < target * 2) capacity *= 2;
  keys_.assign(capacity, kEmptyKey);
  // vals_ slots are zeroed by upsert_slot on insertion, so no value fill is
  // needed — only the key array decides occupancy.
  vals_.resize(capacity);
  mask_ = capacity - 1;
}

void GradVector::grow() {
  std::vector<std::uint32_t> old_keys = std::move(keys_);
  std::vector<double> old_vals = std::move(vals_);
  const std::size_t capacity = old_keys.size() * 2;
  keys_.assign(capacity, kEmptyKey);
  vals_.resize(capacity);  // values are written on (re-)insertion below
  mask_ = capacity - 1;
  for (std::size_t s = 0; s < old_keys.size(); ++s) {
    if (old_keys[s] == kEmptyKey) continue;
    std::size_t slot = hash(old_keys[s]) & mask_;
    while (keys_[slot] != kEmptyKey) slot = (slot + 1) & mask_;
    keys_[slot] = old_keys[s];
    vals_[slot] = old_vals[s];
  }
}

void GradVector::densify() {
  double* d = touch_dense();
  for (std::size_t s = 0; s < keys_.size(); ++s) {
    if (keys_[s] != kEmptyKey) d[keys_[s]] += vals_[s];
  }
  keys_.clear();
  vals_.clear();
  nnz_ = 0;
  mask_ = 0;
  dense_mode_ = true;
}

void GradVector::axpy(double a, std::span<const double> x) {
  assert(configured() && x.size() == cfg_.dim);
  if (!dense_mode_) densify();
  linalg::axpy(a, x, {touch_dense(), cfg_.dim});
}

void GradVector::assign_dense(std::span<const double> v) {
  assert(configured() && v.size() == cfg_.dim);
  dense_.assign(v.begin(), v.end());
  keys_.clear();
  vals_.clear();
  nnz_ = 0;
  mask_ = 0;
  dense_mode_ = true;
}

void GradVector::add(const GradVector& other) {
  if (!other.configured()) return;
  if (!configured()) {
    *this = other;
    return;
  }
  assert(cfg_.dim == other.cfg_.dim && "GradVector::add: dimension mismatch");
  if (other.dense_mode_) {
    if (other.dense_.empty()) return;  // dense zero contributes nothing
    if (!dense_mode_) densify();
    linalg::axpy(1.0, {other.dense_.data(), other.dense_.size()},
                 {touch_dense(), cfg_.dim});
    return;
  }
  if (dense_mode_) {
    if (other.nnz_ == 0) return;
    double* d = touch_dense();
    other.for_each([&](std::uint32_t k, double v) { d[k] += v; });
    return;
  }
  if (other.nnz_ == 0) return;
  if (keys_.empty()) init_table();
  other.for_each([&](std::uint32_t k, double v) { sparse_add(k, v); });
  maybe_densify();
}

void GradVector::set(std::uint32_t index, double value) {
  assert(configured() && index < cfg_.dim && "GradVector::set before ensure()");
  if (dense_mode_) {
    touch_dense()[index] = value;
    return;
  }
  if (keys_.empty()) init_table();
  vals_[upsert_slot(index)] = value;
  maybe_densify();
}

void GradVector::scale_into(double a, std::span<double> y) const {
  assert(y.size() == cfg_.dim);
  if (dense_mode_) {
    if (!dense_.empty()) linalg::axpy(a, {dense_.data(), dense_.size()}, y);
    return;
  }
  for (std::size_t s = 0; s < keys_.size(); ++s) {
    if (keys_[s] != kEmptyKey) y[keys_[s]] += a * vals_[s];
  }
}

DenseVector GradVector::to_dense() const {
  DenseVector out(cfg_.dim);
  scale_into(1.0, out.span());
  return out;
}

double GradVector::value_at(std::size_t i) const {
  assert(i < cfg_.dim);
  if (dense_mode_) return dense_.empty() ? 0.0 : dense_[i];
  if (keys_.empty()) return 0.0;
  const auto key = static_cast<std::uint32_t>(i);
  std::size_t slot = hash(key) & mask_;
  while (keys_[slot] != kEmptyKey) {
    if (keys_[slot] == key) return vals_[slot];
    slot = (slot + 1) & mask_;
  }
  return 0.0;
}

void GradVector::set_zero() {
  if (!dense_.empty()) std::fill(dense_.begin(), dense_.end(), 0.0);
  if (!keys_.empty()) std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  nnz_ = 0;
  dense_mode_ = cfg_.start_dense;
}

}  // namespace asyncml::linalg
