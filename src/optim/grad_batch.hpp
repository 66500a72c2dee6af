#pragma once

// Fused batch gradient task bodies: every gradient-shipping solver's tasks
// run these. Their test oracle is the per-row seq-op pipeline in
// tests/reference/per_row.hpp (a virtual Loss call per row streaming
// through the RDD sink chain).
//
// One task = one partition slice. The fused body runs three passes:
//   1. margins:  gemv over the dense row block / row-slice spmv over CSR
//      (linalg/batch.hpp) — all mini-batch margins in one pass;
//   2. coeffs:   derivative_batch, loss-kind-dispatched (no virtual call
//      per row);
//   3. gradient: transposed accumulate X_Bᵀ·coeffs, scattering into the
//      GradVector (sparse mode) or a scratch dense accumulator.
// Scratch (row ids, margins, labels, coeffs, dense accumulators) comes from
// the executor thread's support::ScratchArena and is reused across tasks.
//
// Bit-compatibility contract with the per-row reference, relied on by the
// task-level property sweep and the 1-worker SGD trajectory bit-match:
//   * mini-batch selection replays engine::sample_partition_rows (same RNG
//     draws in the same order as Rdd::sample);
//   * margins and coefficients use the identical scalar arithmetic
//     (linalg::dot's reduction order, loss_kernels::*);
//   * gradients accumulate per coordinate in row order (linalg/batch.hpp's
//     reassociation-free blocking), so every GradVector — including its
//     representation trajectory (densify points) — matches the per-row
//     path bit for bit.

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/history.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "engine/rdd.hpp"
#include "engine/task.hpp"
#include "linalg/batch.hpp"
#include "optim/loss.hpp"
#include "optim/payloads.hpp"
#include "support/scratch_arena.hpp"
#include "telemetry/telemetry.hpp"

namespace asyncml::optim::detail {

/// Holds a model a task body reads, for as long as it reads: the counted
/// handle core::HistoryBroadcast returns (a worker cache advances a model in
/// place once no handle holds it), or a pointer to what an
/// engine::Broadcast-backed handle returns, whose payload outlives the task.
inline const linalg::DenseVector* hold(const linalg::DenseVector& model) {
  return &model;
}
inline std::shared_ptr<const linalg::DenseVector> hold(
    std::shared_ptr<const linalg::DenseVector> model) {
  return model;
}

/// Selects this task's mini-batch rows (local offsets into `range`).
/// `fraction` engaged = Bernoulli sample via the task RNG (the draw sequence
/// of Rdd::sample); nullopt = the whole partition with no RNG draws (the
/// epoch-head full pass over workload.points).
inline support::ScratchArena::Lease<std::uint32_t> select_batch_rows(
    const data::RowRange& range, std::optional<double> fraction,
    engine::TaskContext& ctx, support::ScratchArena& arena) {
  const std::size_t n = range.size();
  auto rows = arena.indices(
      fraction.has_value()
          ? static_cast<std::size_t>(static_cast<double>(n) * *fraction * 1.5) + 8
          : n);
  if (fraction.has_value()) {
    engine::sample_partition_rows(n, *fraction, ctx.rng, rows.vec());
  } else {
    for (std::size_t local = 0; local < n; ++local) {
      rows.vec().push_back(static_cast<std::uint32_t>(local));
    }
  }
  return rows;
}

/// margins[i] = <row(rows[i]), w> for one partition slice of the dataset.
inline void batch_margins(const data::Dataset& dataset, const data::RowRange& range,
                          std::span<const std::uint32_t> rows,
                          std::span<const double> w, std::span<double> margins) {
  if (dataset.is_dense()) {
    linalg::gemv_rows(dataset.dense_features().block(range.begin, range.end), rows,
                      w, margins);
  } else {
    linalg::spmv_rows(dataset.sparse_features().slice(range.begin, range.end), rows,
                      w, margins);
  }
}

/// Writes the batch gradient into `g`: sparse mode scatters *into* g's
/// table (preserving the per-row axpy sequence, and thus any mid-batch
/// densify, exactly); dense mode accumulates into a reused scratch buffer
/// and then REPLACES g's dense value via assign_dense (the serialize copy).
/// `g` must therefore be freshly constructed/empty — this is a
/// produce-the-result primitive, not a `+=`.
inline void batch_accumulate(const data::Dataset& dataset, const data::RowRange& range,
                             std::span<const std::uint32_t> rows,
                             std::span<const double> coeffs, linalg::GradVector& g,
                             support::ScratchArena& arena) {
  if (rows.empty()) return;
  const bool dense_mode = g.is_dense() || dataset.is_dense();
  if (dense_mode) {
    auto acc = arena.zeroed_doubles(dataset.cols());
    if (dataset.is_dense()) {
      linalg::accumulate_rows(dataset.dense_features().block(range.begin, range.end),
                              rows, coeffs, acc.span());
    } else {
      linalg::accumulate_rows(dataset.sparse_features().slice(range.begin, range.end),
                              rows, coeffs, acc.span());
    }
    g.assign_dense(acc.span());
    return;
  }
  linalg::accumulate_rows(dataset.sparse_features().slice(range.begin, range.end),
                          rows, coeffs, g);
}

/// Panel row budget: margins + accumulate stream the selected rows twice, so
/// the task body processes them in panels small enough (32 KB — near-L1) for
/// the accumulate pass to re-read hot lines instead of refetching the whole
/// slice.  Measured flat between 32 KB and 256 KB panels on the bench hosts;
/// the small size is kept so the second pass stays close to L1.  Panels are
/// contiguous subsequences of the selected rows, so every per-row and
/// per-coordinate order is unchanged.
[[nodiscard]] inline std::size_t panel_rows(std::size_t cols) {
  constexpr std::size_t kPanelBytes = 32 * 1024;
  const std::size_t rows = kPanelBytes / (sizeof(double) * std::max<std::size_t>(1, cols));
  return std::max<std::size_t>(4, rows);
}

/// One fused gradient sum: margins → batch derivative → transposed
/// accumulate, panel by panel, into `g` (+ labels gathered per panel).
/// The shared stage of the SGD / SVRG / SAGA-fresh task bodies.
inline void fused_grad_sum(const data::Dataset& dataset, const data::RowRange& range,
                           std::span<const std::uint32_t> rows, const Loss& loss,
                           std::span<const double> w, linalg::GradVector& g,
                           support::ScratchArena& arena) {
  if (rows.empty()) return;
  const bool dense_mode = g.is_dense() || dataset.is_dense();
  // Panels exist for dense-row L1 reuse; CSR rows touch ~nnz*12 bytes, so a
  // cols-based budget would collapse to the floor and pay a stage dispatch
  // every few rows for nothing — sparse batches run as one panel.
  const std::size_t panel =
      dataset.is_dense() ? panel_rows(dataset.cols()) : rows.size();
  const linalg::DenseVector& all_labels = dataset.labels();

  auto margins = arena.doubles(std::min(panel, rows.size()));
  auto labels = arena.doubles(std::min(panel, rows.size()));
  auto coeffs = arena.doubles(std::min(panel, rows.size()));

  const auto run_panels = [&](auto&& accumulate) {
    for (std::size_t i0 = 0; i0 < rows.size(); i0 += panel) {
      const std::size_t len = std::min(panel, rows.size() - i0);
      const auto sub = rows.subspan(i0, len);
      batch_margins(dataset, range, sub, w, margins.span().subspan(0, len));
      for (std::size_t i = 0; i < len; ++i) {
        labels.span()[i] = all_labels[range.begin + sub[i]];
      }
      derivative_batch(loss, margins.span().subspan(0, len),
                       labels.span().subspan(0, len), coeffs.span().subspan(0, len));
      accumulate(sub, coeffs.span().subspan(0, len));
    }
  };

  if (dense_mode) {
    auto acc = arena.zeroed_doubles(dataset.cols());
    if (dataset.is_dense()) {
      const linalg::DenseRowBlock block =
          dataset.dense_features().block(range.begin, range.end);
      run_panels([&](std::span<const std::uint32_t> sub, std::span<const double> c) {
        linalg::accumulate_rows(block, sub, c, acc.span());
      });
    } else {
      const linalg::CsrRowSlice slice =
          dataset.sparse_features().slice(range.begin, range.end);
      run_panels([&](std::span<const std::uint32_t> sub, std::span<const double> c) {
        linalg::accumulate_rows(slice, sub, c, acc.span());
      });
    }
    g.assign_dense(acc.span());
    return;
  }
  const linalg::CsrRowSlice slice =
      dataset.sparse_features().slice(range.begin, range.end);
  run_panels([&](std::span<const std::uint32_t> sub, std::span<const double> c) {
    linalg::accumulate_rows(slice, sub, c, g);
  });
}

/// Fused gradient-sum task (Algorithms 1–2): the batch replacement for
/// make_aggregate_fn(points.sample(f), GradCount{}, <per-row gradient op>).
/// `Handle` is engine::Broadcast<DenseVector> or core::HistoryBroadcast.
template <typename Handle>
[[nodiscard]] std::shared_ptr<const engine::TaskFn> make_grad_batch_fn(
    data::DatasetPtr dataset, std::vector<data::RowRange> partitions,
    std::shared_ptr<const Loss> loss, Handle w_br, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction) {
  return std::make_shared<const engine::TaskFn>(
      [dataset = std::move(dataset), partitions = std::move(partitions),
       loss = std::move(loss), w_br, grad_cfg, fraction](
          engine::TaskContext& ctx) -> support::StatusOr<engine::Payload> {
        const data::RowRange range =
            partitions.at(static_cast<std::size_t>(ctx.partition));
        support::ScratchArena& arena = support::ScratchArena::local();
        auto rows = select_batch_rows(range, fraction, ctx, arena);

        GradCount out{linalg::GradVector(grad_cfg)};
        out.count = rows.vec().size();
        if (out.count > 0) {
          const auto w = hold(w_br.value());
          fused_grad_sum(*dataset, range, rows.span(), *loss, w->span(), out.grad,
                         arena);
        }
        telemetry::ScopedStageTimer serialize_timer(
            telemetry::Stage::kSerialize);
        const std::size_t bytes = payload_size_bytes(out);
        return engine::Payload::wrap<GradCount>(std::move(out), bytes);
      });
}

/// Fused SAGA task (Algorithm 4): fresh gradient at the pinned model plus a
/// second historical-margin pass, each sample's history recomputed at the
/// model version the SampleVersionTable remembers (resolved through
/// `hist_model`, memoized per distinct version), and the table advanced to
/// `set_version`.  `HistModel` maps engine::Version to what `hold` takes.
template <typename Handle, typename HistModel>
[[nodiscard]] std::shared_ptr<const engine::TaskFn> make_saga_batch_fn(
    data::DatasetPtr dataset, std::vector<data::RowRange> partitions,
    std::shared_ptr<const Loss> loss, Handle w_br,
    std::shared_ptr<core::SampleVersionTable> table,
    linalg::GradVectorConfig grad_cfg, std::optional<double> fraction,
    HistModel hist_model, engine::Version set_version) {
  return std::make_shared<const engine::TaskFn>(
      [dataset = std::move(dataset), partitions = std::move(partitions),
       loss = std::move(loss), w_br, table = std::move(table), grad_cfg, fraction,
       hist_model = std::move(hist_model), set_version](
          engine::TaskContext& ctx) -> support::StatusOr<engine::Payload> {
        const data::RowRange range =
            partitions.at(static_cast<std::size_t>(ctx.partition));
        support::ScratchArena& arena = support::ScratchArena::local();
        auto rows = select_batch_rows(range, fraction, ctx, arena);

        GradHist out{linalg::GradVector(grad_cfg), linalg::GradVector(grad_cfg)};
        out.count = rows.vec().size();
        if (out.count > 0) {
          const std::size_t b = rows.vec().size();
          const linalg::DenseVector& all_labels = dataset->labels();

          // Fresh pass at the pinned model.
          const auto w = hold(w_br.value());
          fused_grad_sum(*dataset, range, rows.span(), *loss, w->span(), out.grad,
                         arena);

          auto margins = arena.doubles(b);
          auto labels = arena.doubles(b);
          auto coeffs = arena.doubles(b);
          // Historical pass: each visited sample's margin against the model
          // it last saw. Versions arrive in long runs (most of a batch was
          // last seen at the same version), so margins are computed with the
          // batch kernels per maximal same-version run — values are
          // per-row dots either way, so run boundaries never change bits.
          // The resolved model is held, memoized per distinct version, until
          // the task ends.
          auto hist_rows = arena.indices(b);
          std::vector<std::pair<engine::Version, decltype(hold(hist_model(0)))>> cache;
          const auto resolve = [&](engine::Version v) -> const linalg::DenseVector& {
            for (const auto& [version, model] : cache) {
              if (version == v) return *model;
            }
            return *cache.emplace_back(v, hold(hist_model(v))).second;
          };
          std::size_t h = 0;
          std::size_t run_start = 0;
          engine::Version run_version = 0;
          const auto flush_run = [&] {
            if (h == run_start) return;
            const linalg::DenseVector& w_old = resolve(run_version);
            batch_margins(*dataset, range,
                          hist_rows.span().subspan(run_start, h - run_start),
                          w_old.span(),
                          margins.span().subspan(run_start, h - run_start));
            run_start = h;
          };
          for (std::size_t i = 0; i < b; ++i) {
            const std::uint32_t local = rows.span()[i];
            const engine::Version last = table->get(range.begin + local);
            if (last == core::kNeverVisited) continue;
            if (h > run_start && last != run_version) flush_run();
            run_version = last;
            hist_rows.vec().push_back(local);
            labels.span()[h] = all_labels[range.begin + local];
            ++h;
          }
          flush_run();
          if (h > 0) {
            derivative_batch(*loss, margins.span().subspan(0, h),
                             labels.span().subspan(0, h),
                             coeffs.span().subspan(0, h));
            batch_accumulate(*dataset, range, hist_rows.span(),
                             coeffs.span().subspan(0, h), out.hist, arena);
          }
          for (std::size_t i = 0; i < b; ++i) {
            table->set(range.begin + rows.span()[i], set_version);
          }
        }
        telemetry::ScopedStageTimer serialize_timer(
            telemetry::Stage::kSerialize);
        const std::size_t bytes = payload_size_bytes(out);
        return engine::Payload::wrap<GradHist>(std::move(out), bytes);
      });
}

/// Two gradient sums over the same mini-batch against two fixed models in
/// ONE panel sweep (the SVRG inner shape: fresh + snapshot).  Halves the
/// row traffic of two independent fused_grad_sum calls; each accumulator
/// still sees its own per-coordinate additions in row order, so both
/// results are bit-identical to independent passes.
inline void fused_grad_sum_pair(const data::Dataset& dataset,
                                const data::RowRange& range,
                                std::span<const std::uint32_t> rows, const Loss& loss,
                                std::span<const double> w_a,
                                std::span<const double> w_b, linalg::GradVector& g_a,
                                linalg::GradVector& g_b,
                                support::ScratchArena& arena) {
  if (rows.empty()) return;
  const bool dense_mode =
      g_a.is_dense() || g_b.is_dense() || dataset.is_dense();
  if (!dense_mode) {
    // Sparse-table accumulation: panel fusion buys nothing (rows are tiny);
    // run the two passes independently.
    fused_grad_sum(dataset, range, rows, loss, w_a, g_a, arena);
    fused_grad_sum(dataset, range, rows, loss, w_b, g_b, arena);
    return;
  }
  const std::size_t panel =
      dataset.is_dense() ? panel_rows(dataset.cols()) : rows.size();
  const std::size_t cap = std::min(panel, rows.size());
  const linalg::DenseVector& all_labels = dataset.labels();
  auto margins = arena.doubles(cap);
  auto labels = arena.doubles(cap);
  auto coeffs_a = arena.doubles(cap);
  auto coeffs_b = arena.doubles(cap);
  auto acc_a = arena.zeroed_doubles(dataset.cols());
  auto acc_b = arena.zeroed_doubles(dataset.cols());

  const auto sweep = [&](auto&& accumulate) {
    for (std::size_t i0 = 0; i0 < rows.size(); i0 += panel) {
      const std::size_t len = std::min(panel, rows.size() - i0);
      const auto sub = rows.subspan(i0, len);
      for (std::size_t i = 0; i < len; ++i) {
        labels.span()[i] = all_labels[range.begin + sub[i]];
      }
      batch_margins(dataset, range, sub, w_a, margins.span().subspan(0, len));
      derivative_batch(loss, margins.span().subspan(0, len),
                       labels.span().subspan(0, len),
                       coeffs_a.span().subspan(0, len));
      batch_margins(dataset, range, sub, w_b, margins.span().subspan(0, len));
      derivative_batch(loss, margins.span().subspan(0, len),
                       labels.span().subspan(0, len),
                       coeffs_b.span().subspan(0, len));
      accumulate(sub, coeffs_a.span().subspan(0, len),
                 coeffs_b.span().subspan(0, len));
    }
  };
  if (dataset.is_dense()) {
    const linalg::DenseRowBlock block =
        dataset.dense_features().block(range.begin, range.end);
    sweep([&](std::span<const std::uint32_t> sub, std::span<const double> ca,
              std::span<const double> cb) {
      linalg::accumulate_rows(block, sub, ca, acc_a.span());
      linalg::accumulate_rows(block, sub, cb, acc_b.span());
    });
  } else {
    const linalg::CsrRowSlice slice =
        dataset.sparse_features().slice(range.begin, range.end);
    sweep([&](std::span<const std::uint32_t> sub, std::span<const double> ca,
              std::span<const double> cb) {
      linalg::accumulate_rows(slice, sub, ca, acc_a.span());
      linalg::accumulate_rows(slice, sub, cb, acc_b.span());
    });
  }
  g_a.assign_dense(acc_a.span());
  g_b.assign_dense(acc_b.span());
}

/// Fused SVRG inner task (epoch VR): fresh gradient at the dispatched model
/// and snapshot gradient at the epoch's w̃ — two fixed models, so both
/// margin passes are full batch kernels.
[[nodiscard]] inline std::shared_ptr<const engine::TaskFn> make_svrg_batch_fn(
    data::DatasetPtr dataset, std::vector<data::RowRange> partitions,
    std::shared_ptr<const Loss> loss, core::HistoryBroadcast w_br,
    core::HistoryBroadcast snapshot_br, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction) {
  return std::make_shared<const engine::TaskFn>(
      [dataset = std::move(dataset), partitions = std::move(partitions),
       loss = std::move(loss), w_br, snapshot_br, grad_cfg, fraction](
          engine::TaskContext& ctx) -> support::StatusOr<engine::Payload> {
        const data::RowRange range =
            partitions.at(static_cast<std::size_t>(ctx.partition));
        support::ScratchArena& arena = support::ScratchArena::local();
        auto rows = select_batch_rows(range, fraction, ctx, arena);

        GradHist out{linalg::GradVector(grad_cfg), linalg::GradVector(grad_cfg)};
        out.count = rows.vec().size();
        if (out.count > 0) {
          const auto w = w_br.value();
          const auto snapshot = snapshot_br.value();
          fused_grad_sum_pair(*dataset, range, rows.span(), *loss, w->span(),
                              snapshot->span(), out.grad, out.hist, arena);
        }
        telemetry::ScopedStageTimer serialize_timer(
            telemetry::Stage::kSerialize);
        const std::size_t bytes = payload_size_bytes(out);
        return engine::Payload::wrap<GradHist>(std::move(out), bytes);
      });
}

}  // namespace asyncml::optim::detail
