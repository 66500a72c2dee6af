#pragma once

// The per-row reference pipeline: the `map` bodies of Algorithms 1–4 as
// sequence ops streaming one LabeledPoint at a time through the RDD sink
// chain (Rdd::sample, a virtual Loss call per row). Production runs the
// fused batch bodies of optim/grad_batch.hpp; this header is the oracle they
// must match bit for bit — same batch rows, same per-row arithmetic, same
// per-coordinate accumulation order — in the property suite and in
// bench_micro_grad_batch. Nothing under src/ includes it.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/history.hpp"
#include "engine/actions.hpp"
#include "engine/cluster.hpp"
#include "linalg/dense_vector.hpp"
#include "linalg/grad_vector.hpp"
#include "optim/payloads.hpp"
#include "optim/solver_config.hpp"
#include "optim/solver_run.hpp"
#include "optim/workload.hpp"

namespace asyncml::optim::reference {

/// Gradient-sum sequence op (the `map(p => ∇f_p(w_br.value))` of Algorithms
/// 1–2), generic over the broadcast handle type (engine::Broadcast or
/// core::HistoryBroadcast — both expose value()). `grad_cfg` fixes the
/// accumulator representation.
template <typename Handle>
[[nodiscard]] auto make_grad_seq(std::shared_ptr<const Loss> loss, Handle w_br,
                                 linalg::GradVectorConfig grad_cfg) {
  return [loss = std::move(loss), w_br, grad_cfg](GradCount acc,
                                                  const data::LabeledPoint& p) {
    acc.grad.ensure(grad_cfg);
    const linalg::DenseVector& w = w_br.value();
    const double coeff = loss->derivative(p.features.dot(w.span()), p.label);
    p.features.axpy_into(coeff, acc.grad);
    acc.count += 1;
    return acc;
  };
}

/// SAGA sequence op (the `map((index,p) => (∇f_p(w_br.value),
/// ∇f_p(w_br.value(index))))` of Algorithm 4): fresh gradient at the pinned
/// model, historical gradient recomputed from the sample's last version, and
/// the version table advanced to the pinned version.
[[nodiscard]] inline auto make_saga_seq(std::shared_ptr<const Loss> loss,
                                        core::HistoryBroadcast w_br,
                                        std::shared_ptr<core::SampleVersionTable> table,
                                        linalg::GradVectorConfig grad_cfg) {
  return [loss = std::move(loss), w_br, table = std::move(table), grad_cfg](
             GradHist acc, const data::LabeledPoint& p) {
    acc.grad.ensure(grad_cfg);
    acc.hist.ensure(grad_cfg);
    const linalg::DenseVector& w_new = w_br.value();
    const double coeff_new = loss->derivative(p.features.dot(w_new.span()), p.label);
    p.features.axpy_into(coeff_new, acc.grad);

    const engine::Version last = table->get(p.index);
    if (last != core::kNeverVisited) {
      const linalg::DenseVector& w_old = w_br.value_at(last);
      const double coeff_old = loss->derivative(p.features.dot(w_old.span()), p.label);
      p.features.axpy_into(coeff_old, acc.hist);
    }
    table->set(p.index, w_br.version());
    acc.count += 1;
    return acc;
  };
}

/// SVRG inner sequence op: fresh gradient at the dispatched model and
/// snapshot gradient at the epoch's w̃.
[[nodiscard]] inline auto make_svrg_seq(std::shared_ptr<const Loss> loss,
                                        core::HistoryBroadcast w_br,
                                        core::HistoryBroadcast snapshot_br,
                                        linalg::GradVectorConfig grad_cfg) {
  return [loss = std::move(loss), w_br, snapshot_br, grad_cfg](
             GradHist acc, const data::LabeledPoint& p) {
    acc.grad.ensure(grad_cfg);
    acc.hist.ensure(grad_cfg);
    const linalg::DenseVector& w = w_br.value();
    const double coeff = loss->derivative(p.features.dot(w.span()), p.label);
    p.features.axpy_into(coeff, acc.grad);

    const linalg::DenseVector& snap = snapshot_br.value();
    const double coeff_snap = loss->derivative(p.features.dot(snap.span()), p.label);
    p.features.axpy_into(coeff_snap, acc.hist);
    acc.count += 1;
    return acc;
  };
}

/// The rows one task streams: a Bernoulli mini-batch when `fraction` is
/// engaged, the whole partition otherwise (epoch heads).
[[nodiscard]] inline engine::Rdd<data::LabeledPoint> batch_rows(
    const Workload& workload, std::optional<double> fraction) {
  return fraction.has_value() ? workload.points.sample(*fraction) : workload.points;
}

/// Per-row counterpart of detail::grad_task_fn.
template <typename Handle>
[[nodiscard]] std::shared_ptr<const engine::TaskFn> grad_task_fn(
    const Workload& workload, Handle w_br, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction) {
  return engine::make_aggregate_fn<data::LabeledPoint, GradCount>(
      batch_rows(workload, fraction), GradCount{linalg::GradVector(grad_cfg)},
      make_grad_seq(workload.loss, w_br, grad_cfg));
}

/// Per-row counterpart of detail::saga_task_fn.
[[nodiscard]] inline std::shared_ptr<const engine::TaskFn> saga_task_fn(
    const Workload& workload, core::HistoryBroadcast w_br,
    std::shared_ptr<core::SampleVersionTable> table, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction) {
  return engine::make_aggregate_fn<data::LabeledPoint, GradHist>(
      batch_rows(workload, fraction),
      GradHist{linalg::GradVector(grad_cfg), linalg::GradVector(grad_cfg)},
      make_saga_seq(workload.loss, w_br, std::move(table), grad_cfg));
}

/// Per-row counterpart of detail::make_svrg_batch_fn.
[[nodiscard]] inline std::shared_ptr<const engine::TaskFn> svrg_task_fn(
    const Workload& workload, core::HistoryBroadcast w_br,
    core::HistoryBroadcast snapshot_br, linalg::GradVectorConfig grad_cfg,
    std::optional<double> fraction) {
  return engine::make_aggregate_fn<data::LabeledPoint, GradHist>(
      batch_rows(workload, fraction),
      GradHist{linalg::GradVector(grad_cfg), linalg::GradVector(grad_cfg)},
      make_svrg_seq(workload.loss, w_br, snapshot_br, grad_cfg));
}

/// Algorithm 1 as a BSP loop over the per-row body: round k draws its
/// batches at seq k+1, as the scheduler numbers rounds from 1, and folds the
/// results in partition order before the step, so its final model must
/// equal SgdSolver::run's final_w bit for bit on any placement.
[[nodiscard]] inline linalg::DenseVector run_sgd(engine::Cluster& cluster,
                                                 const Workload& workload,
                                                 const SolverConfig& config) {
  const linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  linalg::DenseVector w(workload.dim());
  for (std::uint64_t k = 0; k < config.updates; ++k) {
    const engine::Broadcast<linalg::DenseVector> w_br =
        cluster.broadcast(w, w.size_bytes());
    engine::StageOptions stage;
    stage.seq = k + 1;
    stage.model_version = k;
    stage.service_floor_ms =
        detail::service_floor(workload, config, config.batch_fraction);
    stage.rng_seed = config.seed;
    const GradCount total = engine::aggregate_sync_fn(
        cluster, grad_task_fn(workload, w_br, grad_cfg, config.batch_fraction),
        workload.num_partitions(), GradCount{linalg::GradVector(grad_cfg)},
        detail::grad_comb(), stage);
    if (total.count > 0) {
      total.grad.scale_into(-config.step(k) / static_cast<double>(total.count),
                            w.span());
    }
  }
  return w;
}

}  // namespace asyncml::optim::reference
