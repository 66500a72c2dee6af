#pragma once

// Paper-parity facade: free functions named exactly as the paper's Table 1,
// so code can be transliterated from the paper's listings symbol-for-symbol.
// Each function is a thin forwarder to the AsyncContext method documented in
// core/async_context.hpp; new code should prefer the methods, this header
// exists to make the correspondence executable:
//
//   AC = new ASYNCcontext            AsyncContext ac(cluster, P);
//   points.ASYNCbarrier(f, AC.STAT)
//         .sample(b).map(g)
//         .ASYNCreduce(_+_, AC)      ASYNCreduce(ac, points.sample(b), zero,
//                                                seq_op, f);
//   while (AC.hasNext())             while (ASYNChasNext(ac))
//     grad = AC.ASYNCcollect()         grad = ASYNCcollect(ac);
//   w_br = AC.ASYNCbroadcast(w)      w_br = ASYNCbroadcast(ac, w);
//   AC.STAT                          STAT(ac)
//
// Note the one structural difference (also discussed in async_context.hpp):
// ASYNCbarrier is expressed as the BarrierControl argument of the dispatch
// instead of an RDD transformation, because barrier decisions happen at the
// scheduler in this engine.
//
// Intended usage — an asynchronous solver loop is four calls:
//
//   AsyncContext ac(cluster, partitions);
//   auto w_br = ASYNCbroadcast(ac, w0);                    // publish model
//   ASYNCreduce(ac, points.sample(b), zero, grad_op,
//               barriers::ssp(16));                        // dispatch round
//   while (ASYNChasNext(ac)) {
//     auto r = ASYNCcollectAll(ac);                        // staleness-tagged
//     w -= step(r->staleness) * gradient_of(r->result);    // apply update
//     w_br = ASYNCbroadcast(ac, w);                        // next version
//   }
//
// All functions are thin inline forwarders — there is no behavior here, only
// naming; see AsyncContext for semantics, ownership and thread-safety.

#include "core/async_context.hpp"

namespace asyncml::core {

/// ASYNCreduce: dispatch fold tasks over `rdd` to the workers admitted by
/// `barrier`; results stream into the context (collect with ASYNCcollect).
template <typename T, typename Op>
inline int ASYNCreduce(AsyncContext& ac, const engine::Rdd<T>& rdd, T identity, Op op,
                       const BarrierControl& barrier, const SubmitOptions& options = {}) {
  return ac.async_reduce(rdd, std::move(identity), std::move(op), barrier, options);
}

/// ASYNCaggregate: the zero/seqOp/combOp form (combOp runs server-side when
/// the caller folds collected results; each task applies seqOp only, exactly
/// like Spark's per-partition phase).
template <typename T, typename U, typename SeqOp>
inline int ASYNCaggregate(AsyncContext& ac, const engine::Rdd<T>& rdd, U zero,
                          SeqOp seq_op, const BarrierControl& barrier,
                          const SubmitOptions& options = {}) {
  return ac.async_aggregate(rdd, std::move(zero), std::move(seq_op), barrier, options);
}

/// ASYNCcollect: FIFO pop of the next task result (payload only).
[[nodiscard]] inline std::optional<engine::Payload> ASYNCcollect(AsyncContext& ac) {
  auto collected = ac.collect();
  if (!collected.has_value()) return std::nullopt;
  return std::move(collected->result.payload);
}

/// ASYNCcollectAll: the result plus its worker attributes (index, staleness,
/// mini-batch provenance) — what Listing 1 uses for staleness-aware rates.
[[nodiscard]] inline std::optional<TaggedResult> ASYNCcollectAll(AsyncContext& ac) {
  return ac.collect();
}

/// ASYNCbroadcast: publish a model as a dynamic (history) broadcast variable
/// (shipped as a sparse delta against the previous version when profitable —
/// see src/store/).
[[nodiscard]] inline HistoryBroadcast ASYNCbroadcast(AsyncContext& ac,
                                                     const linalg::DenseVector& w) {
  return ac.async_broadcast(w);
}

/// AC.STAT — snapshot of all workers' status.
[[nodiscard]] inline StatSnapshot STAT(const AsyncContext& ac) { return ac.stat(); }

/// AC.hasNext().
[[nodiscard]] inline bool ASYNChasNext(AsyncContext& ac) { return ac.has_next(); }

}  // namespace asyncml::core
