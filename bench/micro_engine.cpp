// Engine micro-benchmarks (google-benchmark): the raw costs underneath every
// experiment — queue hops, broadcast fetches, RDD iteration, stage latency.

#include <benchmark/benchmark.h>

#include "asyncml.hpp"
#include "support/blocking_queue.hpp"

using namespace asyncml;

namespace {

void BM_BlockingQueuePushPop(benchmark::State& state) {
  support::BlockingQueue<int> queue;
  for (auto _ : state) {
    queue.push(1);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_BlockingQueuePushPop);

void BM_RngSubstreamDerivation(benchmark::State& state) {
  support::RngStream root(42);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(root.substream(key++)());
  }
}
BENCHMARK(BM_RngSubstreamDerivation);

void BM_BroadcastCacheHit(benchmark::State& state) {
  engine::BroadcastStore store;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::BroadcastCache cache(&store, &net, nullptr);
  const auto id =
      store.put(engine::Payload::wrap<linalg::DenseVector>(linalg::DenseVector(1024), 8192));
  (void)cache.get_or_fetch(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get_or_fetch(id));
  }
}
BENCHMARK(BM_BroadcastCacheHit);

void BM_RddSampledGradient(benchmark::State& state) {
  const auto problem = data::synthetic::tiny(2'000, 64, 0.0, 1);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const auto workload =
      optim::Workload::create(dataset, 4, optim::make_least_squares());
  const auto sampled = workload.points.sample(0.1);
  linalg::DenseVector w(64, 0.01);

  std::uint64_t seq = 0;
  for (auto _ : state) {
    engine::TaskContext ctx;
    ctx.partition = 0;
    ctx.seq = ++seq;
    ctx.rng = support::RngStream(7).substream(1).substream(seq);
    linalg::DenseVector grad(64);
    sampled.foreach_partition(0, ctx, [&](const data::LabeledPoint& p) {
      const double coeff =
          workload.loss->derivative(p.features.dot(w.span()), p.label);
      p.features.axpy_into(coeff, grad.span());
    });
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_RddSampledGradient);

void BM_SyncStageLatency(benchmark::State& state) {
  engine::Cluster::Config config;
  config.num_workers = static_cast<int>(state.range(0));
  config.cores_per_worker = 2;
  config.network.time_scale = 0.0;
  engine::Cluster cluster(config);
  const auto rdd = engine::make_vector_rdd(std::vector<int>(256, 1), config.num_workers);

  std::uint64_t seq = 0;
  for (auto _ : state) {
    engine::StageOptions options;
    options.seq = ++seq;
    benchmark::DoNotOptimize(engine::aggregate_sync(
        cluster, rdd, 0L, [](long acc, const int& x) { return acc + x; },
        [](long a, const long& b) { return a + b; }, options));
  }
  state.SetLabel(std::to_string(config.num_workers) + " workers");
}
BENCHMARK(BM_SyncStageLatency)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_HistoryPublishResolve(benchmark::State& state) {
  engine::BroadcastStore store;
  store::ModelStore history(&store);
  engine::Version version = 0;
  for (auto _ : state) {
    history.publish(linalg::DenseVector(256), version);
    benchmark::DoNotOptimize(history.value_at(version));
    ++version;
  }
}
BENCHMARK(BM_HistoryPublishResolve);

}  // namespace
