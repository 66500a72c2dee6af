// The traced driver: each workload's update loop rebuilt from the paper's
// user API (core::AsyncContext — async_broadcast, collect, advance_version,
// scheduler dispatch, gc_history), with the task bodies of
// optim/grad_batch.hpp and checkpoints through optim/checkpoint.hpp. It
// mirrors AsgdSolver / AsagaSolver / ScheduledSgdSolver call for call, so
// the sync workloads must end bit-identical to the library run; main.cpp
// checks that. Every layer call is wrapped in a span.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "e2e.hpp"
#include "optim/solver_util.hpp"

namespace e2e {

namespace detail = aml::optim::detail;
using aml::core::AsyncContext;
using aml::core::AsyncScheduler;
using aml::core::HistoryBroadcast;
using aml::linalg::DenseVector;

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kPublish: return "store.publish";
    case SpanName::kTaskBuild: return "optim.task_build";
    case SpanName::kDispatch: return "scheduler.dispatch";
    case SpanName::kCollect: return "coordinator.collect";
    case SpanName::kStep: return "optim.step";
    case SpanName::kSnapshot: return "metrics.snapshot";
    case SpanName::kGc: return "store.gc";
    case SpanName::kGcFloor: return "store.gc_floor";
    case SpanName::kCheckpoint: return "disk.checkpoint";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t driver_capacity, std::size_t task_capacity)
    : epoch_(aml::support::Clock::now()), tasks_(task_capacity) {
  driver_.reserve(driver_capacity);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             aml::support::Clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, SpanName name, std::uint64_t update)
    : tracer_(tracer), index_(tracer.driver_.size()) {
  tracer.driver_.push_back(
      DriverSpan{tracer.now_ns(), 0, update, tracer.open_, name});
  tracer.open_ = static_cast<std::int32_t>(index_);
}

Tracer::Scope::~Scope() {
  DriverSpan& span = tracer_.driver_[index_];
  span.end_ns = tracer_.now_ns();
  tracer_.open_ = span.parent;
}

std::shared_ptr<const aml::engine::TaskFn> Tracer::wrap(
    std::shared_ptr<const aml::engine::TaskFn> fn, std::uint64_t update) {
  return std::make_shared<const aml::engine::TaskFn>(
      [this, fn = std::move(fn), update](aml::engine::TaskContext& ctx) {
        const std::int64_t start = now_ns();
        auto out = (*fn)(ctx);
        const std::int64_t end = now_ns();
        const std::size_t slot = task_cursor_.fetch_add(1, std::memory_order_relaxed);
        if (slot < tasks_.size()) {
          tasks_[slot] = TaskSpan{start, end, update, ctx.worker, ctx.partition};
        }
        return out;
      });
}

std::vector<TaskSpan> Tracer::tasks() const {
  const std::size_t n = std::min(task_cursor_.load(), tasks_.size());
  return {tasks_.begin(), tasks_.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::uint64_t Tracer::tasks_dropped() const {
  const std::size_t cursor = task_cursor_.load();
  return cursor > tasks_.size() ? cursor - tasks_.size() : 0;
}

bool Tracer::write_json(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  // A task's parent is the dispatch span of the update whose body it ran.
  std::vector<std::int32_t> dispatch_of;
  for (std::size_t i = 0; i < driver_.size(); ++i) {
    if (driver_[i].name != SpanName::kDispatch) continue;
    const std::uint64_t u = driver_[i].update;
    if (dispatch_of.size() <= u) dispatch_of.resize(u + 1, -1);
    dispatch_of[u] = static_cast<std::int32_t>(i);
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"clock\": \"steady_ns\",\n\"names\": [",
               workload.c_str());
  for (std::size_t n = 0; n < kNumSpanNames; ++n) {
    std::fprintf(f, "%s\"%s\"", n == 0 ? "" : ", ", span_name(static_cast<SpanName>(n)));
  }
  std::fprintf(f, "],\n\"driver_fields\": [\"name\", \"start\", \"end\", \"parent\", "
                  "\"update\"],\n\"driver\": [");
  for (std::size_t i = 0; i < driver_.size(); ++i) {
    const DriverSpan& s = driver_[i];
    std::fprintf(f, "%s[%d,%lld,%lld,%d,%llu]", i == 0 ? "\n" : ",\n",
                 static_cast<int>(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.update));
  }
  std::fprintf(f, "],\n\"task_name\": \"optim.task\",\n\"task_fields\": [\"start\", "
                  "\"end\", \"parent\", \"update\", \"worker\", \"partition\"],\n"
                  "\"tasks\": [");
  const std::vector<TaskSpan> task_spans = tasks();
  for (std::size_t i = 0; i < task_spans.size(); ++i) {
    const TaskSpan& s = task_spans[i];
    const std::int32_t parent =
        s.update < dispatch_of.size() ? dispatch_of[s.update] : -1;
    std::fprintf(f, "%s[%lld,%lld,%d,%llu,%d,%d]", i == 0 ? "\n" : ",\n",
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 parent, static_cast<unsigned long long>(s.update), s.worker,
                 s.partition);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

bool due(std::uint64_t every, std::uint64_t updates) {
  return every != 0 && updates != 0 && updates % every == 0;
}

/// State and calls every traced loop shares: the context, the model, and
/// the spanned steps common to the three solvers.
class Loop {
 public:
  Loop(Setup& setup, const aml::optim::SolverConfig& config, Tracer& tracer,
       TracedRun& out)
      : workload(setup.workload),
        config(config),
        cluster(*setup.cluster),
        tracer(tracer),
        out(out),
        grad_cfg(detail::grad_config(workload, config)),
        support_table(detail::shard_support_table(workload, config)),
        w(workload.dim()),
        recorder(config.eval_every) {
    detail::reset_run_metrics(cluster.metrics());
    detail::begin_telemetry(cluster, config);
    ac = std::make_unique<AsyncContext>(cluster, workload.num_partitions(),
                                        config.store_config);
    opts.service_floor_ms = config.service_floor_ms;
    opts.rng_seed = config.seed;
    recorder.reserve_for(config.updates);
  }

  void publish(std::uint64_t update) {
    Tracer::Scope span(tracer, SpanName::kPublish, update);
    w_br = ac->async_broadcast(w);
  }

  /// Builds the task body for the model just published (`make_fn`) and the
  /// factory that dispatches it.
  template <typename MakeFn>
  void build(MakeFn make_fn, std::uint64_t update) {
    Tracer::Scope span(tracer, SpanName::kTaskBuild, update);
    factory = ac->make_fn_factory(tracer.wrap(make_fn(), update), opts);
  }

  void dispatch_live(std::uint64_t update) {
    Tracer::Scope span(tracer, SpanName::kDispatch, update);
    out.tasks_dispatched +=
        static_cast<std::uint64_t>(detail::dispatch_live(*ac, config.barrier, factory));
    ++out.dispatch_calls;
  }

  std::optional<aml::core::TaggedResult> collect(std::uint64_t update) {
    Tracer::Scope span(tracer, SpanName::kCollect, update);
    auto collected = ac->collect(&factory);
    if (collected.has_value()) {
      out.staleness_sum += collected->staleness;
      ++out.collected;
    }
    return collected;
  }

  void start_window() {
    watch.reset();
    out.window_start_ns = tracer.now_ns();
    Tracer::Scope span(tracer, SpanName::kSnapshot, 0);
    recorder.snapshot(0, 0.0, w);
  }

  void snapshot(std::uint64_t updates) {
    Tracer::Scope span(tracer, SpanName::kSnapshot, updates);
    recorder.maybe_snapshot(updates, watch.elapsed_ms(), w);
  }

  void gc(std::uint64_t updates, std::optional<aml::engine::Version> floor) {
    if (!due(config.gc_every, updates)) return;
    Tracer::Scope span(tracer, SpanName::kGc, updates);
    ac->gc_history(floor);
  }

  aml::optim::RunResult finish(std::uint64_t updates, std::uint64_t tasks) {
    {
      Tracer::Scope span(tracer, SpanName::kSnapshot, updates);
      recorder.snapshot(updates, watch.elapsed_ms(), w);
    }
    aml::optim::RunResult r;
    r.wall_ms = watch.elapsed_ms();
    out.window_end_ns = tracer.now_ns();
    r.updates = updates;
    r.tasks = tasks;
    r.final_w = w;
    out.retries = ac->retries();
    out.duplicates_dropped = ac->coordinator().duplicates_dropped();
    detail::fill_run_stats(r, cluster.metrics());
    detail::finish_telemetry(r, cluster, config);
    r.trace = recorder.finalize([&](const DenseVector& model) {
      return aml::optim::full_objective(*workload.dataset, *workload.loss, model);
    });
    return r;
  }

  const aml::optim::Workload& workload;
  const aml::optim::SolverConfig& config;
  aml::engine::Cluster& cluster;
  Tracer& tracer;
  TracedRun& out;
  const aml::linalg::GradVectorConfig grad_cfg;
  const std::shared_ptr<const std::vector<aml::core::ShardSet>> support_table;
  std::unique_ptr<AsyncContext> ac;
  aml::core::SubmitOptions opts;
  DenseVector w;
  HistoryBroadcast w_br;
  AsyncScheduler::TaskFactory factory;
  aml::metrics::TraceRecorder recorder;
  aml::support::Stopwatch watch;
};

/// AsgdSolver::run (Algorithm 2).
aml::optim::RunResult traced_asgd(Loop& l) {
  const aml::optim::SolverConfig& config = l.config;
  l.ac->scheduler().set_policy(detail::scheduler_policy(l.workload, config));
  const double step_scale = config.async_step_scale.value_or(1.0);
  const auto make_fn = [&] {
    return detail::grad_task_fn(l.workload, config, l.w_br, l.grad_cfg,
                                config.batch_fraction, l.support_table);
  };
  l.publish(0);
  l.build(make_fn, 0);
  l.start_window();
  l.dispatch_live(0);

  std::uint64_t updates = 0;
  while (updates < config.updates) {
    auto collected = l.collect(updates);
    if (!collected.has_value()) break;
    {
      Tracer::Scope span(l.tracer, SpanName::kStep, updates);
      const auto& g = collected->result.payload.get<aml::optim::GradCount>();
      if (g.count > 0) {
        const std::uint64_t round =
            updates / static_cast<std::uint64_t>(l.workload.num_partitions());
        const double lr = config.step(round) * step_scale;
        g.grad.scale_into(-lr / static_cast<double>(g.count), l.w.span());
      }
      collected.reset();  // the payload is freed inside the span
      ++updates;
      l.ac->advance_version();
    }
    l.publish(updates);
    l.build(make_fn, updates);
    l.snapshot(updates);
    l.gc(updates, std::nullopt);
    l.dispatch_live(updates);
  }
  aml::optim::RunResult r = l.finish(updates, updates);
  r.algorithm = "ASGD";
  return r;
}

/// AsagaSolver::run (Algorithm 4).
aml::optim::RunResult traced_asaga(Loop& l) {
  const aml::optim::SolverConfig& config = l.config;
  const std::size_t n = l.workload.n();
  aml::core::SchedulerPolicy policy = detail::scheduler_policy(l.workload, config);
  policy.speculation_factor = 0.0;  // version-table tasks are not re-entrant
  l.ac->scheduler().set_policy(std::move(policy));
  const double step_scale = config.async_step_scale.value_or(1.0);
  auto table = std::make_shared<aml::core::SampleVersionTable>(n, detail::kNeverVisited);
  DenseVector alpha_bar(l.workload.dim());
  const auto make_fn = [&] {
    return detail::saga_task_fn(l.workload, config, l.w_br, table, l.grad_cfg,
                                config.batch_fraction, l.support_table);
  };
  l.publish(0);
  l.build(make_fn, 0);
  l.start_window();
  l.dispatch_live(0);

  std::uint64_t updates = 0;
  while (updates < config.updates) {
    auto collected = l.collect(updates);
    if (!collected.has_value()) break;
    {
      Tracer::Scope span(l.tracer, SpanName::kStep, updates);
      const auto& g = collected->result.payload.get<aml::optim::GradHist>();
      if (g.count > 0) {
        const double inv_b = 1.0 / static_cast<double>(g.count);
        DenseVector direction = alpha_bar;
        g.grad.scale_into(inv_b, direction.span());
        g.hist.scale_into(-inv_b, direction.span());
        aml::linalg::axpy(-config.step(updates) * step_scale, direction.span(),
                          l.w.span());
        const double inv_n = 1.0 / static_cast<double>(n);
        g.grad.scale_into(inv_n, alpha_bar.span());
        g.hist.scale_into(-inv_n, alpha_bar.span());
      }
      collected.reset();
      ++updates;
      l.ac->advance_version();
    }
    l.publish(updates);
    l.build(make_fn, updates);
    l.snapshot(updates);
    std::optional<aml::engine::Version> floor;
    {
      // The library scans the table for the GC floor on every update, due
      // or not; so does this loop.
      Tracer::Scope span(l.tracer, SpanName::kGcFloor, updates);
      floor = table->min_version();
    }
    l.gc(updates, floor);
    l.dispatch_live(updates);
  }
  aml::optim::RunResult r = l.finish(updates, updates);
  r.algorithm = "ASAGA";
  return r;
}

/// ScheduledSgdSolver::run (Algorithm 1 through the ASYNCscheduler).
aml::optim::RunResult traced_sgd(Loop& l) {
  const aml::optim::SolverConfig& config = l.config;
  l.ac->scheduler().set_policy(detail::scheduler_policy(l.workload, config));
  auto comb = detail::grad_comb();
  const auto make_fn = [&] {
    return detail::grad_task_fn(l.workload, config, l.w_br, l.grad_cfg,
                                config.batch_fraction, l.support_table);
  };
  l.start_window();

  std::uint64_t tasks = 0;
  std::vector<aml::core::TaggedResult> results;
  for (std::uint64_t k = 0; k < config.updates; ++k) {
    l.publish(k);
    l.build(make_fn, k);
    int total = 0;
    {
      Tracer::Scope span(l.tracer, SpanName::kDispatch, k);
      total = l.ac->scheduler().dispatch_all(l.factory);
      l.out.tasks_dispatched += static_cast<std::uint64_t>(total);
      ++l.out.dispatch_calls;
    }
    while (static_cast<int>(results.size()) < total) {
      auto collected = l.collect(k);
      if (!collected.has_value()) break;
      results.push_back(std::move(*collected));
    }
    tasks += results.size();
    {
      Tracer::Scope span(l.tracer, SpanName::kStep, k);
      // Partition order, as the library folds: placement-independent bits.
      std::sort(results.begin(), results.end(),
                [](const aml::core::TaggedResult& a, const aml::core::TaggedResult& b) {
                  return a.result.partition < b.result.partition;
                });
      aml::optim::GradCount sum{aml::linalg::GradVector(l.grad_cfg)};
      for (aml::core::TaggedResult& r : results) {
        sum = comb(std::move(sum), r.result.payload.get<aml::optim::GradCount>());
      }
      if (sum.count > 0) {
        sum.grad.scale_into(-config.step(k) / static_cast<double>(sum.count),
                            l.w.span());
      }
      results.clear();
      l.ac->advance_version();
    }
    l.snapshot(k + 1);
    l.gc(k + 1, std::nullopt);
    if (due(config.checkpoint_every, k + 1)) {
      Tracer::Scope span(l.tracer, SpanName::kCheckpoint, k + 1);
      detail::maybe_checkpoint(config, *l.ac, l.w, k + 1);
    }
  }
  aml::optim::RunResult r = l.finish(config.updates, tasks);
  r.algorithm = "SGD-sched";
  return r;
}

}  // namespace

TracedRun run_traced(const WorkloadSpec& spec, Setup& setup, Tracer& tracer) {
  aml::optim::SolverConfig config = setup.config;
  config.telemetry.enabled = true;
  // A reservoir as large as the run keeps every task's stage record, so
  // stage quantiles are exact rather than read off log-bucket histograms.
  config.telemetry.reservoir_capacity = tracer.task_capacity();
  TracedRun out;
  {
    Loop loop(setup, config, tracer, out);
    switch (spec.solver) {
      case Solver::kAsgd: out.result = traced_asgd(loop); break;
      case Solver::kAsaga: out.result = traced_asaga(loop); break;
      case Solver::kScheduledSgd: out.result = traced_sgd(loop); break;
    }
  }
  // Joins the executors, so every task span is written before it is read.
  setup.cluster->shutdown();
  return out;
}

}  // namespace e2e
