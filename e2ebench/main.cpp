// bench_e2e — the unfloored end-to-end benchmark (README.md).
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s> | --reps <n>]
//             [--trace <dir>] [--out <dir>] [--git-sha <sha>]
//   bench_e2e --smoke
//
// One discarded warm-up rep, then timed reps through the library solvers
// until --seconds have passed (at least kMinReps) or exactly --reps. With
// --trace, one more rep runs the traced driver and writes its spans to
// <dir>/<workload>.spans.json. Every metric prints as
// "<workload> <metric> <value> <unit>"; the same data, with quartiles, goes
// to <out>/<workload>.json. Exit status 1 when any output check fails.
// Disk-tier files go to a fresh mkdtemp directory under $TMPDIR, removed at
// exit.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "optim/checkpoint.hpp"

namespace e2e {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 50;
/// On a host slowed far below normal, stop after this many --seconds even
/// short of kMinReps, so an invocation still ends in bounded time.
constexpr double kMaxSecondsFactor = 3.0;
/// Traced-vs-library agreement on the async workloads, where interleaving
/// makes every run's trajectory differ: final_error within its
/// BENCHMARK.json bound. Throughput is not compared here, since it moves
/// with host load; trace.overhead_pct reports it.
constexpr double kAsyncFinalErrorTolerance = 0.05;
constexpr double kMinAccountedShare = 0.95;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int reps = 0;  ///< > 0: exactly this many timed reps
  std::string trace_dir;
  std::string out_dir = "bench_results/e2e";
  std::string git_sha = "unknown";
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> --seed <n> "
               "[--seconds <s> | --reps <n>] [--trace <dir>] [--out <dir>] "
               "[--git-sha <sha>]\n       bench_e2e --smoke\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--reps") o.reps = std::stoi(value);
      else if (arg == "--trace") o.trace_dir = value;
      else if (arg == "--out") o.out_dir = value;
      else if (arg == "--git-sha") o.git_sha = value;
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!o.smoke && find_workload(o.workload) == nullptr) usage("unknown --workload");
  if (o.reps < 0 || o.reps > kMaxReps || !(o.seconds > 0.0)) usage("bad rep count");
  return o;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Resets this process's peak RSS (VmHWM) to its current RSS, so the next
/// peak_rss_mb() covers one rep only. The heap's free pages go back to the
/// system first: kept, they would raise every later rep's starting RSS by
/// whatever earlier reps left behind.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

/// VmHWM of this process since the last reset_peak_rss(). The durable
/// workload's wire processes are not included.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double seconds_since(aml::support::TimePoint start) {
  return std::chrono::duration<double>(aml::support::Clock::now() - start).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of unsorted samples; NaN
/// samples (a target never reached) are skipped.
double quantile(std::vector<double> v, double q) {
  std::erase_if(v, [](double x) { return std::isnan(x); });
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool same_bits(const aml::linalg::DenseVector& a, const aml::linalg::DenseVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Collects failed output checks; any failure makes the exit status 1.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures.push_back(what);
  }
};

/// One rep's end-to-end numbers.
struct Rep {
  double updates_per_s = 0.0;
  double ms_to_target = std::nan("");
  double final_error = std::nan("");
  double wall_ms = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  ///< set-up and run of this rep
  double generate_ms = 0.0;
  double cluster_ms = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  aml::linalg::DenseVector final_w;
};

std::uint64_t expected_tasks(const WorkloadSpec& spec, std::uint64_t updates) {
  return spec.solver == Solver::kScheduledSgd
             ? updates * static_cast<std::uint64_t>(kPartitions)
             : updates;
}

/// When the trace first reaches `target`, interpolated log-linearly between
/// the last point above it and the first at or below, so the value does not
/// step with the trace spacing. NaN if it never does.
double ms_to_reach(const aml::metrics::Trace& trace, double target) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].error > target) continue;
    if (i == 0 || !(trace[i].error > 0.0)) return trace[i].time_ms;
    const aml::metrics::TracePoint& a = trace[i - 1];
    const aml::metrics::TracePoint& b = trace[i];
    const double s = std::log(a.error / target) / std::log(a.error / b.error);
    return a.time_ms + s * (b.time_ms - a.time_ms);
  }
  return std::nan("");
}

/// Builds a Rep from a finished run and checks what holds for every run:
/// the whole budget applied, a finite objective at or below `target`
/// (nullopt: below f(0)), and — on durable runs — the last checkpoint
/// reloading to exactly the final model.
Rep summarize(const WorkloadSpec& spec, const Setup& setup,
              const aml::optim::RunResult& r, std::optional<double> target_fraction,
              Checks& checks, const std::string& label) {
  Rep rep;
  const std::uint64_t budget = setup.config.updates;
  rep.wall_ms = r.wall_ms;
  rep.updates_per_s = static_cast<double>(r.updates) / (r.wall_ms / 1e3);
  rep.final_error = r.final_error();
  rep.setup_s = setup.setup_s();
  rep.generate_ms = setup.generate_ms;
  rep.cluster_ms = setup.cluster_ms;
  rep.attempted = setup.cluster->metrics().task_messages.load();
  rep.failed = setup.cluster->metrics().tasks_failed.load();
  rep.final_w = r.final_w;

  checks.expect(r.updates == budget && r.tasks == expected_tasks(spec, budget) &&
                    !r.trace.empty() && r.trace.back().update == budget,
                label + ": every update applied");
  const double f0 = r.trace.empty() ? std::nan("") : r.trace.front().error;
  const double target = target_fraction.has_value() ? *target_fraction * f0 : f0;
  checks.expect(std::isfinite(rep.final_error) && rep.final_error <= target,
                label + ": final_error finite and at or below the target");
  if (target_fraction.has_value()) rep.ms_to_target = ms_to_reach(r.trace, target);
  if (setup.config.checkpoint_every > 0) {
    auto cp = aml::optim::load_checkpoint(setup.config.checkpoint_path);
    checks.expect(cp.is_ok() && cp.value().update_index == budget &&
                      same_bits(cp.value().model, r.final_w),
                  label + ": last checkpoint reloads to the final model");
  }
  return rep;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< per-rep values (end-to-end metrics)
  std::uint64_t count = 0;      ///< observations behind a per-layer value
};

void print_metrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.9g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i == 0 ? "\n    \"" : ",\n    \"") + m.name + "\": {\"value\": " +
         json_number(m.value) + ", \"unit\": \"" + m.unit + "\"";
    if (!m.samples.empty()) {
      s += ", \"p25\": " + json_number(quantile(m.samples, 0.25)) +
           ", \"p75\": " + json_number(quantile(m.samples, 0.75)) +
           ", \"n\": " + std::to_string(m.samples.size()) + ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        s += (k == 0 ? "" : ", ") + json_number(m.samples[k]);
      }
      s += "]";
    } else {
      s += ", \"count\": " + std::to_string(m.count);
    }
    s += "}";
  }
  return s + "\n  }";
}

// ---- per-layer metrics from the traced rep ----------------------------------

struct SpanStats {
  std::vector<double> self_us;
  double self_total_ms = 0.0;
};

/// Self time (span minus its direct children) of every driver span inside
/// the traced wall window, grouped by name.
std::map<SpanName, SpanStats> driver_self_times(const Tracer& tracer,
                                                const TracedRun& run) {
  const std::vector<DriverSpan>& spans = tracer.driver();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const DriverSpan& s : spans) {
    if (s.parent < 0) continue;
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<SpanName, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const DriverSpan& s = spans[i];
    if (s.start_ns < run.window_start_ns || s.end_ns > run.window_end_ns) continue;
    const double self_ns = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    SpanStats& st = out[s.name];
    st.self_us.push_back(self_ns / 1e3);
    st.self_total_ms += self_ns / 1e6;
  }
  return out;
}

using aml::telemetry::Stage;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(const Tracer& tracer, const TracedRun& run,
                                      const std::vector<Rep>& reps,
                                      const aml::engine::ClusterMetrics& cluster,
                                      double untraced_wall_ms, double& accounted_share) {
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, const std::string& unit, double value,
                       std::uint64_t count) {
    m.push_back({name, unit, value, {}, count});
  };
  // p50 as `name`, p99 as `name.p99`; an absent layer reads 0.
  const auto add_quantiles = [&](const std::string& name, const std::vector<double>& v,
                                 bool p99) {
    add(name, "us", v.empty() ? 0.0 : quantile(v, 0.5), v.size());
    if (p99) add(name + ".p99", "us", v.empty() ? 0.0 : quantile(v, 0.99), v.size());
  };
  const aml::optim::RunResult& r = run.result;
  const double updates = static_cast<double>(r.updates);
  const double wall_ns = static_cast<double>(run.window_end_ns - run.window_start_ns);
  const auto spans = driver_self_times(tracer, run);
  const auto span = [&](SpanName name) -> const SpanStats& {
    static const SpanStats kNone;
    auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  };
  const auto rep_median = [&](double Rep::*field) {
    std::vector<double> v;
    for (const Rep& rep : reps) v.push_back(rep.*field);
    return quantile(v, 0.5);
  };
  // Worker-side stages of every task, from the run-sized telemetry reservoir.
  const auto& records = r.telemetry->samples;
  const auto stage_us = [&](Stage st) {
    std::vector<double> v;
    v.reserve(records.size());
    for (const auto& t : records) v.push_back(static_cast<double>(t.ns(st)) / 1e3);
    return v;
  };
  double worker_stage_ns = 0.0;
  double channel_ns = 0.0;
  for (const auto& t : records) {
    for (std::size_t s = 0; s < aml::telemetry::kWorkerStages; ++s) {
      worker_stage_ns += static_cast<double>(t.stage_ns[s]);
    }
    channel_ns += static_cast<double>(t.ns(Stage::kResultChannel));
  }
  std::vector<double> task_us;
  double task_busy_ns = 0.0;
  for (const TaskSpan& t : tracer.tasks()) {
    task_us.push_back(static_cast<double>(t.end_ns - t.start_ns) / 1e3);
    if (t.start_ns >= run.window_start_ns && t.end_ns <= run.window_end_ns) {
      task_busy_ns += static_cast<double>(t.end_ns - t.start_ns);
    }
  }
  double frames = 0.0;
  double wire_bytes = 0.0;
  for (const auto& ch : r.wire) {
    frames += static_cast<double>(ch.frames);
    wire_bytes += static_cast<double>(ch.bytes_sent + ch.bytes_received);
  }
  const auto& model = r.wire[static_cast<std::size_t>(aml::engine::WireChannel::kModel)];
  const auto per_update = [&](std::uint64_t total) {
    return static_cast<double>(total) / updates;
  };
  const auto share_of_wall = [&](double ns) { return ns / wall_ns; };

  // data / engine start-up, over every rep
  add("data.generate_ms", "ms", rep_median(&Rep::generate_ms), reps.size());
  add("engine.cluster_start_ms", "ms", rep_median(&Rep::cluster_ms), reps.size());
  // core.scheduler
  add_quantiles("scheduler.dispatch_us", span(SpanName::kDispatch).self_us, true);
  add("scheduler.tasks_per_dispatch", "count",
      ratio(run.tasks_dispatched, run.dispatch_calls),
      run.dispatch_calls);
  // core.coordinator
  add_quantiles("coordinator.collect_wait_us", span(SpanName::kCollect).self_us, true);
  add("coordinator.staleness", "versions",
      ratio(run.staleness_sum, run.collected),
      run.collected);
  add("coordinator.retries", "count", static_cast<double>(run.retries), run.collected);
  add("coordinator.duplicates_dropped", "count",
      static_cast<double>(run.duplicates_dropped), run.collected);
  // store
  add_quantiles("store.publish_us", span(SpanName::kPublish).self_us, true);
  add_quantiles("store.model_fetch_us", stage_us(Stage::kModelFetch), true);
  add_quantiles("store.gc_us", span(SpanName::kGc).self_us, false);
  add("store.gc_share", "ratio",
      share_of_wall(1e6 * (span(SpanName::kGc).self_total_ms +
                           span(SpanName::kGcFloor).self_total_ms)),
      span(SpanName::kGc).self_us.size() + span(SpanName::kGcFloor).self_us.size());
  add("store.broadcast_bytes_per_update", "B", per_update(r.broadcast_bytes), r.updates);
  add("store.delta_byte_share", "ratio",
      ratio(r.broadcast_delta_bytes, r.broadcast_bytes),
      r.broadcast_fetches);
  add("store.fetch_hit_ratio", "ratio",
      ratio(r.broadcast_hits, r.broadcast_hits + r.broadcast_fetches),
      r.broadcast_hits + r.broadcast_fetches);
  // optim / linalg
  add_quantiles("optim.step_us", span(SpanName::kStep).self_us, true);
  add_quantiles("optim.task_build_us", span(SpanName::kTaskBuild).self_us, false);
  add_quantiles("optim.task_us", task_us, true);
  add_quantiles("kernel.compute_us", stage_us(Stage::kCompute), false);
  // engine
  add_quantiles("engine.queue_wait_us", stage_us(Stage::kQueueWait), true);
  add("engine.worker_busy_ratio", "ratio",
      share_of_wall(task_busy_ns) / (kWorkers * kCoresPerWorker), task_us.size());
  add("engine.result_bytes_per_update", "B", per_update(r.result_bytes), r.updates);
  // transport
  add("transport.result_channel_share", "ratio", ratio(channel_ns, worker_stage_ns),
      records.size());
  add("transport.frames_per_update", "count", frames / updates, r.updates);
  add("transport.wire_bytes_per_update", "B", wire_bytes / updates, r.updates);
  add("transport.model_bytes_ratio", "ratio",
      ratio(model.bytes_sent, r.broadcast_bytes),
      model.frames);
  // store.disk
  add("disk.write_share", "ratio",
      share_of_wall(static_cast<double>(cluster.disk.write_ns.load())), r.disk.blob_writes);
  add("disk.checkpoint_share", "ratio",
      share_of_wall(1e6 * span(SpanName::kCheckpoint).self_total_ms),
      span(SpanName::kCheckpoint).self_us.size());
  add("disk.blob_writes_per_update", "count", per_update(r.disk.blob_writes), r.updates);
  add("disk.write_bytes_per_update", "B", per_update(r.disk.blob_write_bytes), r.updates);
  // reconciliation
  double self_ms = 0.0;
  for (const auto& [name, st] : spans) self_ms += st.self_total_ms;
  accounted_share = share_of_wall(1e6 * self_ms);
  add("driver.accounted_share", "ratio", accounted_share, tracer.driver().size());
  add("trace.overhead_pct", "%", 100.0 * (r.wall_ms / untraced_wall_ms - 1.0), 1);
  return m;
}

struct TracedRep {
  Rep rep;
  std::vector<Metric> layers;
  double accounted = 0.0;
};

struct Runner {
  const WorkloadSpec& spec;
  std::uint64_t seed;
  std::uint64_t updates;
  double row_scale;
  std::string scratch;
  int workers = kWorkers;

  SetupOptions options(bool durable) const {
    SetupOptions o;
    o.seed = seed;
    o.updates = updates;
    o.row_scale = row_scale;
    o.workers = workers;
    o.durable = durable;
    o.scratch_parent = scratch;
    return o;
  }

  Rep library_rep(std::optional<double> target_fraction, Checks& checks,
                  const std::string& label) {
    reset_peak_rss();
    Setup setup = set_up(spec, options(spec.durable));
    const aml::optim::RunResult r = run_library(spec, setup);
    Rep rep = summarize(spec, setup, r, target_fraction, checks, label);
    rep.peak_rss_mb = peak_rss_mb();
    return rep;
  }

  /// The traced rep, its per-layer metrics and the span checks. `reps` are
  /// the library reps it is measured against; `trace_path` empty = keep the
  /// spans in memory only.
  TracedRep traced_rep(const std::vector<Rep>& reps, std::optional<double> target_fraction,
                       Checks& checks, const std::string& trace_path) {
    Setup setup = set_up(spec, options(spec.durable));
    // Sync rounds record kPartitions collects plus at most 8 other spans.
    Tracer tracer(updates * (kPartitions + 8) + 64,
                  expected_tasks(spec, updates) + 4 * kPartitions);
    const TracedRun traced = run_traced(spec, setup, tracer);
    const std::string label = std::string(spec.name) + " traced";
    TracedRep out;
    out.rep = summarize(spec, setup, traced.result, target_fraction, checks, label);
    std::vector<Rep> all = reps;
    all.push_back(out.rep);
    std::vector<double> walls;
    for (const Rep& rep : reps) walls.push_back(rep.wall_ms);
    out.layers = per_layer_metrics(tracer, traced, all, setup.cluster->metrics(),
                                   quantile(walls, 0.5), out.accounted);
    checks.expect(out.accounted >= kMinAccountedShare,
                  label + ": driver spans account for >= 95% of the wall");
    checks.expect(tracer.tasks_dropped() == 0, label + ": every task span recorded");
    if (!trace_path.empty()) {
      checks.expect(tracer.write_json(trace_path, spec.name),
                    "spans written to " + trace_path);
    }
    return out;
  }

  /// One untimed in-process run: the reference the durable workload must
  /// match bit for bit.
  aml::linalg::DenseVector in_process_reference() {
    Setup setup = set_up(spec, options(false));
    return run_library(spec, setup).final_w;
  }
};

/// traced.cpp copies the solvers' update loops. On the sync workloads every
/// traced rep must match the library bit for bit, which keeps that copy in
/// step. The async loops interleave differently on every run, so they are
/// compared on one worker instead, at the smoke budget: there both run one
/// task at a time and must also match bit for bit.
void check_serial_loops(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::string& scratch, Checks& checks) {
  if (spec.solver == Solver::kScheduledSgd) return;
  Runner serial{spec, seed, spec.smoke_updates, spec.row_scale * kSmokeRowScale, scratch, 1};
  const std::string label = std::string(spec.name) + " serial";
  const Rep library = serial.library_rep(std::nullopt, checks, label);
  const TracedRep traced = serial.traced_rep({library}, std::nullopt, checks, "");
  checks.expect(same_bits(library.final_w, traced.rep.final_w),
                label + ": traced driver bit-identical to the library solver");
}

// ---- one workload -----------------------------------------------------------

int run_workload(const WorkloadSpec& spec, const Options& o) {
  const int cpus = nproc();
  std::printf("%s nproc %d\n", spec.name, cpus);
  const int threads = 2 + kWorkers * kCoresPerWorker;
  if (cpus < threads) {
    std::fprintf(stderr,
                 "warning: nproc %d < %d threads (driver, coordinator drain, %d "
                 "executors); timings will include preemption\n",
                 cpus, threads, kWorkers * kCoresPerWorker);
  }
  const ScratchDir scratch(std::filesystem::temp_directory_path(), "bench_e2e-");
  Runner runner{spec, o.seed, spec.updates, spec.row_scale, scratch.path()};
  Checks checks;

  std::optional<aml::linalg::DenseVector> reference;
  if (spec.durable) reference = runner.in_process_reference();

  const Rep warm = runner.library_rep(spec.target_fraction, checks, "warm-up");
  std::vector<Rep> reps;
  const auto t0 = aml::support::Clock::now();
  std::vector<double> rep_seconds;
  while (static_cast<int>(reps.size()) < kMaxReps) {
    const auto start = aml::support::Clock::now();
    reps.push_back(runner.library_rep(spec.target_fraction, checks,
                                      "rep " + std::to_string(reps.size())));
    rep_seconds.push_back(seconds_since(start));
    const int n = static_cast<int>(reps.size());
    const double elapsed = seconds_since(t0);
    if (o.reps > 0) {
      if (n >= o.reps) break;
    } else if ((n >= kMinReps && elapsed + quantile(rep_seconds, 0.5) > o.seconds) ||
               elapsed > kMaxSecondsFactor * o.seconds) {
      break;
    }
  }
  for (const Rep& rep : reps) {
    if (spec.solver == Solver::kScheduledSgd) {
      checks.expect(same_bits(rep.final_w, warm.final_w),
                    "sync final w bit-identical across reps");
    }
    if (reference.has_value()) {
      checks.expect(same_bits(rep.final_w, *reference),
                    "durable final w bit-identical to the in-process run");
    }
  }

  const auto samples = [&](double Rep::*field) {
    std::vector<double> v;
    for (const Rep& rep : reps) v.push_back(rep.*field);
    return v;
  };
  std::vector<Metric> e2e;
  const auto add_e2e = [&](const char* name, const char* unit, std::vector<double> v) {
    const double median = quantile(v, 0.5);
    e2e.push_back({name, unit, median, std::move(v), 0});
  };
  add_e2e("updates_per_s", "1/s", samples(&Rep::updates_per_s));
  add_e2e("ms_to_target", "ms", samples(&Rep::ms_to_target));
  add_e2e("final_error", "loss", samples(&Rep::final_error));
  add_e2e("peak_rss_mb", "MB", samples(&Rep::peak_rss_mb));
  add_e2e("setup_s", "s", samples(&Rep::setup_s));
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
  }
  e2e.push_back({"failed_ratio", "ratio", ratio(failed, attempted), {}, attempted});
  print_metrics(spec.name, e2e);

  std::vector<Metric> layers;
  if (!o.trace_dir.empty()) {
    std::filesystem::create_directories(o.trace_dir);
    const TracedRep traced =
        runner.traced_rep(reps, spec.target_fraction, checks,
                          o.trace_dir + "/" + spec.name + ".spans.json");
    layers = traced.layers;
    if (spec.solver == Solver::kScheduledSgd) {
      checks.expect(same_bits(traced.rep.final_w, warm.final_w),
                    "traced driver bit-identical to the library solver");
    } else {
      // Async interleaving differs run to run, so the traced objective is
      // compared with the library reps' median, within its bound.
      checks.expect(std::abs(traced.rep.final_error / e2e[2].value - 1.0) <=
                        kAsyncFinalErrorTolerance,
                    "traced final_error within the final_error bound of the library's");
      check_serial_loops(spec, o.seed, scratch.path(), checks);
    }
    print_metrics(spec.name, layers);
  }

  std::filesystem::create_directories(o.out_dir);
  const std::string path = o.out_dir + "/" + spec.name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    std::string failures = "[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i) {
      failures += (i == 0 ? "\"" : ", \"") + checks.failures[i] + "\"";
    }
    failures += "]";
    std::fprintf(f,
                 "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"nproc\": %d,\n"
                 "  \"git_sha\": \"%s\",\n  \"warmup_reps\": 1,\n  \"reps\": %zu,\n"
                 "  \"correct\": %s,\n  \"failures\": %s,\n  \"attempted\": %llu,\n"
                 "  \"failed\": %llu,\n  \"end_to_end\": %s,\n  \"per_layer\": %s\n}\n",
                 spec.name, static_cast<unsigned long long>(o.seed), cpus,
                 o.git_sha.c_str(), reps.size(),
                 checks.failures.empty() ? "true" : "false", failures.c_str(),
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), json_metrics(e2e).c_str(),
                 json_metrics(layers).c_str());
    std::fclose(f);
  } else {
    checks.expect(false, "results written to " + path);
  }
  return checks.failures.empty() ? 0 : 1;
}

/// Every workload's checks and the span reconciliation at tiny budgets.
int smoke(const Options& o) {
  Checks checks;
  const ScratchDir scratch(std::filesystem::temp_directory_path(), "bench_e2e-");
  for (const WorkloadSpec& spec : workloads()) {
    const auto start = aml::support::Clock::now();
    Runner runner{spec, o.seed, spec.smoke_updates, spec.row_scale * kSmokeRowScale,
                  scratch.path()};
    const std::string name = spec.name;
    const Rep a = runner.library_rep(std::nullopt, checks, name + " rep 0");
    const Rep b = runner.library_rep(std::nullopt, checks, name + " rep 1");
    const TracedRep t = runner.traced_rep({a, b}, std::nullopt, checks, "");
    if (spec.solver == Solver::kScheduledSgd) {
      checks.expect(same_bits(a.final_w, b.final_w) && same_bits(a.final_w, t.rep.final_w),
                    name + ": reps and traced driver bit-identical");
    }
    if (spec.durable) {
      checks.expect(same_bits(a.final_w, runner.in_process_reference()),
                    name + ": bit-identical to the in-process run");
    }
    check_serial_loops(spec, o.seed, scratch.path(), checks);
    std::printf("smoke %s accounted_share %.4f %.2f s\n", spec.name, t.accounted,
                seconds_since(start));
  }
  std::printf("smoke %s\n", checks.failures.empty() ? "ok" : "FAILED");
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Options o = e2e::parse(argc, argv);
  try {
    return o.smoke ? e2e::smoke(o) : e2e::run_workload(*e2e::find_workload(o.workload), o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
