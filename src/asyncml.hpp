#pragma once

// Umbrella header: everything a downstream application needs to build and run
// synchronous/asynchronous distributed optimization with ASYNC.
//
// Intended usage — applications include only this header and follow the
// shape of examples/quickstart.cpp:
//
//   1. build a Dataset (data::load_libsvm / data::synthetic::*) and wrap it
//      in a Workload (optim/workload.hpp) with a loss from optim/loss.hpp;
//   2. stand up an engine::Cluster (workers × cores, optional straggler
//      DelayModel from src/straggler/) and a core::AsyncContext over it;
//   3. either call a packaged solver (optim::AsgdSolver::run,
//      optim::AsagaSolver::run, ...) and read back its RunResult, or write
//      the loop yourself
//      against the Table-1 API of core/api.hpp: dispatch with ASYNCreduce
//      under a BarrierControl, drain with ASYNCcollect, publish models with
//      ASYNCbroadcast, and steer using the STAT snapshot.
//
// Library code should include the specific module headers instead; this
// header exists for applications, examples, and benchmarks.

#include "core/api.hpp"              // Table-1-named free functions
#include "core/async_context.hpp"   // AC, ASYNCcollect/broadcast, barriers
#include "core/barrier.hpp"
#include "data/dataset.hpp"
#include "data/libsvm.hpp"
#include "data/synthetic.hpp"
#include "engine/actions.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "linalg/blas.hpp"
#include "metrics/report.hpp"
#include "metrics/trace.hpp"
#include "optim/asaga.hpp"
#include "optim/asgd.hpp"
#include "optim/epoch_vr.hpp"
#include "optim/loss.hpp"
#include "optim/mllib_sgd.hpp"
#include "optim/naive_saga.hpp"
#include "optim/objective.hpp"
#include "optim/saga.hpp"
#include "optim/serial.hpp"
#include "optim/sgd.hpp"
#include "optim/solver_config.hpp"
#include "optim/step_size.hpp"
#include "optim/workload.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"
#include "straggler/controlled_delay.hpp"
#include "straggler/production_cluster.hpp"
