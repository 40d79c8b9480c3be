/**
 * @file
 * Umbrella header for the ACDSE library: architecture-centric
 * microarchitectural design space exploration (Dubach, Jones, O'Boyle,
 * MICRO-40 2007 / IEEE TC 2011).
 *
 * Typical usage (see examples/quickstart.cpp):
 * @code
 *   using namespace acdse;
 *   Campaign campaign = Campaign::standard();      // simulations
 *   Evaluator evaluator(campaign);                 // methodology
 *   const std::size_t applu = campaign.programIndex("applu");
 *   std::vector<std::size_t> training;             // all but applu
 *   for (std::size_t p = 0; p < campaign.programs().size(); ++p)
 *       if (p != applu)
 *           training.push_back(p);
 *   auto quality = evaluator.evaluateArchCentric(
 *       applu, Metric::Cycles, training, 512, 32, seed);
 * @endcode
 */

#pragma once

// Design space (Table 1 / Table 2).
#include "arch/design_space.hh"
#include "arch/microarch_config.hh"
#include "arch/parameter.hh"

// Synthetic workloads (SPEC CPU 2000 / MiBench substitutes).
#include "trace/simpoint.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

// Cycle-level simulator and energy model.
#include "sim/first_order.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"

// Machine-learning substrate.
#include "ml/hierarchical.hh"
#include "ml/kmeans.hh"
#include "ml/linear_regression.hh"
#include "ml/mlp.hh"
#include "ml/rbf.hh"
#include "ml/spline.hh"

// The paper's contribution and evaluation machinery.
#include "core/architecture_centric_predictor.hh"
#include "core/campaign.hh"
#include "core/characterisation.hh"
#include "core/evaluation.hh"
#include "core/feature_based_predictor.hh"
#include "core/program_specific_predictor.hh"

// Streaming design-space exploration and refinement.
#include "explore/explorer.hh"
#include "explore/reducers.hh"
#include "explore/refine.hh"
#include "explore/subspace.hh"

// Model persistence and prediction serving.
#include "serve/model_store.hh"
#include "serve/prediction_service.hh"

