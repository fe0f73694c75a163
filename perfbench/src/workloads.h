#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The benchmark's workloads. Each builds its inputs from the seed, runs
/// against the public API, checks the outputs and reports the end-to-end
/// metrics (untraced) or the per-layer metrics (traced). See README.md for
/// what each workload stresses and why.

#include "common.h"
#include "core/score_kernel.h"

namespace perfbench {

/// Wall-clock sbqa::Engine, 2 shards, 32 providers, 8 consumers with one
/// hot consumer, default SbQA: the per-query cost outside the decision.
RunOutcome RunServeSmall(const RunOptions& options);

/// The simulated BOINC population (5k volunteers, 3 projects, 3 shards,
/// churn, joins, dropped dispatches, one scarce class): the paper's
/// setting under load.
RunOutcome RunSimBoinc(const RunOptions& options);

/// One line of a workload's human-readable per-layer table on stdout.
void PrintTableRow(const char* name, double value, const char* unit);

/// The decision.* per-layer metrics: decisions per finalized query and the
/// mean time per decision of each kernel phase.
inline void AddDecisionPhases(const sbqa::core::ScoreKernelPhases& phases,
                              double finalized, RunOutcome* outcome) {
  const double d = static_cast<double>(phases.decisions);
  outcome->Add("decision.per_query", Ratio(d, finalized), "ratio");
  outcome->Add("decision.sample_ns", Ratio(phases.sample_ns, d), "ns");
  outcome->Add("decision.gather_ns", Ratio(phases.gather_ns, d), "ns");
  outcome->Add("decision.intentions_ns", Ratio(phases.intentions_ns, d), "ns");
  outcome->Add("decision.score_ns", Ratio(phases.score_ns, d), "ns");
  outcome->Add("decision.rank_ns", Ratio(phases.rank_ns, d), "ns");
}

/// Heap allocations of the whole process so far (the counting allocator
/// lives in main.cc, the one translation unit allowed to replace
/// operator new).
uint64_t AllocationsSoFar();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
