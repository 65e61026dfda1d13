#pragma once

/// \file charter/exec.hpp
/// Public module header: the batched execution layer (namespace
/// charter::exec) — BatchRunner, run caching, the strategy portfolio
/// (StrategyKind and the static per-family rule, plan_family), and the
/// per-run stats carried by every CharterReport.  Most callers never
/// touch this directly; charter::Session drives it — select a strategy
/// with SessionConfig::execution().strategy(...) and read the outcome
/// from CharterReport::exec_stats.

#include "exec/batch.hpp"
#include "exec/cache.hpp"
#include "exec/strategy.hpp"

namespace charter::exec {

/// The execution diagnostics every CharterReport carries
/// (CharterReport::exec_stats): cache-tier hits, checkpoint vs full runs,
/// per-strategy job classification (ExecStats::strategy_jobs), the
/// measured wall-clock of the executed routes (actual_ns), and adaptive
/// early-termination savings (trajectories_executed vs
/// trajectories_budgeted).
using ExecStats = BatchRunner::Stats;

}  // namespace charter::exec
