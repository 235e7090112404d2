#include "src/workload/open_loop.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

QueryType DrawOpenLoopType(const OpenLoopConfig& config, Rng& rng) {
  const double total = config.weight_aggregation + config.weight_random_walk +
                       config.weight_reachability;
  GROUTING_CHECK(total > 0.0);
  const double r = rng.NextDouble() * total;
  if (r < config.weight_aggregation) {
    return QueryType::kNeighborAggregation;
  }
  if (r < config.weight_aggregation + config.weight_random_walk) {
    return QueryType::kRandomWalk;
  }
  return QueryType::kReachability;
}

// Exponent of the bounded-Pareto session popularity within a tenant.
constexpr double kSessionSkew = 1.1;

// Bounded-Pareto session rank: P(rank >= k) ~ (k+1)^-kSessionSkew, clamped
// to the tenant's session space. Rank 0 is the tenant's hottest session.
uint64_t DrawSessionRank(uint64_t sessions, Rng& rng) {
  if (sessions <= 1) {
    return 0;
  }
  double u = rng.NextDouble();
  if (u < 1e-12) {
    u = 1e-12;
  }
  const double rank = std::pow(u, -1.0 / kSessionSkew) - 1.0;
  if (rank >= static_cast<double>(sessions - 1)) {
    return sessions - 1;
  }
  return static_cast<uint64_t>(rank);
}

// Stable (tenant, session) -> query node mapping: hot sessions re-read the
// same node for the whole run, which is what makes per-tenant heat real to
// the cache/placement layers below.
NodeId SessionNode(uint32_t tenant, uint64_t session, uint64_t seed,
                   uint64_t num_nodes) {
  SplitMix64 h(seed ^ (static_cast<uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL) ^
               (session * 0xbf58476d1ce4e5b9ULL));
  return static_cast<NodeId>(h.Next() % num_nodes);
}

}  // namespace

std::vector<double> TenantRateShares(uint32_t num_tenants, double skew) {
  GROUTING_CHECK(num_tenants > 0);
  std::vector<double> shares(num_tenants);
  double total = 0.0;
  for (uint32_t t = 0; t < num_tenants; ++t) {
    shares[t] = 1.0 / std::pow(static_cast<double>(t + 1), skew);
    total += shares[t];
  }
  for (auto& s : shares) {
    s /= total;
  }
  return shares;
}

std::vector<Query> GenerateOpenLoopWorkload(const Graph& g,
                                            const OpenLoopConfig& config) {
  GROUTING_CHECK(g.num_nodes() > 0);
  GROUTING_CHECK(config.num_tenants > 0);
  GROUTING_CHECK(config.arrival_rate_qps > 0.0);
  GROUTING_CHECK(config.sessions_per_tenant > 0);

  const auto shares = TenantRateShares(config.num_tenants, config.tenant_skew);
  std::vector<double> cdf(shares.size());
  double acc = 0.0;
  for (size_t t = 0; t < shares.size(); ++t) {
    acc += shares[t];
    cdf[t] = acc;
  }
  cdf.back() = 1.0;

  Rng rng(config.seed ^ 0x0be7a10adULL);
  std::vector<Query> queries;
  queries.reserve(config.num_arrivals);
  double now_us = 0.0;
  for (size_t i = 0; i < config.num_arrivals; ++i) {
    // Exponential inter-arrival gap of the merged process; the tiny floor
    // keeps timestamps strictly increasing.
    double u = rng.NextDouble();
    if (u > 1.0 - 1e-12) {
      u = 1.0 - 1e-12;
    }
    const double gap_us =
        std::max(1e-6, -std::log(1.0 - u) / config.arrival_rate_qps * 1e6);
    now_us += gap_us;

    const double pick = rng.NextDouble();
    const uint32_t tenant = static_cast<uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), pick) - cdf.begin());

    const uint64_t session = DrawSessionRank(config.sessions_per_tenant, rng);

    Query q;
    q.type = DrawOpenLoopType(config, rng);
    q.node = SessionNode(tenant, session, config.seed, g.num_nodes());
    q.hops = config.hops;
    q.restart_prob = config.restart_prob;
    q.seed = rng.Next();
    q.id = i;
    q.tenant = tenant;
    q.arrive_us = now_us;
    if (q.type == QueryType::kReachability) {
      // Uniform targets (no neighbourhood bias): reachability cost stays
      // independent of session heat, and generation stays O(1) per arrival
      // so millions-session schedules are cheap to produce.
      q.target = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    }
    queries.push_back(q);
  }
  return queries;
}

}  // namespace grouting
