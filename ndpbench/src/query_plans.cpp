// query-plans: compiled plans, HW-offloaded, at 1/16 scale.
//
// Plans: edge_cut and early_count from the suite; recent_top as in the
// suite plus a seeded one-paper exclusion; and two benchmark-owned
// variants of hot_window and venue_hot that return rows
// (the suite versions return none at this scale: no paper has n_cited >=
// 50, and no venue sums to 1,000 citations). Only here does the query
// layer do the work: the executor rebuilds a store per leaf, then runs a
// hash-join / group / top-k tail over up to 2,359,471 refs rows.
//
// The plans run on the executor's own dataset (default generator seed), so
// the seed varies the plans instead: it picks the venue window of the two
// owned plans, and one recent paper that recent_top excludes (id ne X), so
// its result and virtual time vary by a row while its work stays. Expected
// answers are computed in linear time from the generated records,
// independently of the store, the executor and the plan compiler.
#include <algorithm>
#include <string>

#include "harness.hpp"
#include "query/compiler.hpp"
#include "query/executor.hpp"
#include "query/plan_parser.hpp"
#include "query/plan_suite.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

constexpr std::uint64_t kScale = 16;
constexpr std::uint64_t kVenues = 12'000;  // PubGraphConfig::venues.
constexpr std::uint64_t kVenueWindow = kVenues / 2;

struct PlanCase {
  std::string name;
  std::string source;
  bool ordered = false;  ///< Row order is part of the answer (top-k).
  std::vector<query::Row> expected;
};

/// The executor's dataset, decoded independently of the store: papers by
/// id - 1 and the deduplicated (src, dst) edges in key order.
struct Dataset {
  std::vector<PaperFields> papers;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> refs;
};

Dataset generate_dataset() {
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = kScale});
  Dataset data;
  data.papers.reserve(generator.paper_count());
  for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
    data.papers.push_back(fields_of(generator.paper(i)));
  }
  data.refs.reserve(generator.ref_count());
  for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
    const workload::RefRecord ref = generator.ref(i);
    const std::pair<std::uint64_t, std::uint64_t> edge{ref.src, ref.dst};
    // The generator may repeat an edge; the refs store keeps one copy.
    if (data.refs.empty() || data.refs.back() < edge) data.refs.push_back(edge);
  }
  return data;
}

/// Top-k order of the executor: `order` column descending, then the
/// whole row ascending.
void top_k(std::vector<query::Row>& rows, std::size_t order, std::size_t k) {
  std::sort(rows.begin(), rows.end(),
            [order](const query::Row& a, const query::Row& b) {
              return a[order] != b[order] ? a[order] > b[order] : a < b;
            });
  if (rows.size() > k) rows.resize(k);
}

std::vector<PlanCase> make_cases(const Dataset& data, std::uint64_t seed) {
  const auto suite = [](const char* name) {
    const query::NamedPlan* plan = query::find_plan(name);
    return plan == nullptr ? std::string() : plan->source;
  };
  const std::uint64_t v = InputRng(mix64(seed ^ 0x71756572'79706c61ULL))
                              .below(kVenues - kVenueWindow);
  const std::string window = "venue_id ge " + std::to_string(v) +
                             ", venue_id lt " +
                             std::to_string(v + kVenueWindow);
  // recent_top's inputs: the citing refs per paper, and the recent papers
  // the join can return.
  std::vector<std::uint64_t> cited(data.papers.size() + 1, 0);
  for (const auto& [src, dst] : data.refs) ++cited[dst];
  std::vector<std::uint64_t> recent_ids;
  for (const PaperFields& p : data.papers) {
    if (p.year >= 2015 && cited[p.id] > 0) recent_ids.push_back(p.id);
  }
  const std::uint64_t excluded =
      recent_ids[InputRng(mix64(seed ^ 0x72656365'6e74746fULL))
                     .below(recent_ids.size())];

  std::vector<PlanCase> cases = {
      {"recent_top",
       "plan RecentTop {\n  scan papers;\n  filter year ge 2015, id ne " +
           std::to_string(excluded) +
           ";\n  join refs on id eq dst;\n  aggregate count group id;\n"
           "  topk 100 by count desc;\n}\n",
       true,
       {}},
      {"edge_cut", suite("edge_cut"), false, {}},
      {"early_count", suite("early_count"), true, {}},
      {"hot_window_rows",
       "plan HotWindowRows {\n  scan papers;\n  filter year ge 2000, " +
           window + ", n_cited ge 15;\n  project id, year, n_cited;\n}\n",
       false,
       {}},
      {"venue_hot_rows",
       "plan VenueHotRows {\n  scan papers;\n  filter n_cited ge 10, " +
           window +
           ";\n  aggregate sum n_cited group venue_id;\n"
           "  filter sum_n_cited ge 200;\n"
           "  topk 20 by sum_n_cited desc;\n}\n",
       true,
       {}},
  };

  // recent_top: recent papers joined to the refs citing them, counted per
  // paper, top 100 by count.
  for (const std::uint64_t id : recent_ids) {
    if (id != excluded) cases[0].expected.push_back({id, cited[id]});
  }
  top_k(cases[0].expected, 1, 100);

  // edge_cut: src <= 500 and dst > 100.
  for (const auto& [src, dst] : data.refs) {
    if (src <= 500 && dst > 100) cases[1].expected.push_back({src, dst});
  }

  // early_count: count(year < 1960).
  std::uint64_t early = 0;
  for (const PaperFields& p : data.papers) early += p.year < 1960 ? 1 : 0;
  cases[2].expected = {{early}};

  // hot_window_rows and venue_hot_rows share the seeded venue window.
  std::vector<std::uint64_t> venue_sum(kVenues, 0);
  for (const PaperFields& p : data.papers) {
    if (p.venue_id < v || p.venue_id >= v + kVenueWindow) continue;
    if (p.year >= 2000 && p.n_cited >= 15) {
      cases[3].expected.push_back({p.id, p.year, p.n_cited});
    }
    if (p.n_cited >= 10) venue_sum[p.venue_id] += p.n_cited;
  }
  for (std::uint64_t venue = 0; venue < kVenues; ++venue) {
    if (venue_sum[venue] >= 200) {
      cases[4].expected.push_back({venue, venue_sum[venue]});
    }
  }
  top_k(cases[4].expected, 1, 20);

  for (PlanCase& c : cases) {
    if (!c.ordered) std::sort(c.expected.begin(), c.expected.end());
  }
  return cases;
}

class QueryPlans final : public Workload {
 public:
  explicit QueryPlans(const Options& options) : options_(options) {
    cases_ = make_cases(generate_dataset(), options.seed);
    if (options_.corrupt_oracle) ++cases_[2].expected.front().front();
  }

  void setup(Tracer& tracer) override {
    const Scope scope(tracer, "query.compile");
    compiled_.clear();
    for (const PlanCase& c : cases_) {
      auto plan = query::parse_plan(c.source);
      auto compiled = query::compile_plan(plan.value_or_raise());
      compiled_.push_back(std::move(compiled.value_or_raise()));
    }
  }

  std::vector<double> run(Tracer& tracer, Ledger& ledger) override {
    query::QueryExecOptions exec;
    exec.scale_divisor = kScale;
    exec.pes = 1;
    exec.sim_mode = hwsim::SimMode::kFast;

    std::vector<double> parts;  // One per plan.
    std::vector<std::uint64_t> latency_ns;
    std::uint64_t virtual_ns = 0;
    Values& c = outcome_.counts;
    c.clear();
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      query::QueryStats stats;
      double wall = 0.0;
      query::ResultTable table =
          timed(tracer, "query.execute." + cases_[i].name, wall, [&] {
            return query::execute_plan(compiled_[i], exec, &stats);
          });
      parts.push_back(wall);
      latency_ns.push_back(stats.elapsed());
      virtual_ns += stats.elapsed();
      if (!cases_[i].ordered) std::sort(table.rows.begin(), table.rows.end());
      ledger.check(compiled_[i].any_offloaded() &&
                       table.rows == cases_[i].expected,
                   "plan " + cases_[i].name);

      c["query.rows_out"] += static_cast<double>(stats.rows_out);
      c["query.device_ms"] += ms(stats.device_ns);
      c["query.host_ms"] += ms(stats.host_ns);
      for (const query::LeafRunStats& leaf : stats.leaves) {
        c["query.records_loaded"] += static_cast<double>(leaf.records_loaded);
        c["ndp.tuples_scanned"] += static_cast<double>(leaf.tuples_scanned);
        c["ndp.results"] += static_cast<double>(leaf.rows_out);
        c["kv.sst_blocks_read"] += static_cast<double>(leaf.blocks);
      }
    }
    c["ndp.match_frac"] = c["ndp.results"] / c["ndp.tuples_scanned"];
    outcome_.e2e = closed_loop_virtual(latency_ns, virtual_ns,
                                       latency_ns.size());
    return parts;
  }

  [[nodiscard]] VirtualOutcome outcome() const override { return outcome_; }

  Values layer_metrics(const Tracer& tracer, Ledger& /*ledger*/) override {
    Values out;
    out["query.compile_s"] = tracer.total("query.compile");
    for (const PlanCase& c : cases_) {
      out["query.execute_s." + c.name] =
          tracer.total("query.execute." + c.name);
    }
    return out;
  }

 private:
  Options options_;
  std::vector<PlanCase> cases_;
  std::vector<query::CompiledPlan> compiled_;
  VirtualOutcome outcome_;
};

}  // namespace

std::unique_ptr<Workload> make_query_plans(const Options& options) {
  return std::make_unique<QueryPlans>(options);
}

}  // namespace ndpbench
