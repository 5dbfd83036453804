// mdst_perfbench, the repo benchmark: runs one named workload through
// libmdst's public entry points and prints its metrics (README.md has the
// workloads, the metric definitions and the layer -> end-to-end map).
//
//   mdst_perfbench --workload converge --seed 7 --seconds 16 --trace 0
//
// A run is a fixed number of *passes* of the workload's campaign grid,
// sized to --seconds, each with its own base_seed drawn from --seed. A pass
// is what a user's campaign does: parse the spec, expand it, open the
// CSV/JSONL sinks, run every trial on a closed loop of client threads (a
// client takes its next trial only when its previous one has finished) and
// commit outcomes to the sinks in grid order. Unlike campaign::run_campaign,
// a trial that throws (e.g. hits the message cap), wedges or fails a
// correctness check is counted as failed instead of aborting the grid.
//
// --trace 0 reports the end-to-end metrics, pooled over the passes.
// --trace 1 runs each pass untraced and then as a traced replay that
// runs the same trials as the individual layer calls with a span around
// each, checks that the replay reproduces the untraced rows, and reports
// the per-layer metrics. Spans are kept in memory and written once, at exit.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// The exit code is nonzero when any correctness check failed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/pipeline.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "graph/spanning_builders.hpp"
#include "mdst/bounds.hpp"
#include "mdst/checker.hpp"
#include "mdst/engine.hpp"
#include "spanning/flood_st.hpp"
#include "spanning/ghs_mst.hpp"
#include "support/resource.hpp"
#include "support/rng.hpp"

namespace {

using namespace mdst;
std::uint64_t now_ns() { return support::monotonic_ns(); }

// ------------------------------------------------------------ workloads ---

// --seed when none is given (the campaign layer's default base_seed).
constexpr std::uint64_t kDefaultSeed = 0x5eed;

struct Workload {
  const char* name;
  unsigned clients;
  // Wall time of one untraced pass on the reference host (README.md);
  // sets how many passes a run of --seconds makes.
  double pass_seconds;
  // Spec body (everything but name/base_seed); `mini` is the seconds-long
  // miniature the benchmark's own tests run.
  std::string (*body)(bool mini);
};

std::string converge_body(bool mini) {
  // Full convergence from the adversarial star start: ~0.37 n rounds of
  // Θ(m) messages each, the Θ(n) round wall the engine has to climb.
  return std::string("families = gnp_sparse, geometric\n") +
         (mini ? "sizes = 128\nreps = 1\n" : "sizes = 1024\nreps = 4\n") +
         "delays = unit\nstartups = flood_st\ninitial_trees = star\n"
         "modes = single\n";
}

std::string sweep_body(bool mini) {
  // The paper-table use case: many small trials, both startup protocols,
  // non-unit delays (calendar-queue overflow and FIFO-floor paths).
  if (mini) {
    return "families = gnp_sparse, hypercube\nsizes = 32\n"
           "delays = unit, uniform(1,10)\nstartups = flood_st, ghs_mst\n"
           "modes = single\nreps = 1\n";
  }
  return "families = gnp_sparse, geometric, small_world, hypercube, "
         "barabasi_albert\nsizes = 64, 128, 256\n"
         "delays = unit, uniform(1,10), heavy_tail(0.2)\n"
         "startups = flood_st, ghs_mst\nmodes = single\nreps = 4\n";
}

std::string adversity_body(bool mini) {
  // Fault injection plus the self-healing layer, which every other
  // workload bypasses. Recovery traffic is most of every cell's messages,
  // fault-free cells included (the recovery layer's false re-elections).
  // n = 96 and unit delays keep the grid's cost steady across seeds: at
  // n = 64 cheap and expensive cells split the trial-time distribution in
  // two, and at n = 128 with uniform(1,4) delays churn cells hit the
  // message cap (README.md has that grid).
  if (mini) {
    return "families = gnp_sparse\nsizes = 32\ndelays = unit\n"
           "startups = flood_st\nmodes = single\n"
           "faults = none, loss(0.05), crash(8,1)\nrecovery = on\n"
           "arq_backoff = exp\nmax_rounds = 400\nreps = 1\n";
  }
  return "families = gnp_sparse\nsizes = 96\ndelays = unit\n"
         "startups = flood_st\nmodes = single\n"
         "faults = none, loss(0.05), churn(6,2), crash(8,1), corrupt(8,2)\n"
         "recovery = on\narq_backoff = exp\nmax_rounds = 400\nreps = 6\n";
}

std::string large_n_body(bool mini) {
  // The only workload where the O(n·m) lower bound dominates and where
  // per-node memory is large enough to show in peak RSS. target_degree
  // bounds the protocol work (full convergence is Θ(n²) messages); from a
  // bfs start (max degree 13-18) a target of 12 leaves 1-6 rounds per
  // trial, too few for steady counts, so the target is 10.
  return std::string("families = streamed_sparse\n") +
         (mini ? "sizes = 1024\nreps = 1\n" : "sizes = 4096\nreps = 8\n") +
         "delays = unit\nstartups = flood_st\ninitial_trees = bfs\n"
         "modes = single\ntarget_degree = 10\n"
         "annotation_cap = 4096\nmax_messages = 1000000000000\n";
}

const Workload kWorkloads[] = {
    {"converge", 2, 1.2, converge_body},
    {"sweep", 2, 1.3, sweep_body},
    {"adversity", 4, 2.7, adversity_body},
    {"large_n", 2, 2.7, large_n_body},
};

// --------------------------------------------------------------- spans ---

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t trial = -1;
};

// In-memory span store shared by the clients; written out once at exit.
class SpanLog {
 public:
  std::uint32_t next_id() { return next_.fetch_add(1) + 1; }
  void add(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }
  void write(const std::string& path, std::uint64_t origin_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::sort(records_.begin(), records_.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.id < b.id;
              });
    std::ofstream out(path);
    for (const SpanRecord& r : records_) {
      out << "{\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"name\":\"" << r.name << "\",\"start_ns\":"
          << r.start_ns - origin_ns << ",\"end_ns\":" << r.end_ns - origin_ns
          << ",\"trial\":" << r.trial << "}\n";
    }
  }

 private:
  std::atomic<std::uint32_t> next_{0};
  std::mutex mutex_;
  std::deque<SpanRecord> records_;
};

// RAII span; a null log makes it a plain stopwatch.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint32_t parent,
       std::int64_t trial)
      : log_(log) {
    record_.id = log != nullptr ? log->next_id() : 0;
    record_.parent = parent;
    record_.name = name;
    record_.trial = trial;
    record_.start_ns = now_ns();
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return record_.id; }
  std::uint64_t close() {
    if (!closed_) {
      closed_ = true;
      record_.end_ns = now_ns();
      if (log_ != nullptr) log_->add(record_);
    }
    return record_.end_ns - record_.start_ns;
  }

 private:
  SpanLog* log_;
  SpanRecord record_;
  bool closed_ = false;
};

// -------------------------------------------------------------- trials ---

enum class Status { kOk, kThrew, kCapped, kWedged, kCheckFailed };

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kThrew: return "threw";
    case Status::kCapped: return "capped";
    case Status::kWedged: return "wedged";
    case Status::kCheckFailed: return "check_failed";
  }
  return "?";
}

// Everything one trial contributes to the metrics. `tree` through `memory`
// come from the engine's RunResult; the *_ns layer times only from the
// traced replay.
struct TrialRecord {
  Status status = Status::kOk;
  std::string error;
  campaign::TrialOutcome outcome;
  graph::RootedTree tree;
  std::uint64_t max_ids = 0;
  std::uint64_t bits = 0;
  std::uint64_t in_flight_peak = 0;
  std::uint64_t search_msgs = 0, move_msgs = 0, wave_msgs = 0,
                choose_msgs = 0;
  sim::MemoryReport memory;
  std::uint64_t start_ns = 0, end_ns = 0;  // client-side wall of the trial
  std::uint64_t gen_ns = 0, init_tree_ns = 0, startup_ns = 0, lb_ns = 0,
                run_ns = 0, free_ns = 0, covered_ns = 0;

  bool completed() const {
    return status == Status::kOk || status == Status::kWedged ||
           status == Status::kCheckFailed;
  }
  std::uint64_t wall_ns() const { return end_ns - start_ns; }
};

void absorb_run(core::RunResult& run, TrialRecord& rec) {
  rec.tree = std::move(run.tree);
  rec.max_ids = run.metrics.max_ids_carried();
  rec.bits = run.metrics.total_bits();
  for (const sim::RoundTelemetry& row : run.round_telemetry) {
    rec.in_flight_peak = std::max(rec.in_flight_peak, row.in_flight_peak);
  }
  for (const core::RoundStats& row : run.round_stats) {
    rec.search_msgs += row.search_msgs;
    rec.move_msgs += row.move_msgs;
    rec.wave_msgs += row.wave_msgs;
    rec.choose_msgs += row.choose_msgs;
  }
  rec.memory = run.memory;
}

void classify_exception(const std::exception& e, TrialRecord& rec) {
  rec.error = e.what();
  rec.status = rec.error.find("message cap exceeded") != std::string::npos
                   ? Status::kCapped
                   : Status::kThrew;
}

// Untraced trial: the campaign layer's own single-trial entry point.
TrialRecord plain_trial(const campaign::CampaignSpec& spec,
                        const campaign::Trial& trial) {
  TrialRecord rec;
  rec.start_ns = now_ns();
  try {
    {
      // Freeing the RunResult is part of the trial, as in run_campaign.
      core::RunResult run;
      rec.outcome = campaign::run_campaign_trial(
          spec, trial, campaign::TrialInstruments{}, &run);
      absorb_run(run, rec);
    }
    rec.end_ns = now_ns();
    if (rec.outcome.wedged()) rec.status = Status::kWedged;
  } catch (const std::exception& e) {
    rec.end_ns = now_ns();
    classify_exception(e, rec);
  }
  rec.outcome.trial = trial;
  return rec;
}

graph::InitialTreeKind initial_tree_kind(const std::string& token) {
  for (const graph::InitialTreeKind kind :
       {graph::InitialTreeKind::kBfs, graph::InitialTreeKind::kDfs,
        graph::InitialTreeKind::kRandom, graph::InitialTreeKind::kMst,
        graph::InitialTreeKind::kStarBiased}) {
    if (token == graph::to_string(kind)) return kind;
  }
  throw std::runtime_error("unknown initial_tree '" + token + "'");
}

// Traced trial: the same trial as campaign::run_campaign_trial, made of
// the individual layer calls with a span around each. Options, SimConfig
// and seed derivations mirror runner.cpp / pipeline.cpp; the replay's
// deterministic counts are compared with the untraced run's, so any drift
// from those derivations shows up as a failed check, not as silently
// different work.
TrialRecord traced_trial(const campaign::CampaignSpec& spec,
                         const campaign::Trial& trial, SpanLog& log,
                         std::uint32_t parent) {
  TrialRecord rec;
  campaign::TrialOutcome& out = rec.outcome;
  out.trial = trial;
  const auto idx = static_cast<std::int64_t>(trial.index);
  Span trial_span(&log, "trial", parent, idx);
  rec.start_ns = now_ns();
  try {
    analysis::TrialSpec instance;
    instance.family = trial.family;
    instance.n = trial.n;
    instance.base_seed = spec.base_seed;
    instance.repetition = trial.repetition;
    std::optional<graph::Graph> built;
    {
      Span s(&log, "graph.build_instance", trial_span.id(), idx);
      built.emplace(analysis::build_instance(instance));
      rec.gen_ns = s.close();
    }
    const graph::Graph& g = *built;

    core::Options options;
    options.mode = trial.mode;
    options.max_rounds = spec.max_rounds;
    options.target_degree = spec.target_degree;
    options.recovery.enabled = spec.recovery;
    sim::SimConfig config;
    config.delay = trial.delay.model;
    config.seed = support::derive_seed(spec.base_seed ^ 0x51u, trial.n,
                                       trial.repetition);
    if (spec.max_messages != 0) config.max_messages = spec.max_messages;
    config.annotation_cap = spec.annotation_cap;
    config.fifo_links = spec.fifo_links;
    config.start_spread = spec.start_spread;
    config.shards = spec.shards;
    if (trial.fault.active()) {
      config.faults = trial.fault.plan;
      config.faults.seed = support::derive_seed(spec.base_seed ^ 0xf417u,
                                                trial.n, trial.repetition);
      config.faults.arq_backoff = spec.arq_backoff;
    }

    out.n_actual = g.vertex_count();
    out.m = g.edge_count();
    {
      Span s(&log, "mdst.lower_bound", trial_span.id(), idx);
      out.lower_bound = core::degree_lower_bound(g);
      rec.lb_ns = s.close();
    }

    graph::RootedTree initial;
    if (trial.initial_tree == "startup") {
      sim::SimConfig startup_config = config;
      startup_config.faults = sim::FaultPlan{};
      Span s(&log, "spanning.startup", trial_span.id(), idx);
      spanning::SpanningRun startup;
      if (trial.startup == analysis::StartupProtocol::kFloodSt) {
        sim::NodeId initiator = g.vertex_by_name(0);
        if (initiator == sim::kNoNode) initiator = 0;
        startup = spanning::run_flood_st(g, initiator, startup_config);
      } else if (trial.startup == analysis::StartupProtocol::kGhsMst) {
        startup = spanning::run_ghs_mst(g, startup_config.seed ^ 0x6057,
                                        startup_config);
      } else {
        throw std::runtime_error("traced replay supports flood_st and "
                                 "ghs_mst startups only");
      }
      rec.startup_ns = s.close();
      out.startup_messages = startup.metrics.total_messages();
      out.startup_time = startup.metrics.max_causal_depth();
      initial = std::move(startup.tree);
    } else {
      Span s(&log, "graph.initial_tree", trial_span.id(), idx);
      support::Rng tree_rng(support::derive_seed(
          spec.base_seed ^ 0xabcdef, std::hash<std::string>{}(trial.family),
          trial.n, trial.repetition));
      initial = graph::build_initial_tree(
          g, initial_tree_kind(trial.initial_tree), tree_rng);
      rec.init_tree_ns = s.close();
    }

    // The span also covers freeing the RunResult, which is part of the
    // trial's wall time.
    Span s(&log, "mdst.run_mdst", trial_span.id(), idx);
    try {
      core::RunResult run = core::run_mdst(g, initial, options, config);
      out.k_init = run.initial_degree;
      out.k_final = run.final_degree;
      out.rounds = run.rounds;
      out.improvements = run.improvements;
      out.stop_reason = run.stop_reason;
      out.mdst_messages = run.metrics.total_messages();
      out.mdst_time = run.metrics.max_causal_depth();
      out.outcome = run.outcome;
      out.retransmits = run.fault_stats.retransmits;
      out.dropped_deliveries = run.fault_stats.dropped_deliveries;
      out.re_elections = run.recovery.re_elections;
      out.recovery_msgs = run.recovery.recovery_messages;
      absorb_run(run, rec);
      if (out.wedged()) rec.status = Status::kWedged;
    } catch (...) {
      rec.run_ns = s.close();
      throw;
    }
    rec.run_ns = s.close();
    Span free(&log, "graph.free", trial_span.id(), idx);
    initial = graph::RootedTree{};
    built.reset();
    rec.free_ns = free.close();
  } catch (const std::exception& e) {
    classify_exception(e, rec);
  }
  rec.end_ns = now_ns();
  trial_span.close();
  rec.covered_ns = rec.gen_ns + rec.lb_ns + rec.startup_ns +
                   rec.init_tree_ns + rec.run_ns + rec.free_ns;
  return rec;
}

// ------------------------------------------------------ correctness ---

// Checks the paper's guarantees on one completed trial; returns the first
// violation, or "" when the trial passes.
std::string check_trial(const campaign::CampaignSpec& spec,
                        const TrialRecord& rec) {
  if (!rec.completed() || rec.status == Status::kWedged) return "";
  const campaign::TrialOutcome& o = rec.outcome;
  if (o.k_final > o.k_init) {
    return "k_final " + std::to_string(o.k_final) + " > k_init " +
           std::to_string(o.k_init);
  }
  if (o.k_final < o.lower_bound) {
    return "k_final " + std::to_string(o.k_final) + " < lower bound " +
           std::to_string(o.lower_bound);
  }
  if (!o.trial.fault.active() &&
      o.trial.mode == core::EngineMode::kSingleImprovement &&
      rec.max_ids > 4) {
    return "a message carried " + std::to_string(rec.max_ids) +
           " identities (paper: at most 4)";
  }
  if (rec.tree.vertex_count() == 0) return "";
  analysis::TrialSpec instance;
  instance.family = o.trial.family;
  instance.n = o.trial.n;
  instance.base_seed = spec.base_seed;
  instance.repetition = o.trial.repetition;
  const graph::Graph g = analysis::build_instance(instance);
  if (!rec.tree.spans(g)) return "returned tree does not span the graph";
  if (o.stop_reason == core::StopReason::kLocallyOptimal &&
      !core::local_optimality(g, rec.tree).any_blocked()) {
    return "locally_optimal stop with no blocked max-degree vertex";
  }
  return "";
}

// ---------------------------------------------------------------- pass ---

struct PassResult {
  std::vector<TrialRecord> trials;
  std::uint64_t wall_ns = 0;
  std::uint64_t setup_ns = 0;  // pass start until its first client runs
  std::uint64_t spec_ns = 0;   // parse_spec + expand
  std::uint64_t sink_ns = 0;   // sink open/begin/add/finish
  std::uint64_t sink_bytes = 0;
  unsigned clients = 1;
  std::uint64_t digest = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Digest of the deterministic row columns, in grid order; a change meant
// only to speed the simulator up must leave it unchanged.
std::uint64_t digest_of(const std::vector<TrialRecord>& trials) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const TrialRecord& rec : trials) {
    if (rec.completed()) {
      for (const auto& [key, value] : campaign::outcome_fields(rec.outcome)) {
        h = fnv1a(h, key + "=" + value + ";");
      }
    } else {
      // Not the error text: it names the library's source path.
      h = fnv1a(h, std::to_string(rec.outcome.trial.index) + ":" +
                       to_string(rec.status) + ";");
    }
  }
  return h;
}

// What a campaign holds open before its first trial is dispatched. The
// sinks write to memory: file-system latency on this kind of host swings
// by 4x from run to run and would drown the library's own set-up and
// formatting cost. run_pass writes the rows to files afterwards, untimed.
struct OpenCampaign {
  campaign::CampaignSpec spec;
  std::vector<campaign::Trial> trials;
  std::ostringstream csv_out, jsonl_out;
  std::optional<campaign::CsvSink> csv;
  std::optional<campaign::JsonlSink> jsonl;
};

// Parse and expand the spec, open the sinks; spans go under `root`.
void open_campaign(OpenCampaign& c, const std::string& spec_text,
                   SpanLog* log, std::uint32_t root, PassResult& pass) {
  {
    Span s(log, "campaign.parse_spec", root, -1);
    campaign::ParseResult parsed = campaign::parse_spec(spec_text);
    if (!parsed.ok) throw std::runtime_error("spec: " + parsed.error);
    c.spec = std::move(parsed.spec);
    c.trials = campaign::expand(c.spec);
    pass.spec_ns = s.close();
  }
  Span s(log, "campaign.sink_open", root, -1);
  c.csv.emplace(c.csv_out);
  c.jsonl.emplace(c.jsonl_out);
  c.csv->begin(c.spec, c.trials.size());
  c.jsonl->begin(c.spec, c.trials.size());
  pass.sink_ns += s.close();
}

// One pass of the workload grid. `log` non-null selects the traced replay.
PassResult run_pass(const std::string& spec_text, const std::string& out_dir,
                    unsigned clients, SpanLog* log) {
  PassResult pass;
  const std::uint64_t t0 = now_ns();
  Span pass_span(log, log != nullptr ? "pass.traced" : "pass", 0, -1);
  const std::uint32_t root = pass_span.id();
  OpenCampaign c;
  open_campaign(c, spec_text, log, root, pass);
  const campaign::CampaignSpec& spec = c.spec;
  const std::vector<campaign::Trial>& trials = c.trials;

  clients = std::max(1u, std::min<unsigned>(
                             clients, static_cast<unsigned>(trials.size())));
  pass.clients = clients;
  pass.trials.resize(trials.size());
  std::vector<char> ready(trials.size(), 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> first_running{0};
  std::mutex mutex;
  std::condition_variable slot_ready;

  // Closed loop: each client claims its next trial only after finishing
  // the previous one. run_*_trial never throws (failures are recorded).
  const auto client = [&] {
    std::uint64_t none = 0;
    first_running.compare_exchange_strong(none, now_ns());
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= trials.size()) return;
      TrialRecord rec = log != nullptr
                            ? traced_trial(spec, trials[i], *log, root)
                            : plain_trial(spec, trials[i]);
      {
        std::lock_guard<std::mutex> lock(mutex);
        pass.trials[i] = std::move(rec);
        ready[i] = 1;
      }
      slot_ready.notify_all();
    }
  };
  // jthread: the clients are joined on every path out, exceptions too.
  std::vector<std::jthread> pool;
  pool.reserve(clients);
  for (unsigned k = 0; k < clients; ++k) pool.emplace_back(client);

  // Commit in grid order; failed trials have no row to commit.
  for (std::size_t i = 0; i < trials.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      slot_ready.wait(lock, [&] { return ready[i] != 0; });
    }
    const TrialRecord& rec = pass.trials[i];
    if (!rec.completed()) continue;
    Span s(log, "campaign.sink_add", root, static_cast<std::int64_t>(i));
    c.csv->add(rec.outcome);
    c.jsonl->add(rec.outcome);
    pass.sink_ns += s.close();
  }
  pool.clear();
  pass.setup_ns = first_running.load() - t0;
  {
    Span s(log, "campaign.sink_finish", root, -1);
    c.csv->finish();
    c.jsonl->finish();
    pass.sink_ns += s.close();
  }
  pass.wall_ns = now_ns() - t0;
  pass_span.close();
  const std::string csv = c.csv_out.str(), jsonl = c.jsonl_out.str();
  pass.sink_bytes = csv.size() + jsonl.size();
  std::ofstream(out_dir + "/rows.csv", std::ios::trunc) << csv;
  std::ofstream(out_dir + "/rows.jsonl", std::ios::trunc) << jsonl;

  // Correctness checks run outside the timed pass, on the same clients.
  std::atomic<std::size_t> next_check{0};
  const auto checker = [&] {
    for (;;) {
      const std::size_t i = next_check.fetch_add(1);
      if (i >= pass.trials.size()) return;
      TrialRecord& rec = pass.trials[i];
      const std::string failure = check_trial(spec, rec);
      if (!failure.empty()) {
        rec.status = Status::kCheckFailed;
        rec.error = failure;
      }
      // Passes are kept for the run's metrics; drop what only the checks
      // need.
      rec.tree = graph::RootedTree{};
      rec.outcome.wedge = sim::WedgeReport{};
    }
  };
  for (unsigned k = 0; k < clients; ++k) pool.emplace_back(checker);
  pool.clear();
  pass.digest = digest_of(pass.trials);
  return pass;
}

// ------------------------------------------------------------- metrics ---

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Per-trial wall at the highest percentile that has at least 10 trials
// beyond it. Below 40 trials that percentile is under p75, no tail at all,
// so the slowest trial is reported instead.
double tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 40) return v.back();
  return v[v.size() - 11];
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
          << (std::isfinite(e.value) ? e.value : 0.0) << ", \"unit\": \""
          << e.unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Every pass of a run samples different instances, so the metrics pool
// all passes: ratios are taken over run totals, percentiles over all trials.
void end_to_end(const std::vector<PassResult>& passes, Report& report) {
  double trials = 0, failed = 0, completed = 0, wall_ns = 0;
  double messages = 0, causal = 0, rounds = 0, k_final = 0, gap = 0;
  std::vector<double> setup_s, trial_ms;
  for (const PassResult& pass : passes) {
    wall_ns += static_cast<double>(pass.wall_ns);
    setup_s.push_back(static_cast<double>(pass.setup_ns) / 1e9);
    for (const TrialRecord& rec : pass.trials) {
      trials += 1;
      trial_ms.push_back(ms(rec.wall_ns()));
      if (rec.status != Status::kOk) failed += 1;
      if (!rec.completed()) continue;
      const campaign::TrialOutcome& o = rec.outcome;
      completed += 1;
      messages += static_cast<double>(o.total_messages());
      causal += static_cast<double>(o.total_time());
      rounds += o.rounds;
      k_final += o.k_final;
      gap += o.gap();
    }
  }
  const double wall_s = wall_ns / 1e9;
  const double c = std::max(1.0, completed);
  report.add("wall_s", wall_s / static_cast<double>(passes.size()), "s");
  report.add("setup_s", median(setup_s), "s");
  report.add("trials_per_s", trials / wall_s, "1/s");
  report.add("trial_ms_p50", median(trial_ms), "ms");
  report.add("trial_ms_tail", tail(trial_ms), "ms");
  report.add("sim_msgs_per_s", messages / wall_s, "1/s");
  report.add("peak_rss_mb",
             static_cast<double>(support::peak_rss_bytes()) / 1e6, "MB");
  report.add("messages", messages / c, "count");
  report.add("causal_time", causal / c, "count");
  report.add("rounds", rounds / c, "count");
  report.add("final_degree_mean", k_final / c, "count");
  report.add("gap_mean", gap / c, "count");
  report.add("ok_frac", (trials - failed) / trials, "fraction");
}

// Per-layer metrics pooled over the traced passes. Event counters
// (re-elections, retransmits, ...) are per pass; sizes and times per trial.
void layer_metrics(const std::vector<PassResult>& passes, Report& r) {
  double trial_ns = 0, gen = 0, init = 0, startup = 0, lb = 0, run = 0;
  double edges = 0, startup_msgs = 0, mdst_msgs = 0, rounds = 0,
         improvements = 0, round_edges = 0;
  double search = 0, move = 0, wave = 0, choose = 0, max_ids = 0;
  double re_elections = 0, false_re = 0, recovery = 0;
  double bits = 0, in_flight = 0, per_node = 0, node_bytes = 0,
         queue_bytes = 0, retx = 0, dropped = 0, wedged = 0, capped = 0;
  double coverage = 1.0, n = 0, spec_ns = 0, sink_ns = 0, sink_bytes = 0,
         client_ns = 0;
  const double np = static_cast<double>(passes.size());
  for (const PassResult& pass : passes) {
    spec_ns += static_cast<double>(pass.spec_ns);
    sink_ns += static_cast<double>(pass.sink_ns);
    sink_bytes += static_cast<double>(pass.sink_bytes);
    client_ns += static_cast<double>(pass.clients) *
                 static_cast<double>(pass.wall_ns);
    n += static_cast<double>(pass.trials.size());
    for (const TrialRecord& rec : pass.trials) {
      trial_ns += static_cast<double>(rec.wall_ns());
      gen += static_cast<double>(rec.gen_ns);
      init += static_cast<double>(rec.init_tree_ns);
      startup += static_cast<double>(rec.startup_ns);
      lb += static_cast<double>(rec.lb_ns);
      run += static_cast<double>(rec.run_ns);
      coverage = std::min(coverage, ratio(static_cast<double>(rec.covered_ns),
                                          static_cast<double>(rec.wall_ns())));
      if (rec.status == Status::kCapped) capped += 1;
      if (rec.status == Status::kWedged) wedged += 1;
      const campaign::TrialOutcome& o = rec.outcome;
      edges += static_cast<double>(o.m);
      if (!rec.completed()) continue;
      startup_msgs += static_cast<double>(o.startup_messages);
      mdst_msgs += static_cast<double>(o.mdst_messages);
      rounds += o.rounds;
      round_edges += static_cast<double>(o.rounds) * static_cast<double>(o.m);
      improvements += static_cast<double>(o.improvements);
      search += static_cast<double>(rec.search_msgs);
      move += static_cast<double>(rec.move_msgs);
      wave += static_cast<double>(rec.wave_msgs);
      choose += static_cast<double>(rec.choose_msgs);
      max_ids = std::max(max_ids, static_cast<double>(rec.max_ids));
      re_elections += static_cast<double>(o.re_elections);
      if (!o.trial.fault.active()) {
        false_re += static_cast<double>(o.re_elections);
      }
      recovery += static_cast<double>(o.recovery_msgs);
      bits += static_cast<double>(rec.bits);
      in_flight = std::max(in_flight, static_cast<double>(rec.in_flight_peak));
      per_node = std::max(per_node, ratio(static_cast<double>(
                                              rec.memory.total()),
                                          static_cast<double>(o.n_actual)));
      node_bytes = std::max(node_bytes,
                            static_cast<double>(rec.memory.node_bytes));
      queue_bytes = std::max(queue_bytes,
                             static_cast<double>(rec.memory.queue_bytes));
      retx += static_cast<double>(o.retransmits);
      dropped += static_cast<double>(o.dropped_deliveries);
    }
  }
  r.add("graph.gen_ms", gen / 1e6 / n, "ms");
  r.add("graph.gen_share", ratio(gen, trial_ns), "fraction");
  r.add("graph.gen_ns_per_edge", ratio(gen, edges), "ns");
  r.add("graph.edges", edges / n, "count");
  r.add("graph.init_tree_ms", init / 1e6 / n, "ms");
  r.add("spanning.startup_ms", startup / 1e6 / n, "ms");
  r.add("spanning.startup_share", ratio(startup, trial_ns), "fraction");
  r.add("spanning.startup_msgs", startup_msgs / n, "count");
  r.add("spanning.msgs_per_s", ratio(startup_msgs, startup / 1e9), "1/s");
  r.add("mdst.lb_ms", lb / 1e6 / n, "ms");
  r.add("mdst.lb_share", ratio(lb, trial_ns), "fraction");
  r.add("mdst.run_ms", run / 1e6 / n, "ms");
  r.add("mdst.run_share", ratio(run, trial_ns), "fraction");
  r.add("mdst.msgs", mdst_msgs / n, "count");
  r.add("mdst.msgs_per_s", ratio(mdst_msgs, run / 1e9), "1/s");
  r.add("mdst.ns_per_msg", ratio(run, mdst_msgs), "ns");
  r.add("mdst.rounds", rounds / n, "count");
  r.add("mdst.improvements", improvements / n, "count");
  r.add("mdst.improve_ratio", ratio(improvements, rounds), "fraction");
  r.add("mdst.msgs_per_round_m", ratio(mdst_msgs, round_edges), "ratio");
  r.add("mdst.search_msgs", search / n, "count");
  r.add("mdst.move_msgs", move / n, "count");
  r.add("mdst.wave_msgs", wave / n, "count");
  r.add("mdst.choose_msgs", choose / n, "count");
  r.add("mdst.max_ids", max_ids, "count");
  r.add("mdst.re_elections", re_elections / np, "count");
  r.add("mdst.false_re_elections", false_re / np, "count");
  r.add("mdst.recovery_msgs", recovery / n, "count");
  r.add("mdst.recovery_share", ratio(recovery, mdst_msgs), "fraction");
  r.add("runtime.bits", bits / n, "bit");
  r.add("runtime.in_flight_peak", in_flight, "count");
  r.add("runtime.mem_bytes_per_node", per_node, "B");
  r.add("runtime.mem_node_bytes", node_bytes, "B");
  r.add("runtime.mem_queue_bytes", queue_bytes, "B");
  r.add("runtime.retransmits", retx / np, "count");
  r.add("runtime.retx_ratio", ratio(retx, mdst_msgs), "fraction");
  r.add("runtime.dropped", dropped / np, "count");
  r.add("runtime.wedged", wedged / np, "count");
  r.add("runtime.capped", capped / np, "count");
  r.add("campaign.spec_ms", spec_ns / 1e6 / np, "ms");
  r.add("campaign.sink_ms", sink_ns / 1e6 / np, "ms");
  r.add("campaign.sink_bytes", sink_bytes / np, "B");
  r.add("campaign.client_util", ratio(trial_ns, client_ns), "fraction");
  r.add("trace.span_coverage", coverage, "fraction");
}

// ---------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  unsigned clients = 0;  // 0 = the workload's default
  bool mini = false;
  std::uint64_t max_messages = 0;  // 0 = the workload's own cap
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mdst_perfbench: " << why << "\n"
            << "usage: mdst_perfbench --workload converge|sweep|adversity|"
               "large_n [--seed N] [--seconds S] [--trace 0|1] "
               "[--clients C] [--mini] [--max-messages N] [--out DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value(), nullptr, 0);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = value() != "0";
      } else if (flag == "--clients") {
        a.clients = static_cast<unsigned>(std::stoul(value()));
      } else if (flag == "--mini") {
        a.mini = true;
      } else if (flag == "--max-messages") {
        a.max_messages = std::stoull(value());
      } else if (flag == "--out") {
        a.out = value();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = now_ns();
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + args.workload);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients =
      std::min(hw, args.clients != 0 ? args.clients : workload->clients);
  const std::string out_dir = args.out + "/" + workload->name;
  std::filesystem::create_directories(out_dir);

  // A run is a fixed number of passes, sized to --seconds on the reference
  // host, so the same seed and --seconds always give the same inputs. Each
  // pass draws its own base_seed from the --seed stream: one pass samples
  // only `reps` instances per family and size, too few for steady means.
  // (The stream also scrambles --seed: the library's derive_seed chains its
  // coordinates with xor/add only, so nearby base seeds 1, 2, 3, ... would
  // yield overlapping instance sets.) With --trace 1 each pass is run
  // untraced and then traced, so half as many passes fit.
  const double pass_seconds = args.mini ? 1.0 : workload->pass_seconds;
  std::size_t passes = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds / pass_seconds)));
  if (args.trace) passes = std::max<std::size_t>(1, passes / 2);
  std::uint64_t seed_stream = args.seed;

  SpanLog spans;
  std::vector<PassResult> plain, traced;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::size_t p = 0; p < passes; ++p) {
    // The library sees only this generated spec; the file is a copy for
    // re-running the pass with mdst_lab.
    std::string spec_text = std::string("name = ") + workload->name +
                            "\nbase_seed = " +
                            std::to_string(support::splitmix64(seed_stream)) +
                            "\n" + workload->body(args.mini);
    if (args.max_messages != 0) {
      spec_text += "max_messages = " + std::to_string(args.max_messages) + "\n";
    }
    std::ofstream(out_dir + "/workload.campaign", std::ios::trunc) << spec_text;
    plain.push_back(run_pass(spec_text, out_dir, clients, nullptr));
    if (args.trace) {
      traced.push_back(run_pass(spec_text, out_dir, clients, &spans));
    }
    digest = fnv1a(digest, std::to_string(plain.back().digest));
  }

  // Correctness: every check on every trial, and traced replays whose
  // deterministic row columns equal the untraced pass's.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, int> by_status;
  for (const PassResult& pass : plain) {
    for (const TrialRecord& rec : pass.trials) {
      ++attempted;
      ++by_status[to_string(rec.status)];
      if (rec.status != Status::kOk) ++failed;
      if (rec.status != Status::kOk) {
        const campaign::Trial& t = rec.outcome.trial;
        std::cout << "# trial " << t.index << " (" << t.family << " n=" << t.n
                  << " delay=" << t.delay.label << " faults=" << t.fault.label
                  << " rep=" << t.repetition << ") " << to_string(rec.status)
                  << (rec.error.empty() ? "" : ": ") << rec.error << "\n";
      }
      if (rec.status == Status::kCheckFailed) {
        failures.push_back("trial " + std::to_string(rec.outcome.trial.index) +
                           ": " + rec.error);
      }
    }
  }
  for (std::size_t p = 0; p < traced.size(); ++p) {
    for (const TrialRecord& rec : traced[p].trials) {
      if (rec.status == Status::kCheckFailed) {
        failures.push_back("traced replay of trial " +
                           std::to_string(rec.outcome.trial.index) + ": " +
                           rec.error);
      }
    }
    if (traced[p].digest != plain[p].digest) {
      failures.push_back("traced replay of pass " + std::to_string(p) +
                         " differs from the untraced pass (row digest)");
    }
  }

  // Human-readable summary first; the JSON result is the last line.
  std::cout << "# workload " << workload->name << " clients " << clients
            << " trials/pass " << plain.front().trials.size() << " passes "
            << plain.size() << "+" << traced.size() << "\n# pass wall_s";
  for (const PassResult& pass : plain) {
    std::cout << " " << static_cast<double>(pass.wall_ns) / 1e9;
  }
  std::cout << "\n# pass setup_us";
  for (const PassResult& pass : plain) {
    std::cout << " " << static_cast<double>(pass.setup_ns) / 1e3;
  }
  std::cout << "\n# outcomes";
  for (const auto& [status, count] : by_status) {
    std::cout << " " << status << "=" << count;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << "\ndigest " << workload->name << " " << hex << "\n";
  for (const std::string& f : failures) std::cout << "# FAILED " << f << "\n";

  Report report;
  if (!args.trace) {
    end_to_end(plain, report);
  } else {
    layer_metrics(traced, report);
    double plain_ns = 0, traced_ns = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      plain_ns += static_cast<double>(plain[p].wall_ns);
      traced_ns += static_cast<double>(traced[p].wall_ns);
    }
    report.add("trace.overhead_frac", ratio(traced_ns - plain_ns, plain_ns),
               "fraction");
    spans.write(out_dir + "/spans.jsonl", process_start);
  }
  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << report.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
