// The campaign benchmark: one process runs one workload through the
// library's public API and prints its metrics, ending with one JSON line.
//
//   campaign_bench --workload <random_value|random_bitflip|bayesian|store_query>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--commit <sha>] [--perturb-record]
//
// --seconds sizes the workload (runs, corpus, records) so that one run
// measures about that long on a 4-thread x86 host; the same seed and
// seconds always give the same inputs. --trace 1 adds spans around every
// call into a layer plus per-layer probes, writes the spans to the work
// directory, and prints per-layer metrics instead of end-to-end ones.
// --perturb-record corrupts one record read back from the store, so a
// self-test can check that the correctness gate trips.
//
// Exit status: 0 when every correctness check passed; 1 when a check
// failed or an exception escaped (the JSON line then reports
// "correct": false); 2 on bad arguments or a non-Release build.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bayes_model.h"
#include "core/executor.h"
#include "core/experiment.h"
#include "core/fault_catalog.h"
#include "core/fault_model.h"
#include "core/manifest.h"
#include "core/query.h"
#include "core/result_store.h"
#include "kinematics/bicycle.h"
#include "kinematics/stopping.h"
#include "obs/metrics.h"
#include "scenario/generators.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "span_trace.h"
#include "util/rng.h"

using namespace drivefi;
using perfbench::SpanTrace;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Fastest of repeated identical measurements.
double best(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

// ---- Options -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
  bool perturb_record = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
      have_dir = true;
    } else if (arg == "--commit") {
      opt.commit = value();
    } else if (arg == "--perturb-record") {
      opt.perturb_record = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_dir)
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --work-dir are required");
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0))
    throw std::invalid_argument("--seconds must lie in [1, 600]");
  return opt;
}

/// Work sized from --seconds: `per_second` units per second of budget.
std::size_t sized(const Options& opt, double per_second, std::size_t at_least) {
  return std::max(at_least,
                  static_cast<std::size_t>(std::llround(opt.seconds * per_second)));
}

// ---- Results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness accounting: every checked operation is attempted, every
/// mismatch or exception is failed.
struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void check(std::size_t operations, std::size_t bad, const std::string& what) {
    attempted += operations;
    failed += bad;
    if (bad > 0)
      failures.push_back(what + ": " + std::to_string(bad) + " of " +
                         std::to_string(operations) + " failed");
  }
};

struct Result {
  std::vector<Metric> end_to_end;  // the gated metrics (--trace 0)
  std::vector<Metric> per_layer;   // the traced metrics (--trace 1)
  std::vector<Metric> named;       // the workload's own named metrics
  std::vector<Metric> counts;      // exact counts that repeat per seed
  Gate gate;
};

/// Records that differ between two record lists, compared as their JSONL
/// run lines (the scrubbed canonical form; run lines carry no wall time),
/// plus any length difference.
std::size_t mismatches(const std::vector<core::InjectionRecord>& a,
                       const std::vector<core::InjectionRecord>& b) {
  std::size_t bad = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    bad += core::run_record_jsonl(a[i]) != core::run_record_jsonl(b[i]) ? 1 : 0;
  return bad;
}

// ---- Host ----------------------------------------------------------------

struct Host {
  unsigned hardware_threads = std::thread::hardware_concurrency();
  unsigned nproc_threads = nproc();
  /// N: every hardware thread the library would use by default, capped at
  /// the threads this process may run on.
  unsigned n = std::min(core::resolve_thread_count(0), nproc());
};

// ---- Campaign plumbing -----------------------------------------------------

struct Context {
  const Options& opt;
  Host host;
  SpanTrace trace;
  Result result;
  ads::PipelineConfig pipeline;

  std::string path(const std::string& tag) const {
    return (fs::path(opt.work_dir) /
            (opt.workload + "-" + std::to_string(opt.seed) + "-" + tag + ".jsonl"))
        .string();
  }
};

core::ExperimentOptions pinned(unsigned threads) {
  core::ExperimentOptions options;
  options.executor.threads = threads;
  return options;
}

/// The campaign's two engines: one pinned to 1 thread, one to N. Both are
/// built from scratch (corpus and goldens); a third build is timed and
/// dropped, so setup_s is a median of three.
struct Engines {
  std::unique_ptr<core::Experiment> one;
  std::unique_ptr<core::Experiment> all;
  std::vector<double> setup_samples;
};

Engines build_engines(Context& ctx,
                      const std::function<std::vector<sim::Scenario>()>& corpus) {
  Engines engines;
  for (int rep = 0; rep < 3; ++rep) {
    const unsigned threads = rep == 0 ? 1u : ctx.host.n;
    auto span = ctx.trace.span("core.experiment:construct");
    const auto start = Clock::now();
    auto experiment = std::make_unique<core::Experiment>(
        corpus(), ctx.pipeline, core::ClassifierConfig{}, pinned(threads));
    engines.setup_samples.push_back(seconds_since(start));
    if (rep == 0) engines.one = std::move(experiment);
    if (rep == 1) engines.all = std::move(experiment);
  }
  return engines;
}

struct Campaign {
  core::CampaignStats stats;
  double wall = 0.0;
  std::string store_path;
  std::uint64_t spliced = 0;
  std::uint64_t replays = 0;
  double idle_wait_s = 0.0;
};

/// One campaign through the default user path: specs -> Experiment ->
/// the default (JSONL) shard store.
Campaign run_campaign(Context& ctx, const core::Experiment& experiment,
                      const core::FaultModel& model, const std::string& tag) {
  Campaign c;
  c.store_path = ctx.path(tag);
  core::ShardResultStore store(c.store_path,
                               core::make_manifest(experiment, model, "perfbench"),
                               core::StoreOpenMode::kOverwrite);
  obs::metrics().reset();
  {
    auto span = ctx.trace.span("core.executor:run_shard");
    const auto start = Clock::now();
    c.stats = experiment.run_shard(model, store);
    c.wall = seconds_since(start);
  }
  auto& m = obs::metrics();
  c.spliced = m.counter("experiment.replays_spliced").value();
  c.replays = m.counter("experiment.replays_forked").value() +
              m.counter("experiment.replays_full").value();
  c.idle_wait_s = m.histogram("executor.idle_wait_seconds").snapshot().sum_seconds;
  return c;
}

core::Outcome flipped(core::Outcome outcome) {
  return outcome == core::Outcome::kMasked ? core::Outcome::kSdcBenign
                                           : core::Outcome::kMasked;
}

/// --perturb-record: corrupt the first record read back.
void perturb(core::CampaignView& view) {
  if (!view.records.empty())
    view.records.front().outcome = flipped(view.records.front().outcome);
}

/// Gate: the records read back from the store equal the delivered ones.
core::CampaignView read_back(Context& ctx, const Campaign& c,
                             const std::string& what) {
  core::CampaignView view;
  {
    auto span = ctx.trace.span("core.query:load_campaign");
    view = core::load_campaign({c.store_path});
  }
  if (ctx.opt.perturb_record) perturb(view);
  ctx.result.gate.check(c.stats.records.size(),
                        mismatches(c.stats.records, view.records),
                        what + " store read-back");
  return view;
}

/// Gate: the 1-thread and N-thread campaigns are bit-identical.
void check_same(Context& ctx, const Campaign& one, const Campaign& all,
                const std::string& what) {
  std::size_t bad = mismatches(one.stats.records, all.stats.records);
  if (bad == 0 && core::campaign_fingerprint(one.stats) !=
                      core::campaign_fingerprint(all.stats))
    bad = 1;
  ctx.result.gate.check(one.stats.records.size(), bad,
                        what + " 1-thread vs N-thread fingerprint");
}

void add_outcome_counts(Context& ctx, const core::CampaignStats& stats) {
  auto& counts = ctx.result.counts;
  counts.push_back({"count.masked", static_cast<double>(stats.masked), "count"});
  counts.push_back({"count.sdc_benign", static_cast<double>(stats.sdc_benign), "count"});
  counts.push_back({"count.hang", static_cast<double>(stats.hang), "count"});
  counts.push_back({"count.hazard", static_cast<double>(stats.hazard), "count"});
}

// ---- Per-layer probes (traced run only) -----------------------------------

std::size_t scenario_of(const core::RunSpec& spec) {
  return spec.kind == core::RunSpec::Kind::kValue ? spec.fault.scenario_index
                                                  : spec.scenario_index;
}

/// Golden precompute, the ADS tick split, the stopping-distance kernel,
/// checkpoint restore and splice checks, and classification -- all over
/// the goldens of `engines`.
void probe_engine_layers(Context& ctx, const Engines& engines) {
  auto& out = ctx.result.per_layer;
  const core::Experiment& e = *engines.all;
  std::size_t scenes = 0, checkpoint_bytes = 0;
  for (const auto& g : e.goldens()) {
    scenes += g.scenes.size();
    for (const auto& cp : g.checkpoints) checkpoint_bytes += cp.approx_size_bytes();
  }
  out.push_back({"golden.s", median(engines.setup_samples), "s"});
  out.push_back({"golden.scenes", static_cast<double>(scenes), "count"});
  out.push_back({"golden.checkpoint_bytes", static_cast<double>(checkpoint_bytes), "bytes"});

  // ads: re-drive each golden scenario tick by tick; a tick that grew the
  // scene log ran the scene module (safety potential + scene record).
  double scene_s = 0.0, other_s = 0.0;
  std::size_t scene_ticks = 0, other_ticks = 0;
  for (const auto& scenario : e.scenarios()) {
    auto span = ctx.trace.span("ads:step");
    sim::World world(scenario.world);
    ads::AdsPipeline pipeline(world, e.pipeline_config());
    const auto ticks = static_cast<std::uint64_t>(
        std::llround(scenario.duration * e.pipeline_config().base_hz));
    for (std::uint64_t i = 0; i < ticks; ++i) {
      const std::size_t before = pipeline.scenes().size();
      const auto start = Clock::now();
      pipeline.step();
      const double dt = seconds_since(start);
      if (pipeline.scenes().size() != before) {
        scene_s += dt;
        ++scene_ticks;
      } else {
        other_s += dt;
        ++other_ticks;
      }
    }
  }
  out.push_back({"ads.scene_tick_us", 1e6 * scene_s / std::max<std::size_t>(1, scene_ticks), "us"});
  out.push_back({"ads.other_tick_us", 1e6 * other_s / std::max<std::size_t>(1, other_ticks), "us"});
  out.push_back({"ads.scene_tick_share", scene_s / std::max(1e-12, scene_s + other_s), "fraction"});

  // kinematics: the stopping-distance kernel on every golden scene's true
  // state (speed, heading) and commanded steering.
  const kinematics::VehicleParams params;
  double kin_s = 0.0, sink = 0.0;
  std::size_t kin_calls = 0;
  for (const auto& g : e.goldens()) {
    auto span = ctx.trace.span("kinematics:stopping_distance");
    for (const auto& s : g.scenes) {
      const auto start = Clock::now();
      const auto d = kinematics::stopping_distance(
          params.amax_comfort, s.true_v, s.true_theta, s.steer, params.wheelbase);
      kin_s += seconds_since(start);
      sink += d.longitudinal;
      ++kin_calls;
    }
  }
  if (!std::isfinite(sink)) ctx.result.gate.check(1, 1, "stopping distance");
  out.push_back({"kinematics.stopping_distance_us", 1e6 * kin_s / std::max<std::size_t>(1, kin_calls), "us"});

  // core.replay: restore every golden checkpoint into a fresh pipeline and
  // compare the restored state against it (a full, matching comparison).
  double restore_s = 0.0, match_s = 0.0;
  std::size_t restores = 0, mismatched = 0;
  for (const auto& g : e.goldens()) {
    auto span = ctx.trace.span("core.replay:restore_and_match");
    sim::World world(e.scenarios()[g.scenario_index].world);
    ads::AdsPipeline pipeline(world, e.pipeline_config());
    for (const auto& cp : g.checkpoints) {
      auto start = Clock::now();
      pipeline.restore(cp);
      restore_s += seconds_since(start);
      start = Clock::now();
      const bool same = pipeline.state_matches(cp);
      match_s += seconds_since(start);
      mismatched += same ? 0 : 1;
      ++restores;
    }
  }
  ctx.result.gate.check(restores, mismatched, "restored checkpoint state_matches");
  out.push_back({"replay.restore_us", 1e6 * restore_s / std::max<std::size_t>(1, restores), "us"});
  out.push_back({"replay.state_matches_us", 1e6 * match_s / std::max<std::size_t>(1, restores), "us"});

  // core.classify: each golden classified against itself (must be masked).
  double classify_s = 0.0;
  std::size_t classified = 0, not_masked = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto& g : e.goldens()) {
      auto span = ctx.trace.span("core.classify:classify_run");
      const auto start = Clock::now();
      const core::RunResult r =
          core::classify_run(g.scenes, g.scenes, false, e.classifier_config());
      classify_s += seconds_since(start);
      not_masked += r.outcome == core::Outcome::kMasked ? 0 : 1;
      ++classified;
    }
  }
  ctx.result.gate.check(classified, not_masked, "golden classified as masked");
  out.push_back({"classify.us", 1e6 * classify_s / std::max<std::size_t>(1, classified), "us"});
}

/// Replay distribution (Experiment::execute once per spec at one thread),
/// splicing, and executor balance for one campaign.
void probe_replay_layers(Context& ctx, const core::Experiment& one,
                         const core::FaultModel& model, const Campaign& c1,
                         const Campaign& cn) {
  auto& out = ctx.result.per_layer;
  std::vector<double> run_s;
  std::map<std::size_t, double> per_scenario;
  std::vector<core::InjectionRecord> flat;
  for (std::size_t i = 0; i < model.run_count(); ++i) {
    const core::RunSpec spec = model.spec(i, one);
    auto span = ctx.trace.span("core.replay:execute");
    const auto start = Clock::now();
    flat.push_back(one.execute(spec));
    run_s.push_back(seconds_since(start));
    per_scenario[scenario_of(spec)] += run_s.back();
  }
  ctx.result.gate.check(flat.size(),
                        mismatches(flat, c1.stats.records),
                        "flat execute vs campaign records");
  const double total = std::accumulate(run_s.begin(), run_s.end(), 0.0);
  double largest = 0.0;
  for (const auto& [scenario, s] : per_scenario) largest = std::max(largest, s);
  const double rate_1t = static_cast<double>(c1.stats.total()) / c1.wall;
  const double rate_nt = static_cast<double>(cn.stats.total()) / cn.wall;
  out.push_back({"replay.run_ms_p50", 1e3 * core::nearest_rank_quantile(run_s, 0.5), "ms"});
  out.push_back({"replay.run_ms_p90", 1e3 * core::nearest_rank_quantile(run_s, 0.9), "ms"});
  out.push_back({"replay.spliced_fraction",
                 static_cast<double>(c1.spliced) / std::max<double>(1.0, static_cast<double>(c1.replays)),
                 "fraction"});
  out.push_back({"replay.flat_vs_run_1t", total / c1.wall, "ratio"});
  out.push_back({"executor.efficiency_nt", rate_nt / (ctx.host.n * rate_1t), "ratio"});
  out.push_back({"executor.max_group_share", largest / std::max(1e-12, total), "fraction"});
  out.push_back({"executor.idle_wait_s", cn.idle_wait_s, "s"});
}

/// What the benchmark keeps of a SelectionResult: its counts, not F_crit.
struct SelectionCounts {
  std::size_t candidates = 0;
  std::size_t evaluated = 0;
  std::size_t inference_calls = 0;
  std::size_t critical = 0;

  bool operator==(const SelectionCounts&) const = default;
};

struct BayesRun {
  double fit_s = 0.0;
  double select_s = 0.0;
  SelectionCounts selection;
  Campaign replay;
};

/// The full DriveFI loop at one pinned thread count: k-TBN fit, catalog
/// sweep, then replay of the top `top_k` of F_crit into the store. With
/// `repeats` > 1 the loop runs again on identical inputs and each phase
/// keeps its fastest time; every repeat must replay identical records.
BayesRun run_bayes(Context& ctx, const core::Experiment& experiment,
                   unsigned threads, std::size_t top_k, const std::string& tag,
                   int repeats = 1,
                   std::unique_ptr<core::BayesianFaultModel>* keep_model = nullptr) {
  BayesRun run;
  core::BayesianCampaignConfig config;
  config.max_replays = top_k;
  config.selection.executor.threads = threads;
  std::unique_ptr<core::BayesianFaultModel> model;
  for (int rep = 0; rep < repeats; ++rep) {
    std::shared_ptr<const core::SafetyPredictor> predictor;
    {
      auto span = ctx.trace.span("bn:fit");
      const auto start = Clock::now();
      predictor = std::make_shared<const core::SafetyPredictor>(experiment.goldens(),
                                                                config.predictor);
      const double s = seconds_since(start);
      run.fit_s = rep == 0 ? s : std::min(run.fit_s, s);
    }
    model.reset();
    {
      auto span = ctx.trace.span("core.selector:select");
      const auto start = Clock::now();
      model = std::make_unique<core::BayesianFaultModel>(experiment, predictor, config);
      const double s = seconds_since(start);
      run.select_s = rep == 0 ? s : std::min(run.select_s, s);
    }
    Campaign replay = run_campaign(ctx, experiment, *model, tag);
    if (rep == 0) {
      const core::SelectionResult& sel = model->selection();
      run.selection = {sel.candidates_total, sel.candidates_evaluated,
                       sel.inference_calls, sel.critical.size()};
      run.replay = std::move(replay);
    } else {
      ctx.result.gate.check(1,
                            core::campaign_fingerprint(replay.stats) ==
                                    core::campaign_fingerprint(run.replay.stats)
                                ? 0
                                : 1,
                            "repeated bayesian replay");
      run.replay.wall = std::min(run.replay.wall, replay.wall);
    }
  }
  if (keep_model != nullptr) *keep_model = std::move(model);
  return run;
}


void add_selector_layers(Context& ctx, const BayesRun& one) {
  auto& out = ctx.result.per_layer;
  const SelectionCounts& s = one.selection;
  const auto share = [](std::size_t part, std::size_t whole) {
    return static_cast<double>(part) / std::max<double>(1.0, static_cast<double>(whole));
  };
  out.push_back({"bn.fit_s", one.fit_s, "s"});
  ctx.result.counts.push_back({"count.inference_calls", static_cast<double>(s.inference_calls), "count"});
  ctx.result.counts.push_back({"count.f_crit", static_cast<double>(s.critical), "count"});
  out.push_back({"selector.inference_us", 1e6 * one.select_s / std::max<double>(1.0, static_cast<double>(s.inference_calls)), "us"});
  out.push_back({"selector.evaluated_fraction", share(s.evaluated, s.candidates), "fraction"});
  out.push_back({"selector.critical_fraction", share(s.critical, s.evaluated), "fraction"});
  out.push_back({"selector.replay_hazard_fraction",
                 share(one.replay.stats.hazard, one.replay.stats.total()), "fraction"});
}

/// Bayesian layers for workloads that do not run the loop themselves: fit
/// and select at one thread over the first two scenarios of the corpus.
void probe_selector_layers(Context& ctx, const core::Experiment& source) {
  std::vector<sim::Scenario> sub(source.scenarios().begin(),
                                 source.scenarios().begin() +
                                     std::min<std::ptrdiff_t>(2, source.scenarios().size()));
  std::unique_ptr<core::Experiment> experiment;
  {
    auto span = ctx.trace.span("core.experiment:construct");
    experiment = std::make_unique<core::Experiment>(
        std::move(sub), ctx.pipeline, core::ClassifierConfig{}, pinned(1));
  }
  const BayesRun run = run_bayes(ctx, *experiment, 1, 8, "probe-bayes");
  add_selector_layers(ctx, run);
  fs::remove(run.replay.store_path);
}

/// Store append cost and record size, then load, aggregate and diff.
void probe_store_layers(Context& ctx, const core::Experiment& experiment,
                        const core::FaultModel& model,
                        const std::vector<core::InjectionRecord>& records,
                        const Campaign& c1, const Campaign& cn) {
  auto& out = ctx.result.per_layer;
  const std::string path = ctx.path("probe-store");
  double append_s = 0.0;
  {
    core::ShardResultStore store(path, core::make_manifest(experiment, model, "perfbench"),
                                 core::StoreOpenMode::kOverwrite);
    const auto header = fs::file_size(path);
    auto span = ctx.trace.span("core.store:append");
    for (const auto& r : records) {
      const auto start = Clock::now();
      store.append(r);
      append_s += seconds_since(start);
    }
    const double n = std::max<double>(1.0, static_cast<double>(records.size()));
    out.push_back({"store.append_us", 1e6 * append_s / n, "us"});
    out.push_back({"store.bytes_per_record",
                   static_cast<double>(fs::file_size(path) - header) / n, "bytes"});
  }
  fs::remove(path);

  core::CampaignView a, b;
  double load_s = 0.0;
  {
    auto span = ctx.trace.span("core.query:load_campaign");
    const auto start = Clock::now();
    a = core::load_campaign({c1.store_path});
    b = core::load_campaign({cn.store_path});
    load_s = seconds_since(start);
  }
  double aggregate_s = 0.0, diff_s = 0.0;
  {
    auto span = ctx.trace.span("core.query:aggregate");
    const auto start = Clock::now();
    const core::OutcomeCounts counts = core::count_outcomes(a.records);
    core::summarize_metric(a.records, core::RecordMetric::kMinDeltaLon);
    core::summarize_metric(a.records, core::RecordMetric::kMaxActuationDivergence);
    core::scenario_table(a);
    aggregate_s = seconds_since(start);
    ctx.result.gate.check(1, counts.total() == a.records.size() ? 0 : 1, "outcome totals");
  }
  {
    auto span = ctx.trace.span("core.query:diff");
    const auto start = Clock::now();
    const core::CampaignDiff diff = core::diff_campaigns(a, b);
    diff_s = seconds_since(start);
    ctx.result.gate.check(1, diff.identical() ? 0 : 1, "1-thread vs N-thread store diff");
  }
  const double loaded = std::max<double>(1.0, static_cast<double>(a.records.size() + b.records.size()));
  out.push_back({"query.load_us_per_record", 1e6 * load_s / loaded, "us"});
  out.push_back({"query.aggregate_s", aggregate_s, "s"});
  out.push_back({"query.diff_s", diff_s, "s"});
}

// ---- Workloads -------------------------------------------------------------

/// Trials per run. Each trial is a distinct campaign, its inputs derived
/// from the seed and the trial index.
constexpr std::size_t kTrials = 5;

std::uint64_t trial_seed(const Options& opt, std::size_t trial) {
  return util::derive_run_seed(opt.seed, trial);
}

/// random_value / random_bitflip: one fault model over the 12 built-in
/// scenarios, each trial at 1 thread and at N threads. Rates pool all
/// trials (runs over campaign wall time): a single injection's cost varies
/// by ~0.8x its mean, so a run needs hundreds of distinct injections.
void random_workload(Context& ctx, bool bitflip) {
  const Engines engines = build_engines(ctx, [] { return sim::base_suite(); });
  const std::size_t n = bitflip ? sized(ctx.opt, 8.0, 4) : sized(ctx.opt, 2.8, 4);
  double sum_1t = 0.0, sum_nt = 0.0;
  std::vector<double> load_rate;
  core::CampaignStats all_trials;
  std::uint64_t spliced = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    std::unique_ptr<core::FaultModel> model;
    if (bitflip)
      model = std::make_unique<core::BitFlipModel>(n, trial_seed(ctx.opt, t));
    else
      model = std::make_unique<core::RandomValueModel>(n, trial_seed(ctx.opt, t));
    const Campaign c1 = run_campaign(ctx, *engines.one, *model, "1t");
    // The N-thread campaign runs twice and keeps the faster: it is short
    // and shares every core with whatever else runs on the host.
    Campaign cn = run_campaign(ctx, *engines.all, *model, "nt");
    const Campaign again = run_campaign(ctx, *engines.all, *model, "nt");
    check_same(ctx, cn, again, model->name() + " repeat");
    cn.wall = std::min(cn.wall, again.wall);
    check_same(ctx, c1, cn, model->name());
    read_back(ctx, c1, model->name() + " 1-thread");
    const auto start = Clock::now();
    read_back(ctx, cn, model->name() + " N-thread");
    load_rate.push_back(static_cast<double>(n) / seconds_since(start));
    sum_1t += c1.wall;
    sum_nt += cn.wall;
    for (const auto& r : c1.stats.records) all_trials.add(r);
    spliced += c1.spliced;

    if (t == 0 && ctx.trace.enabled()) {
      probe_engine_layers(ctx, engines);
      probe_replay_layers(ctx, *engines.one, *model, c1, cn);
      probe_selector_layers(ctx, *engines.all);
      probe_store_layers(ctx, *engines.one, *model, c1.stats.records, c1, cn);
    }
    fs::remove(c1.store_path);
    fs::remove(cn.store_path);
  }

  const double runs = static_cast<double>(n * kTrials);
  auto& e2e = ctx.result.end_to_end;
  e2e.push_back({"setup_s", median(engines.setup_samples), "s"});
  e2e.push_back({"ops_per_s_1t", runs / sum_1t, "1/s"});
  e2e.push_back({"ops_per_s_nt", runs / sum_nt, "1/s"});

  auto& named = ctx.result.named;
  named.push_back({"injections_per_s_1t", runs / sum_1t, "1/s"});
  named.push_back({"injections_per_s_nt", runs / sum_nt, "1/s"});
  named.push_back({"load_records_per_s", median(load_rate), "1/s"});

  add_outcome_counts(ctx, all_trials);
  ctx.result.counts.push_back({"count.spliced_runs", static_cast<double>(spliced), "count"});
}

/// A corpus stratified by generator and ego speed: for each of the
/// sampler's generators and each of `bands` equal speed bands over 8..38
/// m/s, the first scenario the generator draws (from streams derived from
/// the seed) whose ego speed lies in the band. Selection cost per BN
/// inference is dominated by the stopping-distance kernel, whose cost grows
/// with the ego's speed over the scenario; generator and initial speed set
/// that speed, so an unstratified corpus of a dozen scenarios swings the
/// inference rate by +-15% from seed to seed. Durations are set to 30 s
/// (generators draw 25..45 s and schedule every event before 27 s), so
/// every corpus has the same catalog size.
std::vector<sim::Scenario> stratified_corpus(std::uint64_t seed, std::size_t bands) {
  constexpr double kLow = 8.0, kHigh = 38.0;
  const auto& generators = scenario::generators();
  std::vector<sim::Scenario> corpus;
  std::uint64_t stream = 0;
  for (std::size_t g = 0; g < generators.size(); ++g) {
    for (std::size_t b = 0; b < bands; ++b) {
      const double lo = kLow + (kHigh - kLow) * static_cast<double>(b) / static_cast<double>(bands);
      const double hi = kLow + (kHigh - kLow) * static_cast<double>(b + 1) / static_cast<double>(bands);
      for (int attempt = 0;; ++attempt) {
        if (attempt > 10000) throw std::runtime_error("no scenario in a speed band");
        util::Rng rng(util::derive_run_seed(seed, stream++));
        sim::Scenario s = generators[g].make(rng);
        if (s.world.ego_speed < lo || s.world.ego_speed > hi) continue;
        s.name += "_s" + std::to_string(corpus.size());
        s.duration = 30.0;
        corpus.push_back(std::move(s));
        break;
      }
    }
  }
  return corpus;
}

/// bayesian: the full DriveFI loop over a corpus sampled from the seed.
/// The gated rate counts BN inferences (evaluated candidates): skipped
/// candidates cost almost nothing, and their share varies with the corpus.
void bayesian_workload(Context& ctx) {
  const std::size_t bands = sized(ctx.opt, 0.08, 1);
  const std::size_t top_k = sized(ctx.opt, 0.5, 2);
  const Engines engines =
      build_engines(ctx, [&] { return stratified_corpus(ctx.opt.seed, bands); });

  std::unique_ptr<core::BayesianFaultModel> model_1t;
  // Each loop repeats on identical inputs and keeps each phase's best: a
  // sweep spans seconds, and host contention comes in bursts that long.
  // The N-thread sweep is short and contends for every core, so it runs
  // three times.
  const BayesRun one = run_bayes(ctx, *engines.one, 1, top_k, "1t", 2,
                                 ctx.trace.enabled() ? &model_1t : nullptr);
  const BayesRun all = run_bayes(ctx, *engines.all, ctx.host.n, top_k, "nt", 3);
  ctx.result.gate.check(1, one.selection == all.selection ? 0 : 1,
                        "1-thread vs N-thread selection");
  check_same(ctx, one.replay, all.replay, "bayesian replay");
  read_back(ctx, one.replay, "bayesian 1-thread");
  double load_s = 0.0;
  {
    const auto start = Clock::now();
    read_back(ctx, all.replay, "bayesian N-thread");
    load_s = seconds_since(start);
  }

  const double candidates = static_cast<double>(one.selection.candidates);
  const double inferences = static_cast<double>(one.selection.evaluated);
  const double replays = static_cast<double>(one.replay.stats.total());
  const double job_nt = all.fit_s + all.select_s + all.replay.wall;
  auto& e2e = ctx.result.end_to_end;
  e2e.push_back({"setup_s", median(engines.setup_samples), "s"});
  e2e.push_back({"ops_per_s_1t", inferences / one.select_s, "1/s"});
  e2e.push_back({"ops_per_s_nt", inferences / all.select_s, "1/s"});

  auto& named = ctx.result.named;
  named.push_back({"selection_candidates_per_s_1t", candidates / one.select_s, "1/s"});
  named.push_back({"selection_candidates_per_s_nt", candidates / all.select_s, "1/s"});
  named.push_back({"injections_per_s_1t", replays / one.replay.wall, "1/s"});
  named.push_back({"injections_per_s_nt", replays / all.replay.wall, "1/s"});
  named.push_back({"hazards_per_s_nt", static_cast<double>(all.replay.stats.hazard) / job_nt, "1/s"});
  named.push_back({"load_records_per_s", replays / load_s, "1/s"});

  add_outcome_counts(ctx, one.replay.stats);
  ctx.result.counts.push_back({"count.spliced_runs", static_cast<double>(one.replay.spliced), "count"});

  if (ctx.trace.enabled()) {
    probe_engine_layers(ctx, engines);
    probe_replay_layers(ctx, *engines.one, *model_1t, one.replay, all.replay);
    add_selector_layers(ctx, one);
    probe_store_layers(ctx, *engines.one, *model_1t, one.replay.stats.records,
                       one.replay, all.replay);
  } else {
    auto& counts = ctx.result.counts;
    counts.push_back({"count.inference_calls", static_cast<double>(one.selection.inference_calls), "count"});
    counts.push_back({"count.f_crit", static_cast<double>(one.selection.critical), "count"});
  }
  fs::remove(one.replay.store_path);
  fs::remove(all.replay.store_path);
}

// Outcome mix: random_value campaigns over the built-in suite come out a
// quarter to a third masked and the rest SDC-benign, with rare hangs and
// hazards; the synthetic mix keeps every outcome class present.
constexpr double kMaskedShare = 0.33;
constexpr double kSdcShare = 0.65;
constexpr double kHangShare = 0.015;

/// Synthetic records shaped like random_value's: its description format,
/// scenario spread and outcome mix. No simulation runs.
std::vector<core::InjectionRecord> synthetic_records(
    std::size_t m, std::uint64_t seed, const std::vector<sim::Scenario>& suite) {
  util::Rng rng(seed);
  const std::vector<core::TargetRange> targets = core::default_target_ranges();
  std::vector<core::InjectionRecord> records(m);
  for (std::size_t i = 0; i < m; ++i) {
    core::InjectionRecord& r = records[i];
    r.run_index = i;
    r.scenario_index = rng.uniform_index(suite.size());
    const sim::Scenario& scenario = suite[r.scenario_index];
    const core::TargetRange& target = targets[rng.uniform_index(targets.size())];
    const double t = rng.uniform(1.0, scenario.duration - 1.0);
    const double value = rng.uniform() < 0.5 ? target.min_value : target.max_value;
    std::ostringstream desc;
    desc << scenario.name << " t=" << t << " " << target.name << "=" << value;
    r.description = desc.str();
    r.scene_index = static_cast<std::size_t>(t * 7.5);
    const double u = rng.uniform();
    r.outcome = u < kMaskedShare                            ? core::Outcome::kMasked
                : u < kMaskedShare + kSdcShare              ? core::Outcome::kSdcBenign
                : u < kMaskedShare + kSdcShare + kHangShare ? core::Outcome::kHang
                                                            : core::Outcome::kHazard;
    r.min_delta_lon = r.outcome == core::Outcome::kHazard ? rng.uniform(-5.0, 0.0)
                                                          : rng.uniform(0.5, 120.0);
    r.max_actuation_divergence = r.outcome == core::Outcome::kMasked
                                     ? rng.uniform(0.0, 0.05)
                                     : rng.uniform(0.05, 1.0);
  }
  return records;
}

core::CampaignManifest synthetic_manifest(std::size_t m, std::uint64_t seed,
                                          const std::vector<sim::Scenario>& suite,
                                          const ads::PipelineConfig& pipeline) {
  core::CampaignManifest manifest;
  manifest.model = "random-value";
  manifest.model_params = "n=" + std::to_string(m) + " seed=" + std::to_string(seed);
  manifest.planned_runs = m;
  manifest.scenario_spec = "builtin:base";
  manifest.scenario_hash = core::scenario_suite_hash(suite);
  manifest.pipeline_seed = pipeline.seed;
  manifest.config_hash = core::campaign_config_hash(pipeline, core::ClassifierConfig{});
  return manifest;
}

/// store_query: appends through the default store at 1 thread (one store)
/// and N threads (one shard store per thread), then load, aggregate, point
/// lookups and diffs. An operation is one record's round trip: append,
/// load, and its share of the analysis. Each repetition redoes identical
/// work and the gated figures take the fastest: these I/O-bound phases
/// last a fraction of a second and swing by half under host contention,
/// while their best case holds.
void store_workload(Context& ctx) {
  const std::size_t m = sized(ctx.opt, 5000.0, 2000);
  const std::size_t reps = sized(ctx.opt, 0.32, 3);
  const unsigned n = ctx.host.n;
  const std::vector<sim::Scenario> suite = sim::base_suite();

  std::vector<double> setup_samples;
  std::vector<core::InjectionRecord> records;
  for (int rep = 0; rep < 5; ++rep) {
    auto span = ctx.trace.span("bench:generate_records");
    const auto start = Clock::now();
    records = synthetic_records(m, ctx.opt.seed, suite);
    setup_samples.push_back(seconds_since(start));
  }
  const core::CampaignManifest manifest =
      synthetic_manifest(m, ctx.opt.seed, suite, ctx.pipeline);

  // The diff target: a copy of the campaign with a few outcomes flipped.
  const std::size_t flips = std::min<std::size_t>(8, m);
  std::vector<core::InjectionRecord> flipped_records = records;
  for (std::size_t i = 0; i < flips; ++i) {
    auto& r = flipped_records[(i * m) / flips];
    r.outcome = flipped(r.outcome);
  }
  const std::string flipped_path = ctx.path("flipped");
  core::CampaignView flipped_view;
  {
    auto span = ctx.trace.span("bench:write_diff_target");
    core::ShardResultStore store(flipped_path, manifest, core::StoreOpenMode::kOverwrite);
    for (const auto& r : flipped_records) store.append(r);
    flipped_view = core::load_campaign({flipped_path});
  }

  const std::string one_path = ctx.path("1t");
  std::vector<std::string> shard_paths;
  for (unsigned i = 0; i < n; ++i) shard_paths.push_back(ctx.path("shard" + std::to_string(i)));

  std::vector<double> append_1t, append_nt, load_nt, analyze, round_trip_1t,
      round_trip_nt;
  std::vector<double> append_us, load_us, aggregate_s, diff_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    {
      core::ShardResultStore store(one_path, manifest, core::StoreOpenMode::kOverwrite);
      auto span = ctx.trace.span("core.store:append");
      const auto start = Clock::now();
      for (const auto& r : records) store.append(r);
      append_1t.push_back(seconds_since(start));
    }
    {
      std::vector<std::unique_ptr<core::ShardStore>> shards;
      for (unsigned i = 0; i < n; ++i) {
        core::CampaignManifest shard = manifest;
        shard.shard_index = i;
        shard.shard_count = n;
        shards.push_back(std::make_unique<core::ShardResultStore>(
            shard_paths[i], shard, core::StoreOpenMode::kOverwrite));
      }
      auto span = ctx.trace.span("core.store:append_sharded");
      std::vector<std::exception_ptr> errors(n);
      const auto start = Clock::now();
      std::vector<std::thread> writers;
      for (unsigned i = 0; i < n; ++i) {
        writers.emplace_back([&, i] {
          try {
            for (std::size_t r = i; r < records.size(); r += n) shards[i]->append(records[r]);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      for (auto& w : writers) w.join();
      append_nt.push_back(seconds_since(start));
      for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
    }

    core::CampaignView one, all;
    double load_s = 0.0, load_one_s = 0.0;
    {
      auto span = ctx.trace.span("core.query:load_campaign");
      auto start = Clock::now();
      all = core::load_campaign(shard_paths);
      load_s = seconds_since(start);
      start = Clock::now();
      one = core::load_campaign({one_path});
      load_one_s = seconds_since(start);
    }
    if (ctx.opt.perturb_record) perturb(all);
    {
      auto span = ctx.trace.span("bench:verify_read_back");
      ctx.result.gate.check(m, mismatches(records, one.records), "1-store read-back");
      ctx.result.gate.check(m, mismatches(records, all.records), "sharded read-back");
    }

    double agg = 0.0, diff = 0.0;
    {
      auto span = ctx.trace.span("core.query:aggregate");
      const auto start = Clock::now();
      const core::OutcomeCounts counts = core::count_outcomes(all.records);
      core::summarize_metric(all.records, core::RecordMetric::kMinDeltaLon);
      core::summarize_metric(all.records, core::RecordMetric::kMaxActuationDivergence);
      const auto table = core::scenario_table(all);
      std::size_t lookups_bad = 0;
      util::Rng pick(ctx.opt.seed + rep);
      constexpr std::size_t kLookups = 1000;
      for (std::size_t i = 0; i < kLookups; ++i) {
        const std::size_t index = pick.uniform_index(m);
        core::InjectionRecord found;
        if (!core::lookup_run(all, index, &found) ||
            core::run_record_jsonl(found) != core::run_record_jsonl(records[index]))
          ++lookups_bad;
      }
      agg = seconds_since(start);
      ctx.result.gate.check(kLookups, lookups_bad, "point lookups");
      std::size_t table_total = 0;
      for (const auto& row : table) table_total += row.counts.total();
      ctx.result.gate.check(1, counts.total() == m && table_total == m ? 0 : 1,
                            "aggregate totals");
    }
    {
      auto span = ctx.trace.span("core.query:diff");
      const auto start = Clock::now();
      const core::CampaignDiff self = core::diff_campaigns(one, all);
      const core::CampaignDiff changed = core::diff_campaigns(one, flipped_view);
      diff = seconds_since(start);
      ctx.result.gate.check(1, self.identical() ? 0 : 1, "self-diff identical");
      std::size_t flipped_found = 0;
      for (const auto& entry : changed.changed) flipped_found += entry.outcome_flipped ? 1 : 0;
      ctx.result.gate.check(flips,
                            flips - std::min(flips, flipped_found) +
                                (changed.changed.size() - std::min(changed.changed.size(), flipped_found)),
                            "diff finds the flipped outcomes");
    }
    load_nt.push_back(load_s);
    analyze.push_back(agg + diff);
    round_trip_1t.push_back(append_1t.back() + load_one_s + agg + diff);
    round_trip_nt.push_back(append_nt.back() + load_s + agg + diff);
    aggregate_s.push_back(agg);
    diff_s.push_back(diff);
    append_us.push_back(1e6 * append_1t.back() / static_cast<double>(m));
    load_us.push_back(1e6 * load_s / static_cast<double>(m));
  }

  const double md = static_cast<double>(m);
  auto& e2e = ctx.result.end_to_end;
  e2e.push_back({"setup_s", median(setup_samples), "s"});
  e2e.push_back({"ops_per_s_1t", md / best(round_trip_1t), "1/s"});
  e2e.push_back({"ops_per_s_nt", md / best(round_trip_nt), "1/s"});

  auto& named = ctx.result.named;
  named.push_back({"append_records_per_s", md / best(append_1t), "1/s"});
  named.push_back({"append_records_per_s_nt", md / best(append_nt), "1/s"});
  named.push_back({"load_records_per_s", md / best(load_nt), "1/s"});
  named.push_back({"analyze_s", best(analyze), "s"});
  named.push_back({"append_records_per_s_median", md / median(append_1t), "1/s"});
  named.push_back({"analyze_s_median", median(analyze), "s"});

  const core::OutcomeCounts counts = core::count_outcomes(records);
  core::CampaignStats stats;
  stats.masked = counts.masked;
  stats.sdc_benign = counts.sdc_benign;
  stats.hang = counts.hang;
  stats.hazard = counts.hazard;
  add_outcome_counts(ctx, stats);

  if (ctx.trace.enabled()) {
    // The campaign layers, measured on a small random_value campaign over
    // two scenarios sampled from the seed.
    const scenario::ScenarioSampler sampler(ctx.opt.seed);
    const Engines engines = build_engines(ctx, [&] { return sampler.sample_suite(2); });
    const core::RandomValueModel model(24, ctx.opt.seed);
    const Campaign c1 = run_campaign(ctx, *engines.one, model, "probe-1t");
    const Campaign cn = run_campaign(ctx, *engines.all, model, "probe-nt");
    check_same(ctx, c1, cn, "probe campaign");
    ctx.result.counts.push_back({"count.spliced_runs", static_cast<double>(c1.spliced), "count"});
    probe_engine_layers(ctx, engines);
    probe_replay_layers(ctx, *engines.one, model, c1, cn);
    probe_selector_layers(ctx, *engines.all);
    fs::remove(c1.store_path);
    fs::remove(cn.store_path);
    auto& out = ctx.result.per_layer;
    const core::CampaignView view = core::load_campaign({one_path});
    out.push_back({"store.append_us", median(append_us), "us"});
    out.push_back({"store.bytes_per_record",
                   static_cast<double>(fs::file_size(one_path)) / md, "bytes"});
    out.push_back({"query.load_us_per_record", median(load_us), "us"});
    out.push_back({"query.aggregate_s", median(aggregate_s), "s"});
    out.push_back({"query.diff_s", median(diff_s), "s"});
  }
  fs::remove(one_path);
  fs::remove(flipped_path);
  for (const auto& p : shard_paths) fs::remove(p);
}

// ---- Output ----------------------------------------------------------------

/// The layers spans are attributed to: a span named "<layer>:<function>"
/// counts toward <layer>; spans of the benchmark's own work ("bench:...")
/// count only toward coverage.
constexpr const char* kLayers[] = {
    "core.experiment", "ads",        "kinematics", "core.replay",
    "core.classify",   "core.executor", "bn",      "core.selector",
    "core.store",      "core.query"};

/// Per-layer self time, span coverage and tracing overhead.
void add_trace_metrics(Context& ctx, double wall) {
  auto& out = ctx.result.per_layer;
  std::map<std::string, double> self;
  for (const char* layer : kLayers) self[layer] = 0.0;
  for (const auto& [name, s] : ctx.trace.self_seconds()) {
    const auto layer = self.find(name.substr(0, name.find(':')));
    if (layer != self.end()) layer->second += s;
  }
  for (const auto& [layer, s] : self) out.push_back({"self_s." + layer, s, "s"});
  out.push_back({"trace.coverage", ctx.trace.coverage(wall), "fraction"});
  out.push_back({"trace.spans", static_cast<double>(ctx.trace.spans().size()), "count"});

  // Overhead: what recording this many spans costs, measured on a scratch
  // trace, over the traced wall time.
  SpanTrace scratch(true);
  constexpr int kSamples = 20000;
  const auto start = Clock::now();
  for (int i = 0; i < kSamples; ++i) auto span = scratch.span("x");
  const double per_span = seconds_since(start) / kSamples;
  out.push_back({"trace.overhead_frac",
                 per_span * static_cast<double>(ctx.trace.spans().size()) / wall,
                 "fraction"});
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("# %s %s %s %s\n", kind, m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
}

int finish(Context& ctx, double wall) {
  Gate& gate = ctx.result.gate;
  for (const auto* set : {&ctx.result.end_to_end, &ctx.result.per_layer, &ctx.result.named})
    for (const auto& m : *set)
      if (!std::isfinite(m.value)) gate.check(1, 1, "metric " + m.name + " is not finite");
  if (gate.attempted == 0) gate.check(1, 1, "nothing was checked");
  const bool correct = gate.failed == 0;

  ctx.result.end_to_end.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  ctx.result.named.push_back({"failed_fraction",
                              static_cast<double>(gate.failed) /
                                  static_cast<double>(gate.attempted),
                              "fraction"});
  if (ctx.trace.enabled()) {
    add_trace_metrics(ctx, wall);
    const std::string trace_path =
        (fs::path(ctx.opt.work_dir) /
         ("trace-" + ctx.opt.workload + "-" + std::to_string(ctx.opt.seed) + ".jsonl"))
            .string();
    ctx.trace.write_jsonl(trace_path);
    std::printf("# trace %s\n", trace_path.c_str());
  }

  const Host& h = ctx.host;
  std::printf("# workload %s seed %llu seconds %g trace %d\n", ctx.opt.workload.c_str(),
              static_cast<unsigned long long>(ctx.opt.seed), ctx.opt.seconds,
              ctx.trace.enabled() ? 1 : 0);
  std::printf("# host hardware_threads %u nproc %u N %u compiler \"%s\" build %s commit %s\n",
              h.hardware_threads, h.nproc_threads, h.n, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, ctx.opt.commit.c_str());
  print_metrics("named", ctx.result.named);
  print_metrics("count", ctx.result.counts);
  print_metrics("end_to_end", ctx.result.end_to_end);
  print_metrics("per_layer", ctx.result.per_layer);
  for (const auto& f : gate.failures) std::printf("# FAILED %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted) +
          ", \"failed\": " + std::to_string(gate.failed) + ", \"metrics\": {";
  const auto& metrics = ctx.trace.enabled() ? ctx.result.per_layer : ctx.result.end_to_end;
  std::vector<Metric> emitted = metrics;
  if (ctx.trace.enabled())
    emitted.insert(emitted.end(), ctx.result.counts.begin(), ctx.result.counts.end());
  bool first = true;
  for (const auto& m : emitted) {
    if (!std::isfinite(m.value)) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
#ifndef NDEBUG
  constexpr bool kAssertsOn = true;
#else
  constexpr bool kAssertsOn = false;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || kAssertsOn) {
    std::fprintf(stderr, "campaign_bench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  static const std::map<std::string, std::function<void(Context&)>> workloads = {
      {"random_value", [](Context& c) { random_workload(c, false); }},
      {"random_bitflip", [](Context& c) { random_workload(c, true); }},
      {"bayesian", bayesian_workload},
      {"store_query", store_workload}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "campaign_bench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  Context ctx{opt, Host{}, SpanTrace(opt.trace), Result{}, ads::PipelineConfig{}};
  const auto start = Clock::now();
  try {
    fs::create_directories(opt.work_dir);
    it->second(ctx);
  } catch (const std::exception& e) {
    ctx.result.gate.check(1, 1, std::string("exception: ") + e.what());
  }
  return finish(ctx, seconds_since(start));
}
