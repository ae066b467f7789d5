// greenvis — command-line front end to the library. Run it without
// arguments for the command synopsis (usage() below).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/advisor.hpp"
#include "src/analysis/attribution.hpp"
#include "src/analysis/metrics.hpp"
#include "src/campaign/engine.hpp"
#include "src/campaign/query.hpp"
#include "src/codec/field_codec.hpp"
#include "src/core/experiment.hpp"
#include "src/fio/runner.hpp"
#include "src/net/multinode.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/qa/conformance.hpp"
#include "src/qa/oracle.hpp"
#include "src/qa/registry.hpp"
#include "src/replay/engine.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/storage/async_device.hpp"
#include "src/util/args.hpp"
#include "src/util/table.hpp"

namespace {

using namespace greenvis;

using Args = util::ArgParser;

double opt_double(const Args& args, const std::string& key, double fallback) {
  return args.get(key, fallback);
}

std::string opt_string(const Args& args, const std::string& key,
                       const std::string& fallback) {
  return args.get(key, fallback);
}

/// Bad user input: main() prints the message and the usage text and
/// exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int opt_case(const Args& args) {
  const double n = opt_double(args, "case", 1);
  if (n != 1 && n != 2 && n != 3) {
    throw UsageError("--case must be 1, 2 or 3");
  }
  return static_cast<int>(n);
}

storage::DeviceKind opt_device(const Args& args) {
  const std::string device = opt_string(args, "device", "hdd");
  const auto kind = storage::parse_device(device);
  if (!kind) {
    throw UsageError("unknown --device '" + device +
                     "' (expected hdd|ssd|nvram|nvme|raid0)");
  }
  return *kind;
}

codec::Kind parse_codec(const std::string& name) {
  for (const codec::Kind kind :
       {codec::Kind::kRaw, codec::Kind::kDelta, codec::Kind::kRle}) {
    if (name == codec::kind_name(kind)) {
      return kind;
    }
  }
  throw UsageError("unknown codec '" + name + "' (expected raw|delta|rle)");
}

util::Watts opt_cap(const Args& args) {
  const double watts = opt_double(args, "cap", 0.0);
  if (!(watts >= 0.0)) {
    throw UsageError("--cap must be at least 0 W (0 = uncapped)");
  }
  return util::Watts{watts};
}

/// A whole-number option of at least `min`.
std::size_t opt_count(const Args& args, const std::string& key,
                      std::size_t fallback, std::size_t min = 1) {
  const double n = opt_double(args, key, static_cast<double>(fallback));
  if (!(n >= static_cast<double>(min) && n <= 1e9 && n == std::floor(n))) {
    throw UsageError("--" + key + " must be a whole number of at least " +
                     std::to_string(min));
  }
  return static_cast<std::size_t>(n);
}

int cmd_compare(const Args& args) {
  core::TestbedConfig config;
  config.package_cap = opt_cap(args);
  config.io_frequency_ghz = opt_double(args, "io-ghz", 0.0);
  config.device = opt_device(args);
  config.fs.io_queue.queue_depth =  // 0 = one window for the whole batch
      opt_count(args, "io-queue-depth", config.fs.io_queue.queue_depth, 0);
  const std::string io_sched = opt_string(args, "io-sched", "device");
  if (const auto sched = storage::parse_io_scheduler(io_sched)) {
    config.fs.io_queue.scheduler = *sched;
  } else {
    throw UsageError("unknown --io-sched '" + io_sched +
                     "' (expected device|noop|elevator|deadline)");
  }
  const std::string pipeline = opt_string(args, "pipeline", "sync");
  if (pipeline != "sync" && pipeline != "async") {
    throw UsageError("unknown --pipeline '" + pipeline +
                     "' (expected sync or async)");
  }
  const bool async_post = pipeline == "async";
  core::PipelineOptions options;
  options.stage_buffers =
      opt_count(args, "stage-buffers", options.stage_buffers);
  options.stage_queue_depth =
      opt_count(args, "stage-queue-depth", options.stage_queue_depth);
  const core::Experiment experiment(config);
  auto workload = core::case_study(opt_case(args));
  workload.snapshot_codec.kind =
      parse_codec(opt_string(args, "codec", "raw"));
  workload.snapshot_codec.tolerance =
      opt_double(args, "tolerance", workload.snapshot_codec.tolerance);
  std::cerr << "running " << workload.name << " (codec="
            << codec::kind_name(workload.snapshot_codec.kind)
            << ", post pipeline=" << pipeline << ")...\n";
  const auto post = experiment.run(async_post
                                       ? core::PipelineKind::kPostProcessingAsync
                                       : core::PipelineKind::kPostProcessing,
                                   workload, options);
  const auto insitu =
      experiment.run(core::PipelineKind::kInSitu, workload, options);
  const auto cmp = analysis::compare(post, insitu);

  util::TextTable t({"Metric", async_post ? "Post-proc (async)"
                                          : "Post-processing",
                     "In-situ"});
  t.add_row({"Time (s)", util::cell(cmp.time_post.value()),
             util::cell(cmp.time_insitu.value())});
  t.add_row({"Avg power (W)", util::cell(cmp.avg_power_post.value()),
             util::cell(cmp.avg_power_insitu.value())});
  t.add_row({"Peak power (W)", util::cell(cmp.peak_power_post.value()),
             util::cell(cmp.peak_power_insitu.value())});
  t.add_row({"Energy (kJ)", util::cell(cmp.energy_post.value() / 1000.0),
             util::cell(cmp.energy_insitu.value() / 1000.0)});
  std::cout << t.render();
  std::cout << "\nIn-situ: " << util::cell_percent(cmp.energy_savings())
            << " less energy, " << util::cell_percent(cmp.time_reduction())
            << " less time, +"
            << util::cell_percent(cmp.avg_power_increase())
            << " average power.\n";
  if (post.output.snapshot_bytes_raw.value() > 0) {
    const double ratio =
        post.output.snapshot_bytes_written.value() == 0
            ? 1.0
            : post.output.snapshot_bytes_raw.as_double() /
                  post.output.snapshot_bytes_written.as_double();
    std::cout << "Snapshots: "
              << post.output.snapshot_bytes_written.megabytes()
              << " MiB written ("
              << post.output.snapshot_bytes_raw.megabytes()
              << " MiB raw, ratio " << util::cell(ratio) << "x, codec="
            << codec::kind_name(workload.snapshot_codec.kind) << ").\n";
  }
  return 0;
}

int cmd_fio(const Args& args) {
  if (args.positional().empty()) {
    throw UsageError("fio needs a mode");
  }
  const std::map<std::string, fio::RwMode> modes{
      {"seq-read", fio::RwMode::kSequentialRead},
      {"rand-read", fio::RwMode::kRandomRead},
      {"seq-write", fio::RwMode::kSequentialWrite},
      {"rand-write", fio::RwMode::kRandomWrite}};
  const auto it = modes.find(args.positional()[0]);
  if (it == modes.end()) {
    throw UsageError("unknown fio mode '" + args.positional()[0] + "'");
  }
  fio::FioRunnerConfig config;
  config.device = opt_device(args);
  fio::FioJob job = fio::table3_job(it->second);
  if (args.has("size")) {
    // 32 GiB still fits the data area of the smallest modeled device
    // (NVRAM) under the aged layout; 8x the Table III jobs.
    const double mib = opt_double(args, "size", 0.0);
    if (!(mib >= 1.0 && mib <= 32768.0)) {
      throw UsageError("--size must be between 1 and 32768 MiB");
    }
    job.total_size = util::mebibytes(static_cast<std::uint64_t>(mib));
  }
  std::cerr << "running " << job.name << " (" << job.total_size.megabytes()
            << " MiB) on " << storage::device_name(config.device) << "...\n";
  const auto out = fio::FioRunner(config).run(job);
  util::TextTable t({"Metric", "Value"});
  t.add_row({"Execution time (s)", util::cell(out.result.execution_time.value())});
  t.add_row({"Full-system power (W)",
             util::cell(out.result.full_system_power.value())});
  t.add_row({"Disk dynamic power (W)",
             util::cell(out.result.disk_dynamic_power.value())});
  t.add_row({"Full-system energy (kJ)",
             util::cell(out.result.full_system_energy.value() / 1000.0)});
  std::cout << t.render();
  return 0;
}

int cmd_advise(const Args& args) {
  analysis::AccessPattern pattern;
  pattern.accesses = opt_count(args, "accesses", 1 << 18);
  pattern.bytes_per_access = util::kibibytes(opt_count(args, "kib", 16));
  pattern.random_fraction = opt_double(args, "random", 1.0);
  pattern.read_fraction = opt_double(args, "reads", 0.9);
  pattern.exploratory_analysis_required =
      !args.has("no-exploration");

  const analysis::Advisor advisor(machine::sandy_bridge_testbed(),
                                  power::hdd_power_params(),
                                  util::Watts{103.0});
  const auto rec = advisor.recommend(pattern);
  util::TextTable t(
      {"Strategy", "I/O time (s)", "I/O energy (kJ)", "Keeps exploration"});
  for (const auto& e : rec.all) {
    t.add_row({analysis::strategy_name(e.strategy),
               util::cell(e.io_time.value()),
               util::cell(e.io_energy.value() / 1000.0),
               e.preserves_exploration ? "yes" : "no"});
  }
  std::cout << t.render();
  std::cout << "\nRecommendation: "
            << analysis::strategy_name(rec.chosen.strategy) << " — "
            << rec.chosen.rationale << '\n';
  return 0;
}

int cmd_replay(const Args& args) {
  std::string text;
  if (args.has("builtin")) {
    const std::string which = args.get("builtin", std::string{});
    if (which == "mpas") {
      text = replay::mpas_like_trace();
    } else if (which == "xrage") {
      text = replay::xrage_like_trace();
    } else {
      throw UsageError("unknown builtin '" + which + "' (mpas|xrage)");
    }
  } else if (!args.positional().empty()) {
    std::ifstream file(args.positional()[0]);
    if (!file.good()) {
      throw UsageError("cannot open trace file " + args.positional()[0]);
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  } else {
    throw UsageError("replay needs a trace file or --builtin");
  }

  replay::AppTrace trace = replay::parse_trace(text);
  if (args.has("in-situ")) {
    trace = replay::to_in_situ(trace);
  }
  std::cerr << "replaying " << trace.name << " (" << trace.repeat
            << " steps)...\n";
  const auto result = replay::ReplayEngine{}.run(trace);
  util::TextTable t({"Metric", "Value"});
  t.add_row({"Application", result.app_name});
  t.add_row({"Time (s)", util::cell(result.duration.value())});
  t.add_row({"Avg power (W)", util::cell(result.average_power.value())});
  t.add_row({"Peak power (W)", util::cell(result.peak_power.value())});
  t.add_row({"Energy (kJ)", util::cell(result.energy.value() / 1000.0)});
  t.add_row({"Bytes written (MB)",
             util::cell(result.bytes_written.megabytes(), 2)});
  t.set_align(1, util::Align::kRight);
  std::cout << t.render();
  return 0;
}

int cmd_cluster(const Args& args) {
  net::ClusterSpec cluster;
  cluster.compute_nodes = opt_count(args, "nodes", 32);
  if ((cluster.compute_nodes & (cluster.compute_nodes - 1)) != 0) {
    throw UsageError("--nodes must be a power of two");
  }
  cluster.staging_nodes = opt_count(args, "staging", 2);
  cluster.pfs.storage_targets = opt_count(args, "targets", 4);
  const net::MultiNodeStudy study(cluster, core::case_study(1));
  const auto post = study.post_processing();
  const auto insitu = study.in_situ();
  const auto transit = study.in_transit();
  util::TextTable t({"Pipeline", "Time (s)", "Energy (MJ)", "vs post"});
  for (const auto* r : {&post, &transit, &insitu}) {
    t.add_row({r->pipeline, util::cell(r->duration.value()),
               util::cell(r->energy.value() / 1e6, 2),
               r == &post ? std::string("--")
                          : util::cell_percent(1.0 - r->energy.value() /
                                                         post.energy.value())});
  }
  std::cout << t.render();
  return 0;
}

int cmd_trace_template() {
  std::cout << replay::mpas_like_trace();
  return 0;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(',', pos);
    const std::string item = text.substr(
        pos, next == std::string::npos ? std::string::npos : next - pos);
    if (!item.empty()) {
      out.push_back(item);
    }
    if (next == std::string::npos) {
      break;
    }
    pos = next + 1;
  }
  return out;
}

/// A comma-separated list of whole numbers, each at least `min`.
std::vector<std::size_t> opt_counts(const Args& args, const std::string& key,
                                    const std::string& fallback,
                                    std::size_t min) {
  std::vector<std::size_t> out;
  for (const std::string& item : split_csv(opt_string(args, key, fallback))) {
    std::size_t n = 0;
    const char* end = item.data() + item.size();
    const auto [stop, error] = std::from_chars(item.data(), end, n);
    if (error != std::errc{} || stop != end || n < min || n > 1000000000) {
      throw UsageError("--" + key + " takes whole numbers of at least " +
                       std::to_string(min) + ", got '" + item + "'");
    }
    out.push_back(n);
  }
  return out;
}

int cmd_campaign(const Args& args) {
  campaign::CampaignSpec spec;
  for (const std::string& name :
       split_csv(opt_string(args, "pipelines", "post,insitu"))) {
    if (name == "post") {
      spec.pipelines.push_back(core::PipelineKind::kPostProcessing);
    } else if (name == "async") {
      spec.pipelines.push_back(core::PipelineKind::kPostProcessingAsync);
    } else if (name == "insitu") {
      spec.pipelines.push_back(core::PipelineKind::kInSitu);
    } else {
      throw UsageError("unknown pipeline '" + name +
                       "' (expected post|async|insitu)");
    }
  }
  spec.grids = opt_counts(args, "grids", "128", 4);
  for (const std::size_t p : opt_counts(args, "periods", "1,2,8", 1)) {
    spec.io_periods.push_back(static_cast<int>(p));
  }
  for (const std::size_t i : opt_counts(args, "iterations", "50", 1)) {
    spec.iterations.push_back(static_cast<int>(i));
  }
  for (const std::string& c : split_csv(opt_string(args, "codecs", "raw"))) {
    spec.codecs.push_back(parse_codec(c));
  }
  for (const std::string& t : split_csv(opt_string(args, "tolerances", ""))) {
    spec.tolerances.push_back(std::stod(t));
  }
  for (const std::string& d : split_csv(opt_string(args, "devices", "hdd"))) {
    if (const auto kind = storage::parse_device(d)) {
      spec.devices.push_back(*kind);
    } else {
      throw UsageError("unknown device '" + d +
                       "' (expected hdd|ssd|nvram|nvme|raid0)");
    }
  }
  for (const std::string& f : split_csv(opt_string(args, "freqs", ""))) {
    spec.frequencies.push_back(std::stod(f));
  }
  for (const std::string& f : split_csv(opt_string(args, "io-freqs", ""))) {
    spec.io_frequencies.push_back(std::stod(f));
  }
  for (const std::string& c : split_csv(opt_string(args, "caps", ""))) {
    spec.package_caps.push_back(std::stod(c));
  }
  for (const std::string& s : split_csv(opt_string(args, "io-scheds", ""))) {
    if (const auto kind = storage::parse_io_scheduler(s)) {
      spec.io_scheds.push_back(*kind);
    } else {
      throw UsageError("unknown io scheduler '" + s +
                       "' (expected device|noop|elevator|deadline)");
    }
  }
  spec.io_queue_depths = opt_counts(args, "io-queue-depths", "", 0);
  for (const std::size_t v : opt_counts(args, "viewers", "", 0)) {
    spec.viewer_counts.push_back(static_cast<int>(v));
  }
  const std::vector<campaign::CampaignConfig> configs = spec.expand();

  campaign::ResultCache cache;
  const std::string journal_path = opt_string(args, "journal", "");
  if (args.has("resume") && journal_path.empty()) {
    throw UsageError("--resume requires --journal=FILE");
  }
  std::optional<std::ofstream> journal_out;
  if (!journal_path.empty()) {
    if (args.has("resume")) {
      std::ifstream in(journal_path);
      if (in.good()) {
        const std::size_t loaded = cache.load_journal(in);
        std::cerr << "resumed " << loaded << " result(s) from "
                  << journal_path << '\n';
      }
      journal_out.emplace(journal_path, std::ios::app);
    } else {
      journal_out.emplace(journal_path, std::ios::trunc);
    }
    if (!journal_out->good()) {
      std::cerr << "error: cannot open journal " << journal_path << '\n';
      return 1;
    }
  }

  campaign::CampaignOptions options;
  options.threads = opt_count(args, "threads", 0, 0);
  options.shards = opt_count(args, "shards", 0, 0);
  options.job_limit = opt_count(args, "limit", 0, 0);

  std::cerr << "campaign: " << configs.size() << " config(s)...\n";
  const campaign::CampaignEngine engine(
      cache, journal_out ? &*journal_out : nullptr);
  const campaign::CampaignReport report = engine.run(configs, options);
  std::cerr << "campaign: " << report.unique_configs << " unique ("
            << report.duplicates << " duplicate(s)), " << report.cache_hits
            << " cache hit(s), " << report.executed << " executed in "
            << util::cell(report.host_seconds) << " s host ("
            << util::cell(report.configs_per_second()) << " configs/s, "
            << report.steals << " steal(s))\n";
  if (report.interrupted) {
    std::cerr << "campaign interrupted by --limit " << options.job_limit
              << "; rerun with --resume to continue\n";
    return 3;
  }

  const std::string out = opt_string(args, "out", "CAMPAIGN_results.json");
  std::ofstream file(out);
  if (file.good()) {
    campaign::write_campaign_json(file, report);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';

  if (args.has("whatif")) {
    const auto cases = campaign::pipeline_switch_cases(report);
    if (cases.empty()) {
      std::cout << "no post-processing/in-situ pairs in this sweep "
                   "(add both to --pipelines)\n";
    } else {
      util::TextTable t({"Config", "Post (kJ)", "In-situ (kJ)",
                         "Savings (kJ)", "Ratio"});
      for (const auto& sc : cases) {
        t.add_row({campaign::describe(report.configs[sc.post_index]),
                   util::cell(sc.whatif.post_energy.value() / 1000.0),
                   util::cell(sc.whatif.insitu_energy.value() / 1000.0),
                   util::cell(sc.whatif.energy_savings().value() / 1000.0),
                   util::cell(sc.whatif.energy_ratio())});
      }
      std::cout << t.render();
      // The "why": where the post-processing joules actually went.
      for (const auto& sc : cases) {
        const auto top = campaign::top_stage_consumers(
            report.results[sc.post_index], 3);
        std::cout << "  " << campaign::describe(report.configs[sc.post_index])
                  << ": post-processing loses "
                  << util::cell(sc.whatif.energy_savings().value() / 1000.0)
                  << " kJ; top consumers:";
        for (std::size_t k = 0; k < top.size(); ++k) {
          std::cout << (k == 0 ? " " : ", ") << top[k].stage << ' '
                    << util::cell(top[k].joules / 1000.0) << " kJ";
        }
        std::cout << '\n';
      }
      // Advise on the heaviest post-processing config's snapshot traffic.
      const auto heaviest = std::max_element(
          cases.begin(), cases.end(), [](const auto& a, const auto& b) {
            return a.whatif.energy_savings().value() <
                   b.whatif.energy_savings().value();
          });
      const analysis::AccessPattern pattern = campaign::access_pattern_for(
          report.results[heaviest->post_index]);
      const analysis::Advisor advisor(machine::sandy_bridge_testbed(),
                                      power::hdd_power_params(),
                                      util::Watts{103.0});
      const auto rec = advisor.recommend(pattern);
      std::cout << "\nAdvisor ("
                << campaign::describe(report.configs[heaviest->post_index])
                << "): " << analysis::strategy_name(rec.chosen.strategy)
                << " — " << rec.chosen.rationale << '\n';
    }
  }
  return 0;
}

int cmd_profile(const Args& args) {
  core::TestbedConfig config;
  config.package_cap = opt_cap(args);
  config.io_frequency_ghz = opt_double(args, "io-ghz", 0.0);
  config.device = opt_device(args);
  const std::string pipeline = opt_string(args, "pipeline", "sync");
  core::PipelineKind kind = core::PipelineKind::kPostProcessing;
  if (pipeline == "async") {
    kind = core::PipelineKind::kPostProcessingAsync;
  } else if (pipeline == "insitu") {
    kind = core::PipelineKind::kInSitu;
  } else if (pipeline != "sync") {
    throw UsageError("unknown --pipeline '" + pipeline +
                     "' (expected sync, async or insitu)");
  }
  core::PipelineOptions options;
  options.stage_buffers =
      opt_count(args, "stage-buffers", options.stage_buffers);
  const std::size_t top_n = opt_count(args, "top", 5);
  auto workload = core::case_study(opt_case(args));
  workload.snapshot_codec.kind =
      parse_codec(opt_string(args, "codec", "raw"));
  workload.snapshot_codec.tolerance =
      opt_double(args, "tolerance", workload.snapshot_codec.tolerance);

  obs::set_energy_profiler_enabled(true);
  std::cerr << "profiling " << workload.name << " (" << pipeline << ")...\n";
  const core::Experiment experiment(config);
  const auto metrics = experiment.run(kind, workload, options);
  const obs::EnergyReport& rep = metrics.attribution;

  util::TextTable t(
      {"Stage", "Busy (s)", "Static (kJ)", "Dynamic (kJ)", "Total (kJ)",
       "Share"});
  for (const obs::StageEnergy& s : rep.stages) {
    const double total = s.total().value();
    t.add_row({s.name, util::cell(s.busy.value()),
               util::cell(s.static_rails.total().value() / 1000.0),
               util::cell(s.dynamic_rails.total().value() / 1000.0),
               util::cell(total / 1000.0),
               util::cell_percent(rep.total().value() > 0.0
                                      ? total / rep.total().value()
                                      : 0.0)});
  }
  std::cout << t.render();
  std::cout << "\nTotal " << util::cell(rep.total().value() / 1000.0)
            << " kJ over " << util::cell(rep.duration.value()) << " s — "
            << util::cell_percent(rep.static_share())
            << " static floor, "
            << util::cell_percent(1.0 - rep.static_share())
            << " dynamic (conservation error " << rep.conservation_error
            << ").\n";
  const auto ranked = analysis::top_consumers(rep, top_n);
  std::cout << "Top consumers:";
  for (const auto& c : ranked) {
    std::cout << ' ' << c.stage << ' '
              << util::cell(c.joules.value() / 1000.0) << " kJ ("
              << util::cell_percent(c.share) << ')';
  }
  std::cout << '\n';

  const std::string out = opt_string(args, "out", "ENERGY_profile.json");
  std::ofstream file(out);
  if (file.good()) {
    analysis::write_energy_profile_json(file, rep, metrics.pipeline_name,
                                        metrics.case_name, top_n);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';
  return 0;
}

int cmd_serve(const Args& args) {
  const int viewers = static_cast<int>(opt_count(args, "viewers", 16));
  const int views = static_cast<int>(opt_count(args, "views", 4));
  if (views > viewers) {
    throw UsageError("expected 1 <= --views <= --viewers");
  }
  core::TestbedConfig bed_config;
  bed_config.package_cap = opt_cap(args);
  bed_config.device = opt_device(args);

  serve::ServeConfig config;
  config.base = core::case_study(opt_case(args));
  config.viewers = serve::default_fleet(viewers, views);
  config.cache_enabled = !args.has("no-cache");
  config.cache_capacity = static_cast<std::size_t>(opt_double(
      args, "cache-capacity", static_cast<double>(config.cache_capacity)));
  config.delivery_mb_per_s =
      opt_double(args, "link-mbps", config.delivery_mb_per_s);
  // A deterministic mid-run steer so the default profile exercises the
  // command queue: viewer 0 re-zooms and re-colors halfway through.
  serve::SteerCommand steer;
  steer.step = config.base.iterations / 2;
  steer.viewer = 0;
  steer.kind = serve::SteerKind::kRegion;
  steer.x0 = 0.25;
  steer.y0 = 0.25;
  steer.x1 = 0.75;
  steer.y1 = 0.75;
  config.commands.push_back(steer);
  steer.kind = serve::SteerKind::kPalette;
  steer.palette = vis::Palette::kGrayscale;
  config.commands.push_back(steer);

  std::cerr << "serving " << config.base.name << " to " << viewers
            << " viewers (" << views << " view groups, cache "
            << (config.cache_enabled ? "on" : "off") << ")...\n";
  const serve::ServeReport report =
      serve::run_serve_with_baseline(config, bed_config);

  util::TextTable t({"Viewer", "Frames", "MB", "Render (s)", "Render (J)",
                     "Encode (J)", "Deliver (J)", "Total (J)"});
  for (const serve::ViewerEnergy& row : report.viewers) {
    t.add_row({std::to_string(row.viewer), std::to_string(row.frames),
               util::cell(static_cast<double>(row.bytes) / 1e6),
               util::cell(row.render_share_s), util::cell(row.render_j),
               util::cell(row.encode_j), util::cell(row.deliver_j),
               util::cell(row.total_j())});
  }
  std::cout << t.render();
  std::cout << "\n" << report.frames_delivered << " frames delivered over "
            << util::cell(report.duration.value()) << " s — "
            << report.unique_views_rendered << " unique views, "
            << report.host_renders << " host renders, cache "
            << report.cache.hits << " hits / " << report.cache.misses
            << " misses.\n";
  std::cout << "Session " << util::cell(report.energy.value() / 1000.0)
            << " kJ: shared " << util::cell(report.shared_j / 1000.0)
            << " kJ, single-viewer baseline "
            << util::cell(report.single_viewer_j / 1000.0)
            << " kJ, marginal "
            << util::cell(report.marginal_j_per_viewer) << " J/viewer.\n";

  const std::string out = opt_string(args, "out", "SERVE_profile.json");
  std::ofstream file(out);
  if (file.good()) {
    serve::write_serve_profile_json(file, config, report);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';
  return 0;
}

int cmd_verify(const Args& args) {
  // Replay path: re-run one shrunk property counterexample from a
  // reproducer file written by a failing property check.
  if (args.has("qa-repro")) {
    const std::string path = args.require("qa-repro");
    qa::register_builtin_properties();
    const qa::CheckResult r = qa::replay_repro_file(path);
    std::cout << r.summary() << '\n';
    return r.passed ? 0 : 1;
  }

  qa::ConformanceOptions options;
  options.snapshot_codec.kind =
      parse_codec(opt_string(args, "codec", "raw"));
  options.snapshot_codec.tolerance = opt_double(
      args, "tolerance", options.snapshot_codec.tolerance);
  options.build_label = opt_string(args, "label", "default");

  std::cerr << "running differential oracles...\n";
  qa::register_builtin_oracles();
  std::cerr << "running paper-conformance suite (6 pipeline runs + stage "
               "runs)...\n";
  qa::ConformanceReport report = qa::run_conformance(options);
  report.oracles = qa::run_all_oracles();

  util::TextTable t({"Invariant", "Value", "Band", "Verdict"});
  for (const auto& inv : report.invariants) {
    std::ostringstream band;
    band << "[" << inv.lo << ", " << inv.hi << "]";
    t.add_row({inv.name, util::cell(inv.value, 4), band.str(),
               inv.pass ? "pass" : "FAIL"});
  }
  for (const auto& oracle : report.oracles) {
    t.add_row({oracle.name, "--", "oracle", oracle.ok ? "pass" : "FAIL"});
  }
  std::cout << t.render();
  for (const auto& oracle : report.oracles) {
    if (!oracle.ok) {
      std::cout << oracle.name << ": " << oracle.detail << '\n';
    }
  }

  const std::string out = opt_string(args, "out", "QA_conformance.json");
  std::ofstream file(out);
  if (file.good()) {
    report.write_json(file);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';
  std::cout << "\nverify: " << (report.all_pass() ? "PASS" : "FAIL") << " ("
            << report.failures() << " failure(s))\n";
  return report.all_pass() ? 0 : 1;
}

void usage() {
  std::cerr <<
      R"(greenvis — greenness analysis of visualization pipelines

commands:
  compare [--case 1|2|3] [--cap WATTS] [--io-ghz F]   run both pipelines
          [--pipeline sync|async] [--stage-buffers N]  (async = overlapped
          [--stage-queue-depth N]                      snapshot staging)
          [--device hdd|ssd|nvram|nvme|raid0]
          [--io-queue-depth N]
          [--io-sched device|noop|elevator|deadline]
  fio <seq-read|rand-read|seq-write|rand-write>      one fio job
      [--size MIB] [--device hdd|ssd|nvram|nvme|raid0]
  advise --accesses N --kib K --random F --reads F
      [--no-exploration]                              optimization advisor
  replay (<trace-file>|--builtin mpas|xrage) [--in-situ]
  cluster [--nodes N] [--staging S] [--targets T]     multi-node study
  campaign [--pipelines post,async,insitu] [--grids G,..] [--periods P,..]
      [--iterations N,..] [--codecs raw,delta,rle] [--tolerances T,..]
      [--devices hdd,ssd,nvram,nvme,raid0] [--freqs F,..] [--io-freqs F,..]
      [--caps W,..] [--io-scheds device,noop,elevator,deadline]
      [--io-queue-depths N,..] [--viewers N,..]
      [--out FILE] [--journal FILE] [--resume]
      [--limit N] [--shards N] [--threads N] [--whatif]
                                                      parameter sweep with a
                                                      deduplicating cache and
                                                      resumable journal
  profile [--case 1|2|3] [--pipeline sync|async|insitu] [--codec raw|delta|rle]
      [--tolerance T] [--stage-buffers N] [--cap W] [--io-ghz F]
      [--top N] [--out FILE]                          span-level joule
                                                      attribution table +
                                                      ENERGY_profile.json
  serve [--case 1|2|3] [--viewers N] [--views G] [--no-cache]
      [--cache-capacity N] [--link-mbps MB] [--cap W]
      [--device hdd|ssd|nvram|nvme|raid0] [--out FILE]
                                                      serve N viewer streams
                                                      with a deduplicating
                                                      frame cache; per-viewer
                                                      joules + marginal cost
                                                      in SERVE_profile.json
  trace-template                                      starter replay trace
  verify [--out FILE] [--codec raw|delta|rle] [--tolerance T] [--label L]
         [--qa-repro=FILE]                            qa conformance suite
                                                      (or replay a property
                                                      reproducer file)

global options (any command):
  --trace-out=FILE     write a Chrome trace-event JSON (chrome://tracing)
  --metrics-out=FILE   write the metrics snapshot (.csv → CSV, else JSON)
)";
}

/// Write the collected spans and metrics after the command body ran.
/// Returns false (and reports on stderr) when a file cannot be written.
bool export_observability(const Args& args) {
  bool ok = true;
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", std::string{});
    std::ofstream out(path);
    if (out.good()) {
      obs::Tracer::global().write_chrome_trace(out);
    }
    if (!out.good()) {
      std::cerr << "error: cannot write trace file " << path << '\n';
      ok = false;
    } else {
      std::cerr << "wrote trace to " << path << '\n';
    }
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", std::string{});
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    std::ofstream out(path);
    if (out.good()) {
      const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
      if (csv) {
        snap.write_csv(out);
      } else {
        snap.write_json(out);
      }
    }
    if (!out.good()) {
      std::cerr << "error: cannot write metrics file " << path << '\n';
      ok = false;
    } else {
      std::cerr << "wrote metrics to " << path << '\n';
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  const bool observe = args.has("trace-out") || args.has("metrics-out");
  if (observe) {
    obs::set_enabled(true);
  }
  try {
    int rc = 2;
    if (command == "compare") {
      rc = cmd_compare(args);
    } else if (command == "fio") {
      rc = cmd_fio(args);
    } else if (command == "advise") {
      rc = cmd_advise(args);
    } else if (command == "replay") {
      rc = cmd_replay(args);
    } else if (command == "cluster") {
      rc = cmd_cluster(args);
    } else if (command == "campaign") {
      rc = cmd_campaign(args);
    } else if (command == "profile") {
      rc = cmd_profile(args);
    } else if (command == "serve") {
      rc = cmd_serve(args);
    } else if (command == "trace-template") {
      rc = cmd_trace_template();
    } else if (command == "verify") {
      rc = cmd_verify(args);
    } else {
      usage();
      return 2;
    }
    if (observe && !export_observability(args) && rc == 0) {
      rc = 1;
    }
    return rc;
  } catch (const UsageError& e) {
    std::cerr << "greenvis " << command << ": " << e.what() << "\n\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
