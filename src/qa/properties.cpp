// Built-in property sweeps.
//
// These are the strongest invariants from the hand-rolled parameter sweeps
// in tests/property_test.cpp, ported onto qa::Gen so they cover the whole
// parameter space (not five hand-picked points) and gain shrinking plus
// reproducer files. They are registered by name so both the gtest property
// suite and `greenvis verify --qa-repro=` reach the same definitions.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "src/campaign/engine.hpp"
#include "src/codec/field_codec.hpp"
#include "src/core/experiment.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/io/compress.hpp"
#include "src/io/dataset.hpp"
#include "src/qa/domains.hpp"
#include "src/qa/registry.hpp"
#include "src/replay/trace_format.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/storage/async_device.hpp"
#include "src/storage/hdd.hpp"
#include "src/util/checksum.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd/simd.hpp"
#include "src/util/units.hpp"

namespace greenvis::qa {

namespace {

std::string ok() { return {}; }

template <typename T>
void add_property(const std::string& name, Gen<T> gen, Property<T> property,
                  std::function<std::string(const T&)> show = {}) {
  PropertyRegistry::global().add(
      name, [name, gen = std::move(gen), property = std::move(property),
             show = std::move(show)](const Config& config) {
        return check(name, gen, property, config, show);
      });
}

// ---- HDD: sequential throughput independent of request size ----
//
// Ports HddBlockSizeSweep.SequentialThroughputInvariant: streaming the
// outer zone, the achieved rate is ~1.18x the sustained rate for *any*
// block size — the per-request cost is dominated by transfer, not
// bookkeeping.

void register_hdd_properties() {
  const Gen<std::uint64_t> block_gen =
      fmap(uint_in(1, 256), [](std::uint64_t n) { return n * 4096; });

  add_property<std::uint64_t>(
      "hdd.seq_throughput_block_invariant", block_gen,
      [](const std::uint64_t& block) {
        storage::HddModel hdd{storage::HddParams{}};
        const std::uint64_t total = util::mebibytes(32).value();
        util::Seconds t{0.0};
        for (std::uint64_t off = 0; off < total; off += block) {
          const auto len = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(block, total - off));
          t = hdd.service(storage::IoRequest{storage::IoKind::kRead, off, len},
                          t);
        }
        const double rate = static_cast<double>(total) / t.value();
        const double expected =
            hdd.params().spec.sustained_rate.value() * 1.18;
        if (std::abs(rate - expected) > expected * 0.05) {
          std::ostringstream os;
          os << "sequential rate " << rate << " B/s is not within 5% of "
             << expected << " B/s";
          return os.str();
        }
        return ok();
      },
      [](const std::uint64_t& block) {
        return "block=" + std::to_string(block);
      });

  // Ports HddBlockSizeSweep.RandomServiceBoundedBelowBySettle: random
  // accesses can never beat the head-settle time, for any block size and
  // any seek pattern.
  using RandomCase = std::pair<std::uint64_t, std::vector<std::uint64_t>>;
  add_property<RandomCase>(
      "hdd.random_service_settle_bound",
      pair_of(block_gen, vector_of(uint_in(0, 399), 8, 48)),
      [](const RandomCase& rc) {
        const auto& [block, offsets_gib] = rc;
        storage::HddModel hdd{storage::HddParams{}};
        util::Seconds t{0.0};
        for (const std::uint64_t gib : offsets_gib) {
          const util::Seconds t2 = hdd.service(
              storage::IoRequest{storage::IoKind::kRead,
                                 gib * util::gibibytes(1).value(),
                                 static_cast<std::uint32_t>(block)},
              t);
          if ((t2 - t).value() < 0.0) {
            return std::string("service time went backwards");
          }
          t = t2;
        }
        const double per_req =
            t.value() / static_cast<double>(offsets_gib.size());
        if (per_req <= hdd.params().spec.settle_time.value()) {
          std::ostringstream os;
          os << "random request averaged " << per_req
             << " s, at or below the settle time "
             << hdd.params().spec.settle_time.value() << " s";
          return os.str();
        }
        return ok();
      },
      [](const RandomCase& rc) {
        return "block=" + std::to_string(rc.first) +
               " requests=" + std::to_string(rc.second.size());
      });
}

// ---- compression: error bound holds for every field and bound ----
//
// Ports CompressSweep.LossyBoundAlwaysHolds over generated fields instead
// of five fixed seeds, including degenerate 1x1 and constant fields.

void register_compress_properties() {
  using CompressCase = std::pair<util::Field2D, double>;
  add_property<CompressCase>(
      "compress.lossy_round_trip",
      pair_of(smooth_field(1, 40, 25.0, 5.0),
              element_of<double>({1e-9, 1e-6, 1e-3, 0.25, 2.0})),
      [](const CompressCase& cc) {
        const auto& [f, bound] = cc;
        const auto blob = io::compress_field(
            f, io::CompressConfig{io::CompressionMode::kLossyAbsBound, bound});
        const util::Field2D g = io::decompress_field(blob);
        for (std::size_t k = 0; k < f.size(); ++k) {
          const double err = std::abs(f.values()[k] - g.values()[k]);
          if (err > bound * (1.0 + 1e-9)) {
            std::ostringstream os;
            os << "value " << k << " off by " << err << " > bound " << bound;
            return os.str();
          }
        }
        if (!(io::decompress_field(io::compress_field(
                  f, io::CompressConfig{})) == f)) {
          return std::string("lossless mode is not bit exact");
        }
        return ok();
      },
      [](const CompressCase& cc) {
        return std::to_string(cc.first.nx()) + "x" +
               std::to_string(cc.first.ny()) +
               " bound=" + std::to_string(cc.second);
      });

  // The chunked snapshot codec honors the same contract: raw/rle exact,
  // delta within tolerance, for every field shape and chunk edge.
  using CodecCase = std::tuple<util::Field2D, std::uint64_t, double>;
  add_property<CodecCase>(
      "codec.container_round_trip",
      tuple_of(smooth_field(1, 48, 50.0, 10.0), uint_in(0, 2),
               element_of<double>({1e-6, 1e-3, 0.5})),
      [](const CodecCase& cc) {
        const auto& [f, kind_index, tolerance] = cc;
        codec::CodecConfig config;
        config.kind = static_cast<codec::Kind>(kind_index);
        config.tolerance = tolerance;
        codec::FieldCodec codec{config};
        const auto blob = codec.encode(f);
        const util::Field2D g = codec::FieldCodec::decode2d(blob);
        if (g.nx() != f.nx() || g.ny() != f.ny()) {
          return std::string("decoded dimensions differ");
        }
        const double bound =
            config.kind == codec::Kind::kDelta ? tolerance * (1.0 + 1e-9)
                                               : 0.0;
        for (std::size_t k = 0; k < f.size(); ++k) {
          const double err = std::abs(f.values()[k] - g.values()[k]);
          if (err > bound) {
            std::ostringstream os;
            os << codec::kind_name(config.kind) << " value " << k
               << " off by " << err << " > " << bound;
            return os.str();
          }
        }
        return ok();
      },
      [](const CodecCase& cc) {
        return std::to_string(std::get<0>(cc).nx()) + "x" +
               std::to_string(std::get<0>(cc).ny()) + " kind=" +
               std::to_string(std::get<1>(cc)) +
               " tol=" + std::to_string(std::get<2>(cc));
      });
}

// ---- replay traces: arbitrary corruption fails cleanly ----
//
// Random byte flips over a valid trace must either still parse or raise
// ContractViolation (TraceParseError) — never crash, hang, or throw
// anything else. (Truncation coverage lives in tests/replay_test.cpp,
// which sweeps every prefix length exhaustively.)

void register_replay_properties() {
  using Flips = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  add_property<Flips>(
      "replay.trace_flip_robust",
      vector_of(pair_of(uint_in(0, 1ULL << 20), uint_in(0, 255)), 1, 8),
      [](const Flips& flips) {
        std::string text = replay::mpas_like_trace();
        for (const auto& [pos, byte] : flips) {
          text[static_cast<std::size_t>(pos) % text.size()] =
              static_cast<char>(byte);
        }
        try {
          const replay::AppTrace trace = replay::parse_trace(text);
          // A still-valid trace must survive its own round trip.
          (void)replay::parse_trace(replay::format_trace(trace));
        } catch (const util::ContractViolation&) {
          // Clean rejection is a pass.
        } catch (const std::exception& e) {
          return std::string("non-contract exception: ") + e.what();
        }
        return ok();
      },
      [](const Flips& flips) {
        std::ostringstream os;
        os << flips.size() << " flip(s):";
        for (const auto& [pos, byte] : flips) {
          os << " @" << pos << "<-" << byte;
        }
        return os.str();
      });
}

// ---- async staging: overlap must never change what reaches disk ----
//
// For any iteration count / io period / ring size / chunk edge / codec
// kind, the async pipeline must terminate (no backpressure deadlock),
// drain fully (every written step readable afterwards), and leave exactly
// the bytes the sync pipeline leaves.

void register_pipeline_properties() {
  using AsyncCase =
      std::tuple<core::CaseStudyConfig, std::uint64_t, std::uint64_t,
                 std::uint64_t>;
  add_property<AsyncCase>(
      "pipeline.async_matches_sync",
      tuple_of(small_case_config(), uint_in(1, 4),
               element_of<std::uint64_t>({8, 16, 32}), uint_in(0, 2)),
      [](const AsyncCase& ac) {
        core::CaseStudyConfig config = std::get<0>(ac);
        const std::uint64_t buffers = std::get<1>(ac);
        config.snapshot_codec.chunk_edge = std::get<2>(ac);
        config.snapshot_codec.kind = static_cast<codec::Kind>(std::get<3>(ac));
        const auto run = [&](bool async_mode) {
          core::Testbed bed;
          core::PipelineOptions options;
          options.host_threads = 2;
          options.stage_buffers = buffers;
          core::PipelineOutput out = core::run_pipeline(
              bed, config,
              {.sink = async_mode ? core::SnapshotSink::kStaged
                                  : core::SnapshotSink::kSync},
              options);
          std::vector<std::uint64_t> sums;
          io::TimestepReader reader(bed.fs(), config.dataset);
          for (int step = 0; step < config.iterations; ++step) {
            if (config.is_io_step(step)) {
              sums.push_back(util::fnv1a64(reader.read_step(step)));
            }
          }
          return std::pair<core::PipelineOutput, std::vector<std::uint64_t>>{
              std::move(out), std::move(sums)};
        };
        const auto [sync_out, sync_sums] = run(false);
        const auto [async_out, async_sums] = run(true);
        if (async_sums.size() != sync_sums.size()) {
          return std::string("async drain lost snapshots: ") +
                 std::to_string(async_sums.size()) + " vs " +
                 std::to_string(sync_sums.size());
        }
        if (async_sums != sync_sums) {
          return std::string("on-disk bytes differ between sync and async");
        }
        if (async_out.image_digests != sync_out.image_digests) {
          return std::string("image digests differ between sync and async");
        }
        if (async_out.snapshot_bytes_written.value() !=
                sync_out.snapshot_bytes_written.value() ||
            async_out.snapshot_bytes_read.value() !=
                sync_out.snapshot_bytes_read.value() ||
            async_out.snapshot_bytes_raw.value() !=
                sync_out.snapshot_bytes_raw.value()) {
          return std::string("snapshot accounting differs");
        }
        return ok();
      },
      [](const AsyncCase& ac) {
        const auto& config = std::get<0>(ac);
        std::ostringstream os;
        os << "iters=" << config.iterations << " period=" << config.io_period
           << " grid=" << config.problem.nx << " buffers=" << std::get<1>(ac)
           << " chunk=" << std::get<2>(ac) << " kind=" << std::get<3>(ac);
        return os.str();
      });
}

// ---- campaign: one result set, however you obtain it ----
//
// For any small sweep spec, running the campaign cold, replaying it warm,
// interrupting it with a job limit and resuming through the journal, and
// varying the work-stealing shard count must all render byte-identical
// campaign JSON. This is the engine's whole contract: the cache and journal
// are invisible to the results.

void register_campaign_properties() {
  struct ReplayCase {
    campaign::CampaignSpec spec;
    std::size_t shards_cold{1};
    std::size_t shards_resume{1};
    std::size_t limit{1};
  };
  const Gen<ReplayCase> gen = [](Choices& c) {
    ReplayCase rc;
    rc.spec.pipelines = {core::PipelineKind::kPostProcessing,
                         core::PipelineKind::kInSitu};
    if (c.draw_bool()) {
      rc.spec.pipelines.push_back(core::PipelineKind::kPostProcessingAsync);
    }
    rc.spec.grids = {16 + 4 * static_cast<std::size_t>(c.draw_below(3))};
    rc.spec.iterations = {static_cast<int>(c.draw_range(1, 3))};
    rc.spec.io_periods = {static_cast<int>(c.draw_range(1, 2))};
    rc.spec.codecs = {static_cast<codec::Kind>(c.draw_below(3))};
    rc.shards_cold = 1 + static_cast<std::size_t>(c.draw_below(4));
    rc.shards_resume = 1 + static_cast<std::size_t>(c.draw_below(4));
    rc.limit = 1 + static_cast<std::size_t>(c.draw_below(3));
    return rc;
  };
  add_property<ReplayCase>(
      "campaign.replay_identical", gen,
      [](const ReplayCase& rc) {
        std::vector<campaign::CampaignConfig> configs = rc.spec.expand();
        for (campaign::CampaignConfig& c : configs) {
          c.frame = 32;  // keep host render cost out of the sweep
          c.sweeps = 8;
        }
        const auto render = [](const campaign::CampaignReport& report) {
          std::ostringstream os;
          campaign::write_campaign_json(os, report);
          return os.str();
        };
        campaign::CampaignOptions options;
        options.threads = 2;
        options.shards = rc.shards_cold;

        campaign::ResultCache cold_cache;
        const campaign::CampaignEngine cold(cold_cache);
        const auto cold_report = cold.run(configs, options);
        const std::string cold_json = render(cold_report);

        const auto warm_report = cold.run(configs, options);
        if (warm_report.executed != 0) {
          return std::string("warm replay re-executed ") +
                 std::to_string(warm_report.executed) + " configs";
        }
        if (render(warm_report) != cold_json) {
          return std::string("warm JSON differs from cold");
        }

        // Interrupt a fresh campaign after `limit` fresh configs, then
        // resume from its journal with a different shard count.
        std::ostringstream journal;
        campaign::ResultCache partial_cache;
        const campaign::CampaignEngine partial(partial_cache, &journal);
        campaign::CampaignOptions limited = options;
        limited.job_limit = rc.limit;
        const auto partial_report = partial.run(configs, limited);
        if (partial_report.interrupted &&
            partial_report.executed != rc.limit) {
          return std::string("interrupted run executed ") +
                 std::to_string(partial_report.executed) + " != limit " +
                 std::to_string(rc.limit);
        }

        campaign::ResultCache resumed_cache;
        std::istringstream replayed(journal.str());
        if (resumed_cache.load_journal(replayed) !=
            partial_report.executed) {
          return std::string("journal did not round-trip every result");
        }
        const campaign::CampaignEngine resumed(resumed_cache);
        campaign::CampaignOptions resume_options = options;
        resume_options.shards = rc.shards_resume;
        const auto resumed_report = resumed.run(configs, resume_options);
        if (resumed_report.interrupted) {
          return std::string("resumed run still interrupted");
        }
        if (resumed_report.executed + partial_report.executed !=
            cold_report.executed) {
          return std::string("resume re-ran journaled configs");
        }
        if (render(resumed_report) != cold_json) {
          return std::string("resumed JSON differs from cold");
        }
        return ok();
      },
      [](const ReplayCase& rc) {
        std::ostringstream os;
        os << "pipelines=" << rc.spec.pipelines.size()
           << " grid=" << rc.spec.grids.front()
           << " iters=" << rc.spec.iterations.front()
           << " period=" << rc.spec.io_periods.front()
           << " codec=" << static_cast<int>(rc.spec.codecs.front())
           << " shards=" << rc.shards_cold << "/" << rc.shards_resume
           << " limit=" << rc.limit;
        return os.str();
      });
}

// ---- energy attribution: every joule lands somewhere, exactly once ----
//
// For any small config on any pipeline and device, the span-level
// attributor must conserve energy: the per-stage joules (including the
// idle bucket) sum to the PowerModel's exact end-to-end integral within
// 1e-9 relative, and the static/dynamic split partitions every stage.

void register_energy_properties() {
  struct EnergyCase {
    core::CaseStudyConfig config;
    core::PipelineKind kind{core::PipelineKind::kPostProcessing};
    storage::DeviceKind device{storage::DeviceKind::kHdd};
    std::uint64_t buffers{1};
  };
  const Gen<EnergyCase> gen = [](Choices& c) {
    EnergyCase ec;
    ec.config = small_case_config()(c);
    ec.kind = static_cast<core::PipelineKind>(c.draw_below(3));
    ec.device = static_cast<storage::DeviceKind>(c.draw_below(3));
    ec.buffers = 1 + c.draw_below(4);
    return ec;
  };
  add_property<EnergyCase>(
      "energy.conservation", gen,
      [](const EnergyCase& ec) {
        core::TestbedConfig base;
        base.device = ec.device;
        core::PipelineOptions options;
        options.host_threads = 2;
        options.stage_buffers = ec.buffers;
        const core::PipelineMetrics m =
            core::Experiment(base).run(ec.kind, ec.config, options);
        const obs::EnergyReport& rep = m.attribution;
        if (!(rep.conservation_error <= 1e-9)) {
          std::ostringstream os;
          os << "conservation error " << rep.conservation_error << " > 1e-9";
          return os.str();
        }
        double stage_sum = 0.0;
        for (const obs::StageEnergy& s : rep.stages) {
          stage_sum += s.total().value();
          const double split =
              s.static_rails.total().value() + s.dynamic_rails.total().value();
          const double split_err = std::abs(split - s.total().value()) /
                                   std::max(1.0, std::abs(s.total().value()));
          if (split_err > 1e-9) {
            return std::string("stage ") + s.name +
                   " static+dynamic does not partition its total";
          }
        }
        const double total = rep.total().value();
        const double sum_err =
            std::abs(stage_sum - total) / std::max(1.0, std::abs(total));
        if (sum_err > 1e-9) {
          std::ostringstream os;
          os << "stage sum " << stage_sum << " J differs from report total "
             << total << " J (rel " << sum_err << ")";
          return os.str();
        }
        if (rep.stage(obs::kEnergyIdle) == nullptr) {
          return std::string("report is missing the idle bucket");
        }
        return ok();
      },
      [](const EnergyCase& ec) {
        std::ostringstream os;
        os << "kind=" << static_cast<int>(ec.kind)
           << " device=" << storage::device_name(ec.device)
           << " iters=" << ec.config.iterations
           << " period=" << ec.config.io_period
           << " grid=" << ec.config.problem.nx << " buffers=" << ec.buffers;
        return os.str();
      });
}

// ---- simd kernels: every ISA path bit-equals the scalar reference ----
//
// Direct per-kernel differentials against table_for(kScalar) over random
// lengths, offsets, and values — one property per kernel family, each
// sweeping every supported path. On a scalar-only host the inner loops are
// empty and the properties pass vacuously.

bool doubles_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void register_simd_properties() {
  namespace simd = util::simd;

  struct StencilCase {
    std::vector<double> data;  // 7 rows of length n
    std::size_t n{2};
    std::size_t ib{0};
    std::size_t ie{2};
    double tr{0.5};
    double acc0{0.0};
  };
  const Gen<StencilCase> stencil_gen = [](Choices& c) {
    StencilCase sc;
    sc.n = static_cast<std::size_t>(c.draw_range(2, 97));
    sc.ib = std::min(sc.n - 1, c.draw_below(4));
    sc.ie = std::max(sc.ib + 1, sc.n - c.draw_below(4));
    sc.tr = c.draw_real(0.01, 2.0);
    sc.acc0 = c.draw_real(0.0, 10.0);
    util::Xoshiro256 rng{c.draw_below(1ULL << 32)};
    sc.data.resize(7 * sc.n);
    for (double& v : sc.data) {
      v = rng.uniform(-100.0, 100.0);
    }
    return sc;
  };
  add_property<StencilCase>(
      "simd.stencil_rows_match_scalar", stencil_gen,
      [](const StencilCase& sc) {
        const std::size_t n = sc.n;
        const double* rhs = sc.data.data();
        const double* row = rhs + n;
        const double* row_s = row + n;
        const double* row_n = row_s + n;
        const double* row_d = row_n + n;
        const double* row_u = row_d + n;
        const double inv = 1.0 / (1.0 + 4.0 * sc.tr);
        const simd::KernelTable& ref = simd::table_for(simd::IsaPath::kScalar);
        for (const simd::IsaPath path : simd::supported_paths()) {
          if (path == simd::IsaPath::kScalar) {
            continue;
          }
          const simd::KernelTable& tbl = simd::table_for(path);
          std::vector<double> want(n, 0.0), got(n, 0.0);
          ref.jacobi2d_row(want.data(), rhs, row, row_s, row_n, sc.tr, inv,
                           sc.ib, sc.ie);
          tbl.jacobi2d_row(got.data(), rhs, row, row_s, row_n, sc.tr, inv,
                           sc.ib, sc.ie);
          if (!doubles_equal(want, got)) {
            return std::string(simd::path_name(path)) + ": jacobi2d_row";
          }
          std::fill(want.begin(), want.end(), 0.0);
          std::fill(got.begin(), got.end(), 0.0);
          ref.jacobi3d_row(want.data(), rhs, row, row_s, row_n, row_d, row_u,
                           sc.tr, inv, sc.ib, sc.ie);
          tbl.jacobi3d_row(got.data(), rhs, row, row_s, row_n, row_d, row_u,
                           sc.tr, inv, sc.ib, sc.ie);
          if (!doubles_equal(want, got)) {
            return std::string(simd::path_name(path)) + ": jacobi3d_row";
          }
          const double d2a = ref.defect2d_row(rhs, row, row_s, row_n, sc.tr,
                                              sc.ib, sc.ie, sc.acc0);
          const double d2b = tbl.defect2d_row(rhs, row, row_s, row_n, sc.tr,
                                              sc.ib, sc.ie, sc.acc0);
          if (std::memcmp(&d2a, &d2b, sizeof(double)) != 0) {
            return std::string(simd::path_name(path)) + ": defect2d_row";
          }
          const double d3a =
              ref.defect3d_row(rhs, row, row_s, row_n, row_d, row_u, sc.tr,
                               sc.ib, sc.ie, sc.acc0);
          const double d3b =
              tbl.defect3d_row(rhs, row, row_s, row_n, row_d, row_u, sc.tr,
                               sc.ib, sc.ie, sc.acc0);
          if (std::memcmp(&d3a, &d3b, sizeof(double)) != 0) {
            return std::string(simd::path_name(path)) + ": defect3d_row";
          }
        }
        return ok();
      },
      [](const StencilCase& sc) {
        std::ostringstream os;
        os << "n=" << sc.n << " ib=" << sc.ib << " ie=" << sc.ie
           << " tr=" << sc.tr;
        return os.str();
      });

  struct CodecCase {
    std::vector<double> values;
    double tol{1e-3};
  };
  const Gen<CodecCase> codec_gen = [](Choices& c) {
    CodecCase cc;
    const auto n = static_cast<std::size_t>(c.draw_range(2, 200));
    const double tols[] = {1e-6, 1e-3, 0.5};
    cc.tol = tols[c.draw_below(3)];
    const double amp = c.draw_real(0.0, 60.0);
    util::Xoshiro256 rng{c.draw_below(1ULL << 32)};
    cc.values.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cc.values[i] = amp * std::sin(0.1 * static_cast<double>(i)) +
                     rng.uniform(-1.0, 1.0);
    }
    return cc;
  };
  add_property<CodecCase>(
      "simd.codec_kernels_match_scalar", codec_gen,
      [](const CodecCase& cc) {
        const std::size_t n = cc.values.size();
        const double* v = cc.values.data();
        const double inv = 1.0 / cc.tol;
        const simd::KernelTable& ref = simd::table_for(simd::IsaPath::kScalar);

        const simd::ScanResult scan_ref = ref.scan_abs_finite(v, n);
        std::vector<std::int64_t> q_ref(n);
        ref.quantize(v, q_ref.data(), inv, n);
        std::vector<std::uint64_t> zz_ref(n);
        const std::uint64_t or_ref =
            ref.delta_zigzag(q_ref.data(), zz_ref.data(), n);
        const auto bits = static_cast<std::uint8_t>(
            std::max<unsigned>(1, static_cast<unsigned>(std::bit_width(or_ref))));
        std::vector<std::uint64_t> words_ref((n * 64 + 63) / 64 + 1);
        const std::size_t nw_ref =
            ref.pack_deltas(zz_ref.data(), bits, words_ref.data(), n);
        std::vector<std::uint8_t> packed(nw_ref * 8);
        for (std::size_t i = 0; i < nw_ref; ++i) {
          for (int b = 0; b < 8; ++b) {
            packed[i * 8 + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(words_ref[i] >> (8 * b));
          }
        }
        std::vector<std::int64_t> deltas_ref(n, 0);
        ref.unpack_deltas(packed.data(), nw_ref, bits, deltas_ref.data(), n);
        // Ground truth: the unpacked deltas must recover the quanta.
        std::int64_t qv = q_ref[0];
        for (std::size_t i = 1; i < n; ++i) {
          qv += deltas_ref[i];
          if (qv != q_ref[i]) {
            return std::string("scalar pack/unpack round trip broke at ") +
                   std::to_string(i);
          }
        }

        for (const simd::IsaPath path : simd::supported_paths()) {
          if (path == simd::IsaPath::kScalar) {
            continue;
          }
          const simd::KernelTable& tbl = simd::table_for(path);
          const char* name = simd::path_name(path);
          const simd::ScanResult scan = tbl.scan_abs_finite(v, n);
          if (scan.finite != scan_ref.finite ||
              std::memcmp(&scan.max_abs, &scan_ref.max_abs,
                          sizeof(double)) != 0) {
            return std::string(name) + ": scan_abs_finite";
          }
          std::vector<std::int64_t> q(n);
          tbl.quantize(v, q.data(), inv, n);
          if (q != q_ref) {
            return std::string(name) + ": quantize";
          }
          std::vector<std::uint64_t> zz(n);
          if (tbl.delta_zigzag(q.data(), zz.data(), n) != or_ref ||
              zz != zz_ref) {
            return std::string(name) + ": delta_zigzag";
          }
          std::vector<std::uint64_t> words(words_ref.size());
          if (tbl.pack_deltas(zz.data(), bits, words.data(), n) != nw_ref ||
              std::memcmp(words.data(), words_ref.data(), nw_ref * 8) != 0) {
            return std::string(name) + ": pack_deltas";
          }
          std::vector<std::int64_t> deltas(n, 0);
          tbl.unpack_deltas(packed.data(), nw_ref, bits, deltas.data(), n);
          if (deltas != deltas_ref) {
            return std::string(name) + ": unpack_deltas";
          }
        }
        return ok();
      },
      [](const CodecCase& cc) {
        return "n=" + std::to_string(cc.values.size()) +
               " tol=" + std::to_string(cc.tol);
      });

  struct TriCase {
    std::size_t nx{2}, ny{2}, nz{2};
    std::vector<double> field;
    std::vector<double> xs, ys, zs;
  };
  const Gen<TriCase> tri_gen = [](Choices& c) {
    TriCase tc;
    tc.nx = static_cast<std::size_t>(c.draw_range(2, 9));
    tc.ny = static_cast<std::size_t>(c.draw_range(2, 9));
    tc.nz = static_cast<std::size_t>(c.draw_range(2, 9));
    const auto npts = static_cast<std::size_t>(c.draw_range(1, 40));
    util::Xoshiro256 rng{c.draw_below(1ULL << 32)};
    tc.field.resize(tc.nx * tc.ny * tc.nz);
    for (double& f : tc.field) {
      f = rng.uniform(-5.0, 5.0);
    }
    tc.xs.resize(npts);
    tc.ys.resize(npts);
    tc.zs.resize(npts);
    for (std::size_t i = 0; i < npts; ++i) {
      // Over-range on purpose: the clamp must match bit-for-bit too.
      tc.xs[i] = rng.uniform(-3.0, static_cast<double>(tc.nx) + 3.0);
      tc.ys[i] = rng.uniform(-3.0, static_cast<double>(tc.ny) + 3.0);
      tc.zs[i] = rng.uniform(-3.0, static_cast<double>(tc.nz) + 3.0);
    }
    return tc;
  };
  add_property<TriCase>(
      "simd.trilinear_match_scalar", tri_gen,
      [](const TriCase& tc) {
        const std::size_t npts = tc.xs.size();
        const simd::KernelTable& ref = simd::table_for(simd::IsaPath::kScalar);
        std::vector<double> want(npts, 0.0);
        ref.trilinear_block(tc.field.data(), tc.nx, tc.ny, tc.nz,
                            tc.xs.data(), tc.ys.data(), tc.zs.data(),
                            want.data(), npts);
        for (const simd::IsaPath path : simd::supported_paths()) {
          if (path == simd::IsaPath::kScalar) {
            continue;
          }
          const simd::KernelTable& tbl = simd::table_for(path);
          std::vector<double> got(npts, 0.0);
          tbl.trilinear_block(tc.field.data(), tc.nx, tc.ny, tc.nz,
                              tc.xs.data(), tc.ys.data(), tc.zs.data(),
                              got.data(), npts);
          if (!doubles_equal(want, got)) {
            return std::string(simd::path_name(path)) + ": trilinear_block";
          }
        }
        return ok();
      },
      [](const TriCase& tc) {
        std::ostringstream os;
        os << tc.nx << "x" << tc.ny << "x" << tc.nz
           << " npts=" << tc.xs.size();
        return os.str();
      });
}

// ---- storage: scheduler invariants for every queue depth ----
//
// Random aligned request streams through the async block layer under all
// three explicit schedulers: every submission completes exactly once, bytes
// are conserved, single-channel completion times never regress, and the
// deadline scheduler never services a fresh request while an older expired
// one is waiting (bounded starvation).

void register_storage_properties() {
  using SchedCase = std::pair<std::vector<storage::IoRequest>, std::uint64_t>;
  add_property<SchedCase>(
      "storage.scheduler_invariants",
      pair_of(io_request_stream(1, 32, util::gibibytes(4).value(),
                                512 * 1024),
              uint_in(0, 6)),
      [](const SchedCase& sc) {
        const auto& [requests, depth] = sc;
        for (const storage::IoSchedulerKind sched :
             {storage::IoSchedulerKind::kNoop,
              storage::IoSchedulerKind::kElevator,
              storage::IoSchedulerKind::kDeadline}) {
          storage::HddModel hdd{storage::HddParams{}};
          storage::AsyncDeviceConfig config;
          config.queue_depth = static_cast<std::size_t>(depth);
          config.scheduler = sched;
          storage::AsyncBlockDevice queue(hdd, config);
          std::uint64_t want_read = 0;
          std::uint64_t want_written = 0;
          for (std::size_t i = 0; i < requests.size(); ++i) {
            queue.submit(requests[i],
                         util::Seconds{0.0005 * static_cast<double>(i)});
            (requests[i].kind == storage::IoKind::kRead ? want_read
                                                        : want_written) +=
                requests[i].length;
          }
          (void)queue.drain();
          std::vector<storage::CompletionRecord> records;
          queue.poll(records);

          const std::string where =
              std::string(storage::io_scheduler_name(sched)) +
              " qd=" + std::to_string(depth);
          if (records.size() != requests.size()) {
            return where + ": " + std::to_string(records.size()) +
                   " completions for " + std::to_string(requests.size()) +
                   " submissions";
          }
          std::vector<bool> seen(requests.size() + 1, false);
          std::uint64_t got_read = 0;
          std::uint64_t got_written = 0;
          for (const storage::CompletionRecord& r : records) {
            if (r.handle == 0 || r.handle > requests.size() ||
                seen[static_cast<std::size_t>(r.handle)]) {
              return where + ": handle " + std::to_string(r.handle) +
                     " missing or completed twice";
            }
            seen[static_cast<std::size_t>(r.handle)] = true;
            if (!r.ok) {
              return where + ": unexpected error on a healthy device: " +
                     r.error;
            }
            if (r.start < r.submit || r.complete < r.start) {
              return where + ": timestamps regress on handle " +
                     std::to_string(r.handle);
            }
            (r.kind == storage::IoKind::kRead ? got_read : got_written) +=
                r.length;
          }
          if (got_read != want_read || got_written != want_written) {
            return where + ": byte conservation failed";
          }
          // Single service channel: completions are appended in service
          // order and each pick starts at the previous completion, so
          // completion times must be nondecreasing.
          for (std::size_t i = 1; i < records.size(); ++i) {
            if (records[i].complete < records[i - 1].complete) {
              return where + ": completion times regressed at record " +
                     std::to_string(i);
            }
          }
          if (sched == storage::IoSchedulerKind::kDeadline) {
            // Bounded starvation: when record i started service (the pick
            // happened at the previous record's completion), no *older*
            // request whose deadline had already expired may still have
            // been waiting. Serviced-later record j with an expired
            // deadline at that pick must be younger than i.
            const util::Seconds window = config.deadline_window;
            for (std::size_t i = 1; i < records.size(); ++i) {
              const util::Seconds pick = records[i - 1].complete;
              for (std::size_t j = i + 1; j < records.size(); ++j) {
                if (records[j].submit + window <= pick &&
                    records[j].submit < records[i].submit) {
                  return where + ": starved an expired request (handle " +
                         std::to_string(records[j].handle) +
                         ") past its deadline";
                }
              }
            }
          }
        }
        return ok();
      },
      [](const SchedCase& sc) {
        return "requests=" + std::to_string(sc.first.size()) +
               " qd=" + std::to_string(sc.second);
      });
}

// ---- serving: join/leave/steer schedules, exactly-once, never stale ----
//
// For any viewer fleet (random join/leave windows, shared and distinct
// view groups) under any steering schedule, the serving session must
// terminate (no delivery-ring deadlock), deliver exactly one frame per
// active viewer per frame step and none outside [join, leave), keep every
// frame key's payload consistent, and produce bit-identical deliveries and
// virtual time with the host frame cache on and off (a cache hit is never
// stale: keys fold in the field digest).

void register_serve_properties() {
  struct ServeCase {
    core::CaseStudyConfig config;
    std::vector<serve::ViewerSchedule> viewers;
    std::vector<serve::SteerCommand> commands;
    std::uint64_t buffers{2};
    std::uint64_t capacity{16};
  };
  const Gen<ServeCase> gen = [](Choices& c) {
    ServeCase sc;
    sc.config = small_case_config()(c);
    const auto steps = static_cast<std::uint64_t>(sc.config.iterations);
    const auto n = static_cast<int>(c.draw_range(1, 6));
    for (int i = 0; i < n; ++i) {
      serve::ViewerSchedule v;
      v.viewer = i;
      v.join_step = static_cast<int>(c.draw_below(steps));
      if (c.draw_bool()) {
        v.leave_step = v.join_step + static_cast<int>(c.draw_below(steps + 1));
      }
      // Three view groups so some viewers share a raster and some don't;
      // small frames keep the host cost of many cases down.
      const std::uint64_t group = c.draw_below(3);
      v.params.width = 32;
      v.params.height = 32;
      v.params.iso_levels = 2 + group;
      v.params.roi_x0 = 0.1 * static_cast<double>(group);
      sc.viewers.push_back(v);
    }
    const auto cmds = c.draw_below(4);
    for (std::uint64_t k = 0; k < cmds; ++k) {
      serve::SteerCommand cmd;
      cmd.step = static_cast<int>(c.draw_below(steps));
      cmd.viewer = static_cast<int>(c.draw_below(static_cast<std::uint64_t>(n)));
      cmd.kind = static_cast<serve::SteerKind>(c.draw_below(4));
      cmd.iso_levels = 1 + c.draw_below(9);
      cmd.palette = static_cast<vis::Palette>(c.draw_below(3));
      cmd.x0 = c.draw_real(-0.5, 1.5);  // out-of-range on purpose: clamps
      cmd.y0 = c.draw_real(-0.5, 1.5);
      cmd.x1 = c.draw_real(-0.5, 1.5);
      cmd.y1 = c.draw_real(-0.5, 1.5);
      cmd.width = 16 * (1 + c.draw_below(4));
      cmd.height = 16 * (1 + c.draw_below(4));
      sc.commands.push_back(cmd);
    }
    sc.buffers = 1 + c.draw_below(4);
    sc.capacity = c.draw_below(32);  // 0 = cache that never retains
    return sc;
  };
  add_property<ServeCase>(
      "serve.schedule_invariants", gen,
      [](const ServeCase& sc) {
        serve::ServeConfig config;
        config.base = sc.config;
        config.viewers = sc.viewers;
        config.commands = sc.commands;
        config.delivery_buffers = sc.buffers;
        config.cache_capacity = sc.capacity;
        config.host_threads = 2;
        config.cache_enabled = true;
        const serve::ServeReport on = serve::run_serve_session(config);
        config.cache_enabled = false;
        const serve::ServeReport off = serve::run_serve_session(config);

        // Exactly-once: one delivery per (frame step, active viewer), none
        // outside the subscription window. Replays the schedule directly.
        std::size_t cursor = 0;
        for (int step = 0; step < sc.config.iterations; ++step) {
          if (!sc.config.is_io_step(step)) {
            continue;
          }
          for (const serve::ViewerSchedule& v : sc.viewers) {
            if (!v.active_at(step)) {
              continue;
            }
            if (cursor >= on.deliveries.size() ||
                on.deliveries[cursor].step != step ||
                on.deliveries[cursor].viewer != v.viewer) {
              std::ostringstream os;
              os << "expected delivery (step " << step << ", viewer "
                 << v.viewer << ") missing or out of order at index "
                 << cursor;
              return os.str();
            }
            ++cursor;
          }
        }
        if (cursor != on.deliveries.size()) {
          return std::string("delivered ") +
                 std::to_string(on.deliveries.size() - cursor) +
                 " frames outside any subscription window";
        }
        if (on.frames_delivered != on.deliveries.size()) {
          return std::string("frames_delivered disagrees with the log");
        }

        // Never stale / content-addressed: one key, one payload.
        std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> seen;
        for (const serve::Delivery& d : on.deliveries) {
          const auto [it, fresh] =
              seen.emplace(d.key, std::make_pair(d.digest, d.bytes));
          if (!fresh && (it->second.first != d.digest ||
                         it->second.second != d.bytes)) {
            return std::string("key ") + std::to_string(d.key) +
                   " served two different payloads";
          }
        }
        if (on.cache.insertions > on.cache.misses) {
          return std::string("cache inserted more frames than it missed");
        }

        // Host cache flag invisible to the model: bit-identical deliveries,
        // clock, and joules.
        if (on.deliveries.size() != off.deliveries.size()) {
          return std::string("delivery count changed with the cache flag");
        }
        for (std::size_t i = 0; i < on.deliveries.size(); ++i) {
          const serve::Delivery& a = on.deliveries[i];
          const serve::Delivery& b = off.deliveries[i];
          if (a.step != b.step || a.viewer != b.viewer || a.key != b.key ||
              a.digest != b.digest || a.bytes != b.bytes) {
            return std::string("delivery ") + std::to_string(i) +
                   " changed with the cache flag";
          }
        }
        if (on.duration.value() != off.duration.value() ||
            on.energy.value() != off.energy.value()) {
          return std::string("virtual time or energy changed with the "
                             "cache flag");
        }
        return ok();
      },
      [](const ServeCase& sc) {
        std::ostringstream os;
        os << "iters=" << sc.config.iterations
           << " period=" << sc.config.io_period
           << " viewers=" << sc.viewers.size()
           << " cmds=" << sc.commands.size() << " buffers=" << sc.buffers
           << " cap=" << sc.capacity;
        return os.str();
      });
}

}  // namespace

void register_builtin_properties() {
  register_hdd_properties();
  register_compress_properties();
  register_replay_properties();
  register_pipeline_properties();
  register_campaign_properties();
  register_energy_properties();
  register_simd_properties();
  register_storage_properties();
  register_serve_properties();
}

CheckResult replay_repro_file(const std::string& path) {
  const Repro repro = load_repro(path);
  Config config;
  config.replay_file = path;
  config.repro_dir.clear();
  return PropertyRegistry::global().run(repro.property, config);
}

}  // namespace greenvis::qa
