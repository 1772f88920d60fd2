// audit_sweep: back-to-back ShardedAuditEngine::sweep_once over a registry
// of real POR-encoded files stored at simulated LAN sites.
//
// Every site owns one VerifierDevice and one TPA scheme keyed to that
// device. A quarter of the sites run the dynamic flavour; the rest MAC.
// Site 1 relays every request to a mirror 1400 km away (the wiring of
// SimulatedDeployment::deploy_remote_relay, mirroring all of the site's
// files) and site 2 has every segment corrupted, so their audits must be
// rejected with kTiming and kTag. Between sweeps the owner applies a fixed
// number of verified writes to dynamic files.
//
// The engine runs one shard per two CPUs, keeps each site on one shard, and
// batches a site's files into one device signature per sweep. Layers are
// timed from outside: a RequestChannel decorator around each site's LAN
// link, the engine's report hook for per-shard busy time, and a replay of
// the same registrations through the public plan/device/verify calls on
// the engine's own shards.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/audit_service.hpp"
#include "core/dynamic_geoproof.hpp"
#include "core/provider.hpp"
#include "core/scheme.hpp"
#include "core/sharded_engine.hpp"
#include "core/verifier.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "net/channel.hpp"
#include "net/latency.hpp"
#include "obs/metrics.hpp"
#include "phases.hpp"
#include "por/dynamic.hpp"
#include "por/encoder.hpp"

namespace perfbench {
namespace {

using namespace geoproof;
using namespace geoproof::core;

struct Shape {
  unsigned sites = 0;
  unsigned files_per_site = 0;
  std::size_t file_bytes = 0;
  std::uint32_t k = 0;
  unsigned writes_per_gap = 0;
  unsigned replays_per_site = 0;  // traced attribution batches per site
  unsigned setups = 0;            // world builds; the last one is measured
};

Shape shape_for(const Options& opts) {
  Shape s;
  s.sites = std::max(4u, 2 * opts.cpus);
  s.files_per_site = opts.tiny ? 4 : 24;
  s.file_bytes = opts.tiny ? 1024 : 4096;
  s.k = 8;
  s.writes_per_gap = 2;
  s.replays_per_site = opts.tiny ? 2 : 24;
  s.setups = opts.tiny ? 1 : 3;
  return s;
}

/// Sweeps the key budget is provisioned for, per second of budget: about
/// 1.8x the sweep rate of a Release build on a 4-CPU machine (2 shards),
/// for stretches when the shared host runs fast; the height rounds up to a
/// power of two, which leaves more headroom still. A run that would exhaust
/// the keys stops early and says so in its notes.
constexpr double kKeyedSweepsPerSecond = 180.0;
constexpr unsigned kWarmupSweeps = 1;
constexpr double kSliceSeconds = 0.25;
constexpr unsigned kDigestSweeps = 32;

enum class Fault { kNone, kRelay, kCorrupt };

/// Benchmark-owned decorator on a site's LAN link. When tracing, it times
/// each timed round the device issues: the simulated LAN, the provider's
/// handler, the POR look-up and the disk model. A site's rounds all run
/// on its home shard, and the main thread reads the counters only between
/// sweeps, so plain counters suffice.
class TimedChannel final : public net::RequestChannel {
 public:
  explicit TimedChannel(std::unique_ptr<net::RequestChannel> inner)
      : inner_(std::move(inner)) {}

  Bytes request(BytesView message) override {
    if (!tracing) return inner_->request(message);
    const auto t0 = Clock::now();
    Bytes reply = inner_->request(message);
    ns += static_cast<std::uint64_t>((Clock::now() - t0).count());
    ++rounds;
    return reply;
  }

  bool tracing = false;
  std::uint64_t ns = 0;
  std::uint64_t rounds = 0;

 private:
  std::unique_ptr<net::RequestChannel> inner_;
};

struct Site {
  unsigned index = 0;
  bool dynamic = false;
  Fault fault = Fault::kNone;
  SimClock clock;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<CloudProvider> provider;  // MAC sites
  std::vector<por::EncodedFile> mirror;     // relay site: files to mirror
  std::unique_ptr<CloudProvider> remote;
  std::map<std::uint64_t, std::unique_ptr<por::DynamicPorProvider>> dyn;
  std::map<std::uint64_t, std::unique_ptr<DynamicProviderService>> dyn_service;
  std::map<std::uint64_t, net::RequestHandler> dyn_handler;
  std::unique_ptr<TimedChannel> channel;
  std::unique_ptr<VerifierDevice> device;
  std::unique_ptr<AuditScheme> scheme;
  DynamicAuditScheme* dyn_scheme = nullptr;
  std::vector<FileRecord> records;
  std::uint32_t keys_provisioned = 0;
  double keygen_ms = 0.0;
};

/// One world. Member order is destruction order reversed: the service
/// holds raw pointers into the sites and a registry pointer.
struct World {
  obs::Registry registry;
  std::vector<std::unique_ptr<Site>> sites;
  AuditService service{AuditService::Options{1}};
  por::PorParams por;
  Bytes master;
  std::vector<double> encode_ms;
  std::vector<double> keygen_ms;
  por::EncodedFile sample;  // one honest MAC file, for the segment-MAC probe
};

por::PorParams por_params() {
  por::PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  return p;
}

std::unique_ptr<World> build_world(const Options& opts, const Shape& shape,
                                   unsigned height) {
  auto world = std::make_unique<World>();
  World& w = *world;
  Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 0xa0d17);
  w.por = por_params();
  w.master = rng.next_bytes(32);
  const net::GeoPoint contracted = net::places::brisbane();
  const storage::DiskSpec disk = storage::wd2500jd();
  const por::PorEncoder encoder(w.por);

  for (unsigned s = 0; s < shape.sites; ++s) {
    auto site = std::make_unique<Site>();
    Site& st = *site;
    st.index = s;
    st.dynamic = s % 4 == 3;
    st.fault = s == 1 ? Fault::kRelay : s == 2 ? Fault::kCorrupt : Fault::kNone;
    CloudProvider::Config pcfg;
    pcfg.name = "site-" + std::to_string(s);
    pcfg.location = contracted;
    pcfg.disk = disk;
    pcfg.seed = rng.next_u64();
    if (!st.dynamic) st.provider = std::make_unique<CloudProvider>(pcfg, st.clock);

    for (unsigned j = 0; j < shape.files_per_site; ++j) {
      const std::uint64_t id = std::uint64_t{s} * shape.files_per_site + j + 1;
      const Bytes data = rng.next_bytes(shape.file_bytes);
      const auto t0 = Clock::now();
      por::EncodedFile encoded = encoder.encode(data, id, w.master);
      w.encode_ms.push_back(1e3 * since_s(t0));
      st.records.push_back(FileRecord{id, encoded.n_segments, 0});
      if (st.dynamic) {
        st.dyn[id] = std::make_unique<por::DynamicPorProvider>(std::move(encoded));
        st.dyn_service[id] = std::make_unique<DynamicProviderService>(
            *st.dyn[id], st.clock, storage::DiskModel(disk), true,
            rng.next_u64());
        st.dyn_handler[id] = st.dyn_service[id]->handler();
        continue;
      }
      st.provider->store(encoded);
      if (s == 0 && j == 0) w.sample = encoded;
      if (st.fault == Fault::kRelay) st.mirror.push_back(std::move(encoded));
    }

    net::RequestHandler handler;
    if (st.dynamic) {
      handler = [&st](BytesView request) {
        const SegmentRequest seg = SegmentRequest::deserialize(request);
        return st.dyn_handler.at(seg.file_id)(request);
      };
    } else {
      handler = st.provider->handler();
    }
    st.channel = std::make_unique<TimedChannel>(
        std::make_unique<net::SimRequestChannel>(
            st.clock, net::lan_latency(net::LanModel{}, Kilometers{0.1},
                                       rng.next_u64()),
            std::move(handler)));

    if (st.fault == Fault::kRelay) {
      CloudProvider::Config rcfg;
      rcfg.name = pcfg.name + "-remote";
      rcfg.disk = storage::ibm36z15();
      rcfg.seed = rng.next_u64();
      st.remote = std::make_unique<CloudProvider>(rcfg, st.clock);
      for (const por::EncodedFile& f : st.mirror) st.remote->store(f);
      st.mirror.clear();
      st.provider->set_relay(std::make_shared<net::SimRequestChannel>(
          st.clock,
          net::internet_latency(net::InternetModel(net::InternetModelParams{}),
                                Kilometers{1400.0}, rng.next_u64()),
          st.remote->handler()));
    }
    if (st.fault == Fault::kCorrupt) {
      for (const FileRecord& r : st.records) {
        st.provider->corrupt_segments(r.file_id, 1.0, rng);
      }
    }
    w.sites.push_back(std::move(site));
  }

  // Device keygen dominates the build; devices are provisioned in
  // parallel, one thread per CPU, as a fleet operator would.
  std::vector<std::uint64_t> challenge_seeds;
  for (unsigned s = 0; s < shape.sites; ++s) challenge_seeds.push_back(rng.next_u64());
  const unsigned threads = std::max(1u, std::min(opts.cpus, shape.sites));
  std::vector<std::exception_ptr> faults(threads);
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
          for (unsigned s = t; s < shape.sites; s += threads) {
            Site& st = *w.sites[s];
            VerifierDevice::Config vcfg;
            vcfg.position = contracted;
            vcfg.signer_seed = bytes_of("perfbench-device-" + std::to_string(opts.seed) +
                                        "-" + std::to_string(s));
            vcfg.signer_height = height;
            vcfg.challenge_seed = challenge_seeds[s];
            const auto t0 = Clock::now();
            st.device = std::make_unique<VerifierDevice>(vcfg, *st.channel, st.timer);
            st.keygen_ms = 1e3 * since_s(t0);
            st.keys_provisioned = st.device->audits_remaining();
          }
        } catch (...) {
          faults[t] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& fault : faults) {
    if (fault) std::rethrow_exception(fault);
  }

  for (auto& site : w.sites) {
    Site& st = *site;
    w.keygen_ms.push_back(st.keygen_ms);
    AuditorConfig cfg;
    cfg.master_key = w.master;
    cfg.verifier_pk = st.device->public_key();
    cfg.expected_position = contracted;
    cfg.policy = LatencyPolicy::for_disk(disk);
    cfg.nonce_seed = rng.next_u64();
    if (st.dynamic) {
      auto scheme = std::make_unique<DynamicAuditScheme>(cfg, w.por);
      for (FileRecord& r : st.records) {
        r = scheme->register_file(r.file_id, st.dyn.at(r.file_id)->root(),
                                  r.n_segments);
      }
      st.dyn_scheme = scheme.get();
      st.scheme = std::move(scheme);
    } else {
      st.scheme = std::make_unique<MacAuditScheme>(cfg, w.por);
    }
    for (const FileRecord& r : st.records) {
      w.service.add(*st.scheme, *st.device, r, shape.k,
                    st.scheme->name() + "/" + std::to_string(r.file_id));
    }
  }
  w.service.register_metrics(w.registry);
  return world;
}

/// Did this verdict come out as the site's planted behaviour demands?
bool verdict_ok(const Site& site, const AuditReport& report) {
  if (report.failed(AuditFailure::kAborted)) return false;
  switch (site.fault) {
    case Fault::kNone: return report.accepted;
    case Fault::kRelay: return !report.accepted && report.failed(AuditFailure::kTiming);
    case Fault::kCorrupt: return !report.accepted && report.failed(AuditFailure::kTag);
  }
  return false;
}

std::uint64_t failure_bits(const AuditReport& report) {
  std::uint64_t bits = 0;
  for (const AuditFailure f : report.failures) bits |= 1ULL << static_cast<unsigned>(f);
  return bits;
}

/// Everything the sweep loop produces.
struct SweepLog {
  std::vector<double> sweep_ms;
  std::vector<double> busy_ratio;
  std::vector<double> write_ms;
  std::vector<double> write_por_us;
  double sweep_s = 0.0;
};

struct Runner {
  const Shape& shape;
  World& w;
  Sheet& sheet;
  Rng write_rng;
  Digest digest;
  std::uint64_t sweeps_done = 0;
  std::uint64_t aborted = 0;  // summed over every engine the run used

  std::uint64_t audits_per_sweep() const {
    return std::uint64_t{shape.sites} * shape.files_per_site;
  }

  std::uint32_t min_keys_left() const {
    std::uint32_t left = UINT32_MAX;
    for (const auto& s : w.sites) left = std::min(left, s->device->audits_remaining());
    return left;
  }

  /// One owner write to a dynamic file: fetch the old proof, build the
  /// tagged segment, write it at the provider, verify and apply the update
  /// at the TPA, then read it back under the new root.
  void owner_write(SweepLog& log) {
    std::vector<Site*> dynamic;
    for (auto& s : w.sites) {
      if (s->dynamic) dynamic.push_back(s.get());
    }
    if (dynamic.empty()) return;
    Site& st = *dynamic[write_rng.next_below(dynamic.size())];
    const FileRecord& rec = st.records[write_rng.next_below(st.records.size())];
    const std::uint64_t index = write_rng.next_below(rec.n_segments);
    const std::size_t data_bytes = w.por.blocks_per_segment * w.por.block_size;
    const Bytes data = write_rng.next_bytes(data_bytes);
    por::DynamicPorProvider& provider = *st.dyn.at(rec.file_id);
    por::DynamicPorClient& client = st.dyn_scheme->client(rec.file_id);

    sheet.attempt();
    const auto t0 = Clock::now();
    const por::ReadProof old_proof = provider.read(index);
    const auto t1 = Clock::now();
    Bytes segment = client.make_segment(index, data);
    provider.write(index, segment);
    const bool applied = client.apply_write(index, old_proof, segment);
    const auto t2 = Clock::now();
    const bool read_back = client.verify_read(index, provider.read(index));
    const auto t3 = Clock::now();
    log.write_ms.push_back(1e3 * elapsed_s(t0, t3));
    log.write_por_us.push_back(1e6 * elapsed_s(t1, t2));
    if (!applied || !read_back || client.root() != provider.root()) {
      sheet.fail("owner write to file " + std::to_string(rec.file_id) +
                 " was not verified");
    }
    if (sweeps_done < kDigestSweeps) {
      digest.add(rec.file_id);
      digest.add(index);
      for (const std::uint8_t b : client.root()) digest.add(std::uint64_t{b});
    }
  }

  /// Check every registration's latest verdict after a sweep.
  void check_sweep(std::uint64_t total_before) {
    sheet.attempt(audits_per_sweep());
    const std::uint64_t ran = w.service.compliance().total - total_before;
    if (ran != audits_per_sweep()) {
      sheet.fail("sweep ran " + std::to_string(ran) + " of " +
                 std::to_string(audits_per_sweep()) + " audits");
    }
    for (const auto& site : w.sites) {
      for (const FileRecord& r : site->records) {
        const AuditReport& report = w.service.history(r.file_id).back().report;
        if (!verdict_ok(*site, report)) {
          sheet.fail("file " + std::to_string(r.file_id) + " at site " +
                     std::to_string(site->index) + ": " + report.summary());
        }
        if (sweeps_done < kDigestSweeps) {
          digest.add(r.file_id);
          digest.add(std::uint64_t{report.accepted});
          digest.add(failure_bits(report));
          digest.add(report.max_rtt.count());
        }
      }
    }
    ++sweeps_done;
  }

  /// Sweep back to back, appending to `log`, until `seconds` have been
  /// spent sweeping and at least `min_sweeps` ran. Returns false when the
  /// device keys would run out (keeping `keep_keys` for the replay).
  bool sweep(ShardedAuditEngine& engine, double seconds, std::uint64_t min_sweeps,
             SweepLog& log, std::vector<std::int64_t>* shard_last_ns = nullptr,
             std::uint32_t keep_keys = 0) {
    double spent = 0.0;
    for (std::uint64_t n = 0; spent < seconds || n < min_sweeps; ++n) {
      if (min_keys_left() <= keep_keys + 1) return false;
      for (unsigned i = 0; i < shape.writes_per_gap; ++i) owner_write(log);
      const std::uint64_t before = w.service.compliance().total;
      const auto t0 = Clock::now();
      engine.sweep_once();
      const auto t1 = Clock::now();
      const double wall = elapsed_s(t0, t1);
      spent += wall;
      log.sweep_s += wall;
      log.sweep_ms.push_back(1e3 * wall);
      if (shard_last_ns != nullptr) {
        double busy = 0.0;
        for (std::int64_t& last : *shard_last_ns) {
          if (last > 0) busy += 1e-9 * static_cast<double>(last - t0.time_since_epoch().count());
          last = 0;
        }
        log.busy_ratio.push_back(busy / (static_cast<double>(engine.shards()) * wall));
      }
      check_sweep(before);
    }
    return true;
  }
};

ShardedAuditEngine::Options engine_options(const Shape& shape, unsigned shards,
                                           std::uint64_t seed) {
  ShardedAuditEngine::Options o;
  o.shards = shards;
  const unsigned sites = shape.sites;
  const unsigned per_site = shape.files_per_site;
  o.partitioner = [sites, per_site](std::uint64_t file_id, std::size_t n) {
    const std::uint64_t site = (file_id - 1) / per_site;
    return static_cast<std::size_t>(site * n / sites);
  };
  o.work_stealing = false;
  o.batch_size = per_site;
  o.seed = seed;
  return o;
}

/// Per-shard attribution: replay each site's registrations through the
/// public calls the engine makes, on the engine's own shards.
struct Attribution {
  std::uint64_t audits = 0;
  double plan_ns = 0, device_ns = 0, exchange_ns = 0, verify_ns = 0;
  std::uint64_t rounds = 0;
  Bytes signing_input;  // one real batch, for the signature probes
};

Attribution replay(Runner& run, ShardedAuditEngine& engine) {
  const Shape& shape = run.shape;
  std::vector<Attribution> per_shard(engine.shards());
  std::vector<std::vector<std::string>> errors(engine.shards());
  for (auto& s : run.w.sites) s->channel->tracing = true;
  engine.run_on_shards([&](std::size_t shard) {
    Attribution& a = per_shard[shard];
    for (auto& site_ptr : run.w.sites) {
      Site& site = *site_ptr;
      if (engine.shard_of(site.records.front().file_id) != shard) continue;
      for (unsigned rep = 0; rep < shape.replays_per_site; ++rep) {
        std::vector<AuditRequest> requests;
        const auto t0 = Clock::now();
        for (const FileRecord& r : site.records) {
          requests.push_back(site.scheme->make_request(r, shape.k));
        }
        const auto t1 = Clock::now();
        const std::uint64_t ch_ns = site.channel->ns;
        const std::uint64_t ch_rounds = site.channel->rounds;
        const BatchedTranscripts batch = site.device->run_audit_batch(requests);
        const auto t2 = Clock::now();
        const double exchange = static_cast<double>(site.channel->ns - ch_ns);
        const std::vector<AuditReport> reports =
            site.scheme->verify_batch(site.records, batch);
        const auto t3 = Clock::now();
        a.plan_ns += static_cast<double>((t1 - t0).count());
        a.device_ns += static_cast<double>((t2 - t1).count()) - exchange;
        a.exchange_ns += exchange;
        a.verify_ns += static_cast<double>((t3 - t2).count());
        a.rounds += site.channel->rounds - ch_rounds;
        a.audits += reports.size();
        if (a.signing_input.empty()) a.signing_input = batch.signing_input();
        for (const AuditReport& report : reports) {
          if (!verdict_ok(site, report)) {
            errors[shard].push_back("replayed audit at site " +
                                    std::to_string(site.index) + ": " +
                                    report.summary());
          }
        }
      }
    }
  });
  for (auto& s : run.w.sites) s->channel->tracing = false;
  Attribution total;
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    const Attribution& a = per_shard[i];
    total.audits += a.audits;
    total.plan_ns += a.plan_ns;
    total.device_ns += a.device_ns;
    total.exchange_ns += a.exchange_ns;
    total.verify_ns += a.verify_ns;
    total.rounds += a.rounds;
    if (total.signing_input.empty()) total.signing_input = a.signing_input;
    for (const std::string& e : errors[i]) run.sheet.fail(e);
  }
  run.sheet.attempt(total.audits);
  return total;
}

template <typename Fn>
double time_per_call_ns(unsigned calls, Fn&& fn) {
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < calls; ++i) fn(i);
  return 1e9 * since_s(t0) / calls;
}

/// Keeps the probes' results observable, so their calls cannot be elided.
volatile std::uint64_t g_probe_sink = 0;

/// Direct public-call probes of the crypto layer.
void crypto_probes(const World& w, const Bytes& signing_input, bool tiny,
                   Sheet& sheet) {
  Rng rng(0x5eed);
  const Bytes a = rng.next_bytes(8);
  Bytes b = rng.next_bytes(32);
  std::uint64_t sink = 0;
  const double hash_ns = time_per_call_ns(tiny ? 2000 : 200000, [&](unsigned) {
    const crypto::Digest d = crypto::Sha256::hash2(a, b);
    b[0] = d[0];
    sink += d[1];
  });
  sheet.metric("crypto.sha256_hash2_ns", hash_ns, "ns");

  crypto::MerkleSigner signer(bytes_of("perfbench-probe-signer"), 6);
  std::vector<crypto::MerkleSignature> sigs;
  const unsigned n_sigs = tiny ? 4 : 48;
  const double sign_ns = time_per_call_ns(n_sigs, [&](unsigned) {
    sigs.push_back(signer.sign(signing_input));
  });
  bool verified = true;
  const double verify_ns = time_per_call_ns(n_sigs, [&](unsigned i) {
    verified = crypto::merkle_verify(signer.public_key(), signing_input, sigs[i]) && verified;
  });
  if (!verified) sheet.fail("probe signature did not verify");
  sheet.metric("crypto.sign_us", sign_ns / 1e3, "us");
  sheet.metric("crypto.sig_verify_us", verify_ns / 1e3, "us");

  const por::SegmentVerifier verifier(w.por, w.master, w.sample.file_id);
  const double mac_ns = time_per_call_ns(tiny ? 200 : 20000, [&](unsigned i) {
    const std::uint64_t index = i % w.sample.n_segments;
    if (verifier.verify(index, w.sample.segments[index])) ++sink;
  });
  sheet.metric("crypto.segment_mac_us", mac_ns / 1e3, "us");
  g_probe_sink = sink;
}

/// The audit phase, driven one time slice at a time. A plain run sweeps
/// one engine; a traced run rotates its slices through four engines over
/// the same registry: plain, traced (channel decorators and report hook),
/// no obs registry, and one shard.
class AuditPhase final : public Phase {
 public:
  AuditPhase(const Options& opts, const PhaseBudget& budget, Sheet& sheet)
      : opts_(opts), budget_(budget), sheet_(sheet), shape_(shape_for(opts)) {
    replay_keys_ = opts.trace ? shape_.replays_per_site : 0;
    const double keyed_sweeps =
        budget.seconds * kKeyedSweepsPerSecond * (opts.tiny ? 4 : 1) +
        static_cast<double>(budget.min_ops + replay_keys_ + kWarmupSweeps + 2);
    height_ = std::clamp(static_cast<unsigned>(std::ceil(std::log2(keyed_sweeps))),
                         4u, 16u);
    std::vector<double> setups;
    for (unsigned i = 0; i < shape_.setups; ++i) {
      world_.reset();
      const auto t0 = Clock::now();
      world_ = build_world(opts, shape_, height_);
      setups.push_back(since_s(t0));
    }
    setup_s_ = median(setups);
    run_ = std::make_unique<Runner>(
        Runner{shape_, *world_, sheet, Rng(opts.seed ^ 0x0a7e5), {}, 0, 0});

    ShardedAuditEngine::Options plain = engine_options(shape_, opts.shards, opts.seed);
    plain.metrics = &world_->registry;
    engines_[kPlain] = std::make_unique<ShardedAuditEngine>(world_->service, plain);
    if (opts.trace) {
      last_ns_.assign(opts.shards, 0);
      ShardedAuditEngine::Options traced = plain;
      traced.report_hook = [this](std::uint64_t, const AuditReport&, std::size_t shard) {
        last_ns_[shard] = Clock::now().time_since_epoch().count();
      };
      engines_[kTraced] = std::make_unique<ShardedAuditEngine>(world_->service, traced);
      ShardedAuditEngine::Options no_obs = plain;
      no_obs.metrics = nullptr;
      engines_[kNoObs] = std::make_unique<ShardedAuditEngine>(world_->service, no_obs);
      engines_[kOneShard] = std::make_unique<ShardedAuditEngine>(
          world_->service, engine_options(shape_, 1, opts.seed));
    }
    SweepLog warmup;
    run_->sweep(*engines_[kPlain], 0.0, kWarmupSweeps, warmup);
  }

  double setup_s() const override { return setup_s_; }

  double progress() const override {
    if (out_of_keys_) return kDone;
    double spent = 0.0;
    for (const SweepLog& log : logs_) spent += log.sweep_s;
    const double p = budget_progress(budget_, spent, logs_[kPlain].sweep_ms.size());
    // A traced run must have run every engine at least once.
    return opts_.trace && slices_ < kModes ? std::min(p, 0.99) : p;
  }

  void slice() override {
    const std::size_t mode = opts_.trace ? slices_ % kModes : kPlain;
    ++slices_;
    for (auto& s : world_->sites) s->channel->tracing = mode == kTraced;
    const bool ok = run_->sweep(*engines_[mode], kSliceSeconds, 1, logs_[mode],
                                mode == kTraced ? &last_ns_ : nullptr, replay_keys_);
    for (auto& s : world_->sites) s->channel->tracing = false;
    if (!ok) out_of_keys_ = true;
  }

  void finish() override;

 private:
  enum Mode : std::size_t { kPlain, kTraced, kNoObs, kOneShard, kModes };

  const Options& opts_;
  PhaseBudget budget_;
  Sheet& sheet_;
  Shape shape_;
  std::uint32_t replay_keys_ = 0;
  unsigned height_ = 0;
  double setup_s_ = 0.0;
  std::unique_ptr<World> world_;
  std::unique_ptr<Runner> run_;
  std::vector<std::int64_t> last_ns_;  // per-shard last report, traced engine
  std::array<std::unique_ptr<ShardedAuditEngine>, kModes> engines_;
  std::array<SweepLog, kModes> logs_;
  std::uint64_t slices_ = 0;
  bool out_of_keys_ = false;
};

void AuditPhase::finish() {
  World& w = *world_;
  Runner& run = *run_;
  const SweepLog& plain = logs_[kPlain];
  sheet_.digest("audit_sweep", run.digest.hex());
  sheet_.note("audit.registry_files", static_cast<double>(run.audits_per_sweep()));
  sheet_.note("audit.sites", shape_.sites);
  sheet_.note("audit.sweeps", static_cast<double>(plain.sweep_ms.size()));
  sheet_.note("audit.key_height", height_);
  if (out_of_keys_) sheet_.note("audit.stopped_on_key_budget", 1.0);

  if (!opts_.trace) {
    // Every sweep audits the whole registry, so this is audits / wall time
    // at the median sweep.
    sheet_.metric("audits_per_s",
                  1e3 * static_cast<double>(run.audits_per_sweep()) / median(plain.sweep_ms),
                  "audits/s");
    sheet_.metric("audit_sweep_ms_p50", median(plain.sweep_ms), "ms");
    sheet_.metric("audit_sweep_ms_p99", percentile(plain.sweep_ms, 99.0), "ms");
    sheet_.metric("owner_write_ms_p50", median(plain.write_ms), "ms");
  } else {
    const Attribution attr = replay(run, *engines_[kTraced]);
    const double untraced_ms = median(plain.sweep_ms);
    const double audits = static_cast<double>(std::max<std::uint64_t>(attr.audits, 1));
    const double plan_us = attr.plan_ns / audits / 1e3;
    const double device_us = attr.device_ns / audits / 1e3;
    const double exchange_us = attr.exchange_ns / audits / 1e3;
    const double verify_us = attr.verify_ns / audits / 1e3;
    const double e2e_us = untraced_ms * 1e3 * opts_.shards /
                          static_cast<double>(run.audits_per_sweep());
    sheet_.metric("core.plan_us", plan_us, "us");
    sheet_.metric("core.device_us", device_us, "us");
    sheet_.metric("core.verify_us", verify_us, "us");
    sheet_.metric("net.sim_exchange_us", exchange_us, "us");
    sheet_.metric("core.engine.overhead_us_per_audit",
                  e2e_us - plan_us - device_us - exchange_us - verify_us, "us");
    sheet_.note("core.e2e_shard_us_per_audit", e2e_us);
    sheet_.note("net.sim_rounds_per_audit", static_cast<double>(attr.rounds) / audits);
    sheet_.metric("core.engine.busy_ratio", median(logs_[kTraced].busy_ratio), "ratio");
    sheet_.metric("core.engine.scaling_x", median(logs_[kOneShard].sweep_ms) / untraced_ms,
                  "x");
    const double no_obs_ms = median(logs_[kNoObs].sweep_ms);
    sheet_.metric("obs.overhead_pct", 100.0 * (untraced_ms - no_obs_ms) / no_obs_ms, "%");
    sheet_.note("audit.trace_overhead_pct",
                100.0 * (median(logs_[kTraced].sweep_ms) - untraced_ms) / untraced_ms);
    sheet_.metric("por.dynamic_write_us", mean(plain.write_por_us), "us");
    sheet_.metric("por.encode_ms", median(w.encode_ms), "ms");
    sheet_.metric("crypto.keygen_ms", median(w.keygen_ms), "ms");
    crypto_probes(w, attr.signing_input, opts_.tiny, sheet_);

    std::uint64_t keys_used = 0;
    for (const auto& s : w.sites) {
      keys_used += s->keys_provisioned - s->device->audits_remaining();
    }
    const double total_audits =
        static_cast<double>(w.service.compliance().total + attr.audits);
    sheet_.metric("core.audits_per_signature",
                  total_audits / static_cast<double>(std::max<std::uint64_t>(keys_used, 1)),
                  "audits");
  }

  // Health counters every run checks: no expired nonces, no aborted audits.
  std::uint64_t expired = 0;
  for (const auto& s : w.sites) expired += s->scheme->nonces().expired();
  if (expired > 0) sheet_.fail(std::to_string(expired) + " nonces expired");
  for (const auto& engine : engines_) {
    if (engine) run.aborted += engine->stats().aborted;
  }
  if (opts_.trace) {
    sheet_.metric("core.nonce_expired", static_cast<double>(expired), "count");
    sheet_.metric("core.aborted", static_cast<double>(run.aborted), "count");
  }
}

}  // namespace

std::unique_ptr<Phase> make_audit_phase(const Options& opts, const PhaseBudget& budget,
                                        Sheet& sheet) {
  return std::make_unique<AuditPhase>(opts, budget, sheet);
}

}  // namespace perfbench
