// Continuous SLA compliance auditing across three data centres — and two
// GeoProof flavours — through ONE AuditService registry.
//
// A data owner stores replicas with three providers (different cities,
// different disk classes) audited with the paper's MAC flavour, plus a
// mutable working set at the first site audited with the dynamic-POR
// flavour; all four registrations are scheduled and reported by a single
// scheme-agnostic service. Midway, one provider silently relocates its
// replica and another starts corrupting data; the per-registration
// compliance report catches both, and the dynamic registration keeps
// passing because its provider stayed honest.
//
// Run: ./build/examples/sla_audit_service
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/audit_service.hpp"
#include "core/deployment.hpp"
#include "core/dynamic_geoproof.hpp"

using namespace geoproof;
using namespace geoproof::core;

namespace {

struct Site {
  std::string name;
  net::GeoPoint location;
  storage::DiskSpec disk;
  std::unique_ptr<SimulatedDeployment> world;
  std::uint64_t registration = 0;
};

std::unique_ptr<SimulatedDeployment> make_world(const std::string& name,
                                                net::GeoPoint loc,
                                                const storage::DiskSpec& disk) {
  DeploymentConfig cfg;
  cfg.por.ecc_data_blocks = 48;
  cfg.por.ecc_parity_blocks = 16;
  cfg.provider.name = name;
  cfg.provider.location = loc;
  cfg.provider.disk = disk;
  return std::make_unique<SimulatedDeployment>(cfg);
}

}  // namespace

int main() {
  std::printf("GeoProof SLA audit service: one week, hourly audits,\n");
  std::printf("four registrations (3x MAC + 1x dynamic), one service\n");
  std::printf("====================================================\n\n");

  Rng rng(7);
  const Bytes replica = rng.next_bytes(200000);

  std::vector<Site> sites;
  sites.push_back({"bne-dc1", net::places::brisbane(), storage::wd2500jd(),
                   nullptr, 0});
  sites.push_back({"syd-dc2", net::places::sydney(),
                   storage::find_disk("IBM 73LZX").value(), nullptr, 0});
  sites.push_back({"mel-dc3", net::places::melbourne(),
                   storage::find_disk("Hitachi DK23DA").value(), nullptr, 0});

  // ONE service drives every (scheme, file, provider) registration.
  AuditService service;

  std::uint64_t next_file_id = 1;
  for (Site& site : sites) {
    site.world = make_world(site.name, site.location, site.disk);
    const FileRecord record = site.world->upload(replica, next_file_id++);
    site.registration =
        service.add(site.world->auditor(), site.world->verifier(), record, 15,
                    "mac/" + site.name);
  }

  // The dynamic-POR registration: a mutable working set at bne-dc1,
  // audited with Merkle freshness proofs, sharing site 1's clock.
  SimulatedDeployment& bne = *sites[0].world;
  por::PorParams dyn_params = bne.config().por;
  const Bytes dyn_master = bytes_of("sla-dynamic-master");
  const por::PorEncoder dyn_encoder(dyn_params);
  por::DynamicPorProvider dyn_provider(
      dyn_encoder.encode(rng.next_bytes(120000), next_file_id, dyn_master));
  DynamicProviderService dyn_wire(dyn_provider, bne.clock(),
                                  storage::DiskModel(sites[0].disk));
  net::SimRequestChannel dyn_channel(
      bne.clock(), net::lan_latency(net::LanModel{}, Kilometers{0.1}, 21),
      dyn_wire.handler());
  net::SimAuditTimer dyn_timer(bne.clock());
  VerifierDevice::Config dyn_vcfg;
  dyn_vcfg.position = sites[0].location;
  VerifierDevice dyn_verifier(dyn_vcfg, dyn_channel, dyn_timer);
  AuditorConfig dyn_cfg;
  dyn_cfg.master_key = dyn_master;
  dyn_cfg.verifier_pk = dyn_verifier.public_key();
  dyn_cfg.expected_position = sites[0].location;
  dyn_cfg.policy = LatencyPolicy::for_disk(sites[0].disk);
  DynamicAuditScheme dyn_scheme(dyn_cfg, dyn_params);
  const FileRecord dyn_record = dyn_scheme.register_file(
      next_file_id, dyn_provider.root(), dyn_provider.n_segments());
  const std::uint64_t dyn_registration =
      service.add(dyn_scheme, dyn_verifier, dyn_record, 15,
                  "dynamic/bne-dc1");

  const Nanos hour =
      std::chrono::duration_cast<Nanos>(std::chrono::hours(1));

  // Days 1-3: everyone behaves. Each site's audits run on its own clock;
  // the service registry spans them all.
  for (const Site& site : sites) {
    service.schedule(site.world->queue(), site.world->clock(),
                     site.registration, site.world->clock().now() + hour,
                     hour, 72);
  }
  service.schedule(bne.queue(), bne.clock(), dyn_registration,
                   bne.clock().now() + hour, hour, 72);
  for (Site& site : sites) site.world->queue().run_all();

  // Day 4: syd-dc2 relocates its replica 1400 km away; mel-dc3's disks
  // start corrupting segments.
  sites[1].world->deploy_remote_relay(2, Kilometers{1400.0},
                                      storage::ibm36z15());
  {
    Rng corrupt_rng(99);
    sites[2].world->provider().corrupt_segments(3, 0.15, corrupt_rng);
  }

  // Days 4-7.
  for (const Site& site : sites) {
    service.schedule(site.world->queue(), site.world->clock(),
                     site.registration, site.world->clock().now() + hour,
                     hour, 96);
  }
  service.schedule(bne.queue(), bne.clock(), dyn_registration,
                   bne.clock().now() + hour, hour, 96);
  for (Site& site : sites) site.world->queue().run_all();

  std::printf("%-16s %-14s %8s %8s %10s %12s %18s\n", "registration",
              "disk", "audits", "passed", "rate", "SLA(99%)",
              "consec. failures");
  const auto print_row = [&](std::uint64_t id, const std::string& disk) {
    const auto& reg = service.registration(id);
    const auto c = service.compliance(id);
    std::printf("%-16s %-14s %8llu %8llu %9.1f%% %12s %18llu\n",
                reg.label.c_str(), disk.c_str(),
                static_cast<unsigned long long>(c.total),
                static_cast<unsigned long long>(c.passed),
                100.0 * c.rate(), c.meets(0.99) ? "MET" : "BREACHED",
                static_cast<unsigned long long>(
                    service.consecutive_failures(id)));
  };
  for (const Site& site : sites) {
    print_row(site.registration, site.disk.name);
  }
  print_row(dyn_registration, sites[0].disk.name);

  const auto aggregate = service.compliance();
  std::printf("\nfleet aggregate: %llu/%llu audits passed (%.1f%%) across "
              "%zu registrations\n",
              static_cast<unsigned long long>(aggregate.passed),
              static_cast<unsigned long long>(aggregate.total),
              100.0 * aggregate.rate(), service.size());

  std::printf("\nfailure signatures (last audit of each registration):\n");
  for (const std::uint64_t id : service.file_ids()) {
    std::printf("  %-16s %s\n", service.registration(id).label.c_str(),
                service.history(id).back().report.summary().c_str());
  }
  std::printf("\nreading the signatures: timing-only failures mean the data "
              "moved; tag failures mean the data rotted. GeoProof separates "
              "the two — and one scheme-agnostic service now watches every "
              "flavour.\n");
  return 0;
}
