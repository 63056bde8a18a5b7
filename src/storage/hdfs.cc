#include "storage/hdfs.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/invariants.h"
#include "telemetry/telemetry.h"

namespace hybridmr::storage {

using cluster::ExecutionSite;
using cluster::Resources;
using cluster::Workload;
using cluster::WorkloadPtr;

bool same_host(const ExecutionSite& a, const ExecutionSite& b) {
  return a.host_machine() != nullptr &&
         a.host_machine() == b.host_machine();
}

DataNode* Hdfs::add_datanode(ExecutionSite& site) {
  datanodes_.push_back(std::make_unique<DataNode>(site));
  return datanodes_.back().get();
}

DataNode* Hdfs::datanode_on(const ExecutionSite* site) const {
  for (const auto& dn : datanodes_) {
    if (dn->site() == site) return dn.get();
  }
  return nullptr;
}

void Hdfs::audit_verify_placement() const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const File& file = files_[f];
    std::size_t indexed = 0;
    for (std::size_t b = 0; b < file.blocks(); ++b) {
      const auto reps = file.replicas(b);
      const auto detail = [&](const char* what) {
        return std::vector<audit::Detail>{
            {"file", file.name},
            {"block", audit::num(static_cast<double>(b))},
            {"replicas", audit::num(static_cast<double>(reps.size()))},
            {"datanodes", audit::num(static_cast<double>(datanodes_.size()))},
            {"problem", what}};
      };
      // A block may be empty only when a crash destroyed its last replica
      // (and then it must be marked lost): "no replicas" and "lost" are
      // the same condition seen from two ledgers.
      const bool lost = file.block_lost[b] != 0;
      HYBRIDMR_AUDIT_CHECK(reps.empty() == lost, "storage.hdfs",
                           "replicas_match_placement", -1,
                           detail(lost ? "lost block still has replicas"
                                       : "block has no replicas"));
      HYBRIDMR_AUDIT_CHECK(reps.size() <= datanodes_.size(), "storage.hdfs",
                           "replicas_match_placement", -1,
                           detail("more replicas than datanodes"));
      for (std::size_t i = 0; i < reps.size(); ++i) {
        const bool live =
            std::any_of(datanodes_.begin(), datanodes_.end(),
                        [&](const auto& dn) { return dn.get() == reps[i]; });
        HYBRIDMR_AUDIT_CHECK(live, "storage.hdfs",
                             "replicas_match_placement", -1,
                             detail("replica points at unregistered node"));
        const bool dup = std::find(reps.begin() + i + 1, reps.end(),
                                   reps[i]) != reps.end();
        HYBRIDMR_AUDIT_CHECK(!dup, "storage.hdfs",
                             "replicas_match_placement", -1,
                             detail("duplicate replica for block"));
        const auto listed = blocks_on(f, *reps[i]->site());
        HYBRIDMR_AUDIT_CHECK(
            std::binary_search(listed.begin(), listed.end(),
                               static_cast<std::uint32_t>(b)),
            "storage.hdfs", "locality_index_matches_replicas", -1,
            detail("replica missing from the locality index"));
        indexed += 1;
      }
    }
    // Every replica is listed and the index holds nothing else.
    HYBRIDMR_AUDIT_CHECK(
        indexed == file.index_blocks.size() &&
            file.index_sites.size() == file.index_blocks.size(),
        "storage.hdfs", "locality_index_matches_replicas", -1,
        {{"file", file.name},
         {"replicas", audit::num(static_cast<double>(indexed))},
         {"indexed",
          audit::num(static_cast<double>(file.index_blocks.size()))}});
  }
#endif
}

bool Hdfs::remove_datanode(ExecutionSite& site) {
  auto it = std::find_if(datanodes_.begin(), datanodes_.end(),
                         [&](const auto& dn) { return dn->site() == &site; });
  if (it == datanodes_.end() || datanodes_.size() <= 1) return false;
  DataNode* leaving = it->get();

  for (auto& file : files_) {
    if (std::find(file.replica_nodes.begin(), file.replica_nodes.end(),
                  leaving) == file.replica_nodes.end()) {
      continue;
    }
    auto per_block = replica_lists(file);
    for (std::size_t b = 0; b < per_block.size(); ++b) {
      auto& reps = per_block[b];
      auto pos = std::find(reps.begin(), reps.end(), leaving);
      if (pos == reps.end()) continue;
      const sim::MegaBytes mb =
          block_mb_of(file.size_mb, static_cast<int>(b),
                      static_cast<int>(per_block.size()), file.block_mb);
      // Pick a surviving target not already holding the block.
      DataNode* target = nullptr;
      std::size_t probe = sim_.rng().index(datanodes_.size());
      for (std::size_t k = 0; k < datanodes_.size(); ++k) {
        DataNode* candidate = datanodes_[(probe + k) % datanodes_.size()].get();
        if (candidate == leaving) continue;
        if (std::find(reps.begin(), reps.end(), candidate) != reps.end()) {
          continue;
        }
        target = candidate;
        break;
      }
      if (target == nullptr) {
        // Every survivor already holds it; just drop the leaving copy.
        reps.erase(pos);
        continue;
      }
      // Copy from a surviving replica when one exists, else from the
      // leaving node itself (it drains before shutdown).
      ExecutionSite* source = &site;
      for (DataNode* dn : reps) {
        if (dn != leaving) {
          source = dn->site();
          break;
        }
      }
      *pos = target;
      target->add_stored(mb);
      re_replicated_mb_ += mb;
      transfer(*source, *target->site(), mb, nullptr);
    }
    set_replicas(file, per_block);
  }
  datanodes_.erase(it);
  audit_verify_placement();
  return true;
}

int Hdfs::crash_datanodes(const std::vector<ExecutionSite*>& sites) {
  std::vector<DataNode*> dying;
  for (ExecutionSite* s : sites) {
    DataNode* dn = datanode_on(s);
    if (dn != nullptr &&
        std::find(dying.begin(), dying.end(), dn) == dying.end()) {
      dying.push_back(dn);
    }
  }
  if (dying.empty()) return 0;
  auto is_dying = [&](const DataNode* dn) {
    return std::find(dying.begin(), dying.end(), dn) != dying.end();
  };

  for (auto& file : files_) {
    if (std::none_of(file.replica_nodes.begin(), file.replica_nodes.end(),
                     is_dying)) {
      continue;
    }
    auto per_block = replica_lists(file);
    for (std::size_t b = 0; b < per_block.size(); ++b) {
      auto& reps = per_block[b];
      const std::size_t before = reps.size();
      reps.erase(std::remove_if(reps.begin(), reps.end(), is_dying),
                 reps.end());
      const std::size_t killed = before - reps.size();
      if (killed == 0) continue;
      if (reps.empty()) {
        // The crash took the last copy; nothing to re-replicate from.
        file.block_lost[b] = 1;
        ++blocks_lost_;
        continue;
      }
      // Restore the replication factor from a surviving copy. The replica
      // map is updated immediately (NameNode bookkeeping); the copy
      // traffic is injected asynchronously, as in the decommission path.
      const sim::MegaBytes mb =
          block_mb_of(file.size_mb, static_cast<int>(b),
                      static_cast<int>(per_block.size()), file.block_mb);
      ExecutionSite* source = reps.front()->site();
      for (std::size_t i = 0; i < killed; ++i) {
        DataNode* target = nullptr;
        std::size_t probe = sim_.rng().index(datanodes_.size());
        for (std::size_t k = 0; k < datanodes_.size(); ++k) {
          DataNode* candidate =
              datanodes_[(probe + k) % datanodes_.size()].get();
          if (is_dying(candidate)) continue;
          if (std::find(reps.begin(), reps.end(), candidate) != reps.end()) {
            continue;
          }
          target = candidate;
          break;
        }
        if (target == nullptr) break;  // every healthy node already holds it
        reps.push_back(target);
        target->add_stored(mb);
        re_replicated_mb_ += mb;
        transfer(*source, *target->site(), mb, nullptr);
      }
    }
    set_replicas(file, per_block);
  }
  datanodes_.erase(
      std::remove_if(datanodes_.begin(), datanodes_.end(),
                     [&](const auto& dn) { return is_dying(dn.get()); }),
      datanodes_.end());
  audit_verify_placement();
  return static_cast<int>(dying.size());
}

bool Hdfs::has_lost_block(FileId file) const {
  const File& f = files_[file];
  return std::any_of(f.block_lost.begin(), f.block_lost.end(),
                     [](char lost) { return lost != 0; });
}

int Hdfs::min_replication() const {
  int min_reps = -1;
  for (const auto& file : files_) {
    for (std::size_t b = 0; b < file.blocks(); ++b) {
      if (file.block_lost[b] != 0) continue;
      const int n = static_cast<int>(file.replicas(b).size());
      if (min_reps < 0 || n < min_reps) min_reps = n;
    }
  }
  return min_reps;
}

Hdfs::FileId Hdfs::stage_file(const std::string& name, sim::MegaBytes size_mb,
                              sim::MegaBytes block_mb) {
  if (datanodes_.empty()) {
    throw std::invalid_argument("stage_file needs at least one datanode");
  }
  if (!std::isfinite(size_mb.value()) || size_mb < sim::MegaBytes{0}) {
    throw std::invalid_argument("stage_file needs a finite size >= 0, got " +
                                std::to_string(size_mb.value()) + " MB");
  }
  File file;
  file.name = name;
  file.size_mb = size_mb;
  file.block_mb = block_mb > sim::MegaBytes{0}
                      ? block_mb
                      : cal_.hdfs_block_mb;
  const int blocks = std::max(
      1, static_cast<int>(std::ceil(file.size_mb / file.block_mb)));
  const int want = std::min<int>(cal_.hdfs_replicas,
                                 static_cast<int>(datanodes_.size()));
  auto& nodes = file.replica_nodes;
  file.replica_start.reserve(static_cast<std::size_t>(blocks) + 1);
  nodes.reserve(static_cast<std::size_t>(blocks) *
                static_cast<std::size_t>(want));
  file.replica_start.push_back(0);
  for (int b = 0; b < blocks; ++b) {
    // Random primary with a rotating offset: spreads blocks evenly like
    // HDFS's random placement without correlating consecutive blocks with
    // adjacent (possibly same-host) datanodes.
    const std::size_t start =
        (placement_cursor_ + sim_.rng().index(datanodes_.size()) *
                                 2654435761u) %
        datanodes_.size();
    ++placement_cursor_;
    const auto first = static_cast<std::ptrdiff_t>(nodes.size());
    nodes.push_back(datanodes_[start].get());
    std::size_t probe = start + 1 + sim_.rng().index(datanodes_.size());
    while (static_cast<int>(nodes.size() - first) < want) {
      DataNode* candidate = datanodes_[probe++ % datanodes_.size()].get();
      if (std::find(nodes.begin() + first, nodes.end(), candidate) ==
          nodes.end()) {
        nodes.push_back(candidate);
      }
    }
    const sim::MegaBytes mb = block_mb_of(file.size_mb, b, blocks,
                                          file.block_mb);
    for (auto it = nodes.begin() + first; it != nodes.end(); ++it) {
      (*it)->add_stored(mb);
    }
    file.replica_start.push_back(static_cast<std::uint32_t>(nodes.size()));
  }
  file.block_lost.assign(static_cast<std::size_t>(blocks), 0);
  index_replicas(file);
  files_.push_back(std::move(file));
  audit_verify_placement();
  return files_.size() - 1;
}

int Hdfs::num_blocks(FileId file) const {
  return static_cast<int>(files_[file].blocks());
}

sim::MegaBytes Hdfs::block_mb_of(sim::MegaBytes size_mb, int block, int blocks,
                                 sim::MegaBytes block_size) {
  if (block + 1 < blocks) return block_size;
  const sim::MegaBytes tail = size_mb - block_size * (blocks - 1);
  return tail > sim::MegaBytes{0} ? tail : size_mb;
}

sim::MegaBytes Hdfs::block_size_mb(FileId file, int block) const {
  const File& f = files_[file];
  return block_mb_of(f.size_mb, block, static_cast<int>(f.blocks()),
                     f.block_mb);
}

std::span<DataNode* const> Hdfs::replicas(FileId file, int block) const {
  return files_[file].replicas(static_cast<std::size_t>(block));
}

std::vector<std::vector<DataNode*>> Hdfs::replica_lists(const File& file) {
  std::vector<std::vector<DataNode*>> per_block(file.blocks());
  for (std::size_t b = 0; b < per_block.size(); ++b) {
    const auto reps = file.replicas(b);
    per_block[b].assign(reps.begin(), reps.end());
  }
  return per_block;
}

void Hdfs::set_replicas(File& file,
                        const std::vector<std::vector<DataNode*>>& per_block) {
  std::vector<std::uint32_t> start{0};
  std::vector<DataNode*> nodes;
  start.reserve(per_block.size() + 1);
  for (const auto& reps : per_block) {
    nodes.insert(nodes.end(), reps.begin(), reps.end());
    start.push_back(static_cast<std::uint32_t>(nodes.size()));
  }
  nodes.shrink_to_fit();
  file.replica_start = std::move(start);
  file.replica_nodes = std::move(nodes);
  index_replicas(file);
}

void Hdfs::index_replicas(File& file) {
  std::vector<std::pair<const ExecutionSite*, std::uint32_t>> entries;
  entries.reserve(file.replica_nodes.size());
  for (std::size_t b = 0; b < file.blocks(); ++b) {
    for (const DataNode* dn : file.replicas(b)) {
      entries.emplace_back(dn->site(), static_cast<std::uint32_t>(b));
    }
  }
  // Sites sort by address, which varies between runs; only equal_range
  // lookups read that order, and within one site blocks stay ascending.
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.first != b.first
               ? std::less<const ExecutionSite*>{}(a.first, b.first)
               : a.second < b.second;
  });
  std::vector<const ExecutionSite*> sites(entries.size());
  std::vector<std::uint32_t> blocks(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    sites[i] = entries[i].first;
    blocks[i] = entries[i].second;
  }
  file.index_sites = std::move(sites);
  file.index_blocks = std::move(blocks);
}

std::span<const std::uint32_t> Hdfs::blocks_on(
    FileId file, const ExecutionSite& site) const {
  const File& f = files_[file];
  const auto [lo, hi] =
      std::equal_range(f.index_sites.begin(), f.index_sites.end(), &site,
                       std::less<const ExecutionSite*>{});
  return {f.index_blocks.data() + (lo - f.index_sites.begin()),
          static_cast<std::size_t>(hi - lo)};
}

void FlowHandle::cancel() {
  if (!state_ || state_->finished) return;
  state_->finished = true;
  if (auto primary = state_->primary.lock()) {
    primary->on_complete = nullptr;
    if (primary->site() != nullptr) primary->site()->remove(primary.get());
  }
  for (auto& [site, w] : state_->secondaries) {
    if (w->site() != nullptr) site->remove(w.get());
  }
  state_->secondaries.clear();
}

double FlowHandle::progress() const {
  if (!state_ || state_->finished) return 1.0;
  const auto primary = state_->primary.lock();
  return primary ? primary->progress() : 1.0;
}

bool FlowHandle::active() const { return state_ && !state_->finished; }

void FlowHandle::set_paused(bool paused) {
  if (!state_ || state_->finished) return;
  if (auto primary = state_->primary.lock()) primary->set_paused(paused);
  for (auto& [site, w] : state_->secondaries) w->set_paused(paused);
}

void FlowHandle::set_caps(const cluster::Resources& caps) {
  if (!state_ || state_->finished) return;
  if (auto primary = state_->primary.lock()) primary->set_caps(caps);
}

void Hdfs::set_telemetry(telemetry::Hub* hub) {
  prof_ = hub != nullptr && hub->profiler.enabled() ? &hub->profiler
                                                    : nullptr;
  if (prof_ != nullptr) {
    prof_flow_scope_ = prof_->intern("storage.flow_setup");
  }
}

FlowHandle Hdfs::run_flow(ExecutionSite& primary_site, WorkloadPtr primary,
                          std::vector<std::pair<ExecutionSite*, WorkloadPtr>>
                              secondaries,
                          DoneFn done) {
  telemetry::Scope prof_scope(prof_, prof_flow_scope_);
  if (prof_ != nullptr) prof_->add(telemetry::WorkCounter::kHdfsFlows);
  auto state = std::make_shared<FlowHandle::State>();
  // The state holds the primary weakly; the primary's completion callback
  // holds the state strongly. The hosting site owns the primary, so the
  // whole structure is released on completion, cancellation or teardown
  // (Machine::reschedule clears on_complete after firing it).
  state->primary = primary;
  state->secondaries = std::move(secondaries);
  primary->on_complete = [state, done = std::move(done)]() {
    if (state->finished) return;
    state->finished = true;
    for (auto& [site, w] : state->secondaries) {
      if (w->site() != nullptr) site->remove(w.get());
    }
    state->secondaries.clear();
    if (done) done();
  };
  for (auto& [site, w] : state->secondaries) site->add(w);
  primary_site.add(std::move(primary));
  return FlowHandle(state);
}

FlowHandle Hdfs::read_block(FileId file, int block, ExecutionSite& reader,
                            DoneFn done, double fraction) {
  if (prof_ != nullptr) prof_->add(telemetry::WorkCounter::kHdfsReads);
  const sim::MegaBytes mb = block_size_mb(file, block) * fraction;
  const auto& reps = replicas(file, block);
  assert(!reps.empty());

  // Closest replica: node-local, then host-local, then any.
  DataNode* chosen = nullptr;
  Locality locality = Locality::kRemote;
  for (DataNode* dn : reps) {
    if (dn->site() == &reader) {
      chosen = dn;
      locality = Locality::kNodeLocal;
      break;
    }
    if (locality == Locality::kRemote && same_host(*dn->site(), reader)) {
      chosen = dn;
      locality = Locality::kHostLocal;
    }
  }
  if (chosen == nullptr) {
    chosen = reps[sim_.rng().index(reps.size())];
  }

  const sim::MBps disk_rate = cal_.hdfs_stream_disk_mbps;
  const sim::MBps net_rate = cal_.hdfs_stream_net_mbps;

  switch (locality) {
    case Locality::kNodeLocal: {
      read_local_mb_ += mb;
      Resources d;
      d.disk = disk_rate.value();
      d.cpu = cal_.hdfs_serve_cpu_per_stream;
      return run_flow(
          reader, std::make_shared<Workload>("hdfs-read", d, mb / disk_rate),
          {}, std::move(done));
    }
    case Locality::kHostLocal: {
      // Served by a sibling VM over the Xen loopback: disk on the serving
      // datanode paces the flow; no physical NIC usage.
      read_local_mb_ += mb;
      Resources d;
      d.disk = disk_rate.value();
      d.cpu = cal_.hdfs_serve_cpu_per_stream;
      return run_flow(
          *chosen->site(),
          std::make_shared<Workload>("hdfs-serve", d, mb / disk_rate), {},
          std::move(done));
    }
    case Locality::kRemote: {
      read_remote_mb_ += mb;
      Resources reader_d;
      reader_d.net = net_rate.value();
      reader_d.cpu = cal_.hdfs_read_cpu_per_stream;
      Resources server_d;
      server_d.disk = net_rate.value();  // disk paced by the network stream
      server_d.net = net_rate.value();
      server_d.cpu = cal_.hdfs_serve_cpu_per_stream;
      auto primary =
          std::make_shared<Workload>("hdfs-read-remote", reader_d,
                                     mb / net_rate);
      std::vector<std::pair<ExecutionSite*, WorkloadPtr>> secs;
      secs.emplace_back(chosen->site(),
                        std::make_shared<Workload>("hdfs-serve-remote",
                                                   server_d, Workload::kService));
      return run_flow(reader, std::move(primary), std::move(secs),
                      std::move(done));
    }
  }
  return {};
}

std::vector<DataNode*> Hdfs::pick_replicas(const ExecutionSite* origin,
                                           int count) {
  std::vector<DataNode*> out;
  DataNode* local = datanode_on(origin);
  if (local == nullptr && origin != nullptr) {
    // Split architecture: no datanode on the writer VM itself — prefer the
    // storage VM on the same physical host (loopback, no NIC traffic).
    for (const auto& dn : datanodes_) {
      if (same_host(*dn->site(), *origin)) {
        local = dn.get();
        break;
      }
    }
  }
  if (local != nullptr) out.push_back(local);
  std::size_t probe = sim_.rng().index(std::max<std::size_t>(
      1, datanodes_.size()));
  while (static_cast<int>(out.size()) < count &&
         out.size() < datanodes_.size()) {
    DataNode* candidate = datanodes_[probe++ % datanodes_.size()].get();
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
  }
  return out;
}

FlowHandle Hdfs::write(ExecutionSite& writer, sim::MegaBytes mb, DoneFn done,
                       int replicas) {
  if (prof_ != nullptr) prof_->add(telemetry::WorkCounter::kHdfsWrites);
  const int want =
      std::min<int>(replicas > 0 ? replicas : cal_.hdfs_replicas,
                    std::max<int>(1, datanodes_.size()));
  const auto reps = pick_replicas(&writer, want);
  const sim::MBps disk_rate = cal_.hdfs_stream_disk_mbps;
  const sim::MBps net_rate = cal_.hdfs_stream_net_mbps;
  written_mb_ += mb;
  for (DataNode* dn : reps) dn->add_stored(mb);

  // The pipeline is paced by its slowest stage; each replica is charged
  // its own disk (plus network for remote hops). The writer itself only
  // touches disk when it hosts the first replica — a split-architecture
  // TaskTracker VM just pushes the stream to its sibling storage VM.
  Resources writer_d;
  writer_d.disk =
      !reps.empty() && reps[0]->site() == &writer ? disk_rate.value() : 0;
  writer_d.cpu = cal_.hdfs_serve_cpu_per_stream;
  bool writer_has_remote_hop = false;
  std::vector<std::pair<ExecutionSite*, WorkloadPtr>> secs;
  for (DataNode* dn : reps) {
    if (dn->site() == &writer) continue;
    Resources rep_d;
    rep_d.disk = disk_rate.value();
    rep_d.cpu = cal_.hdfs_serve_cpu_per_stream;
    if (!same_host(*dn->site(), writer)) {
      rep_d.net = net_rate.value();
      writer_has_remote_hop = true;
    }
    secs.emplace_back(dn->site(),
                      std::make_shared<Workload>("hdfs-replica", rep_d,
                                                 Workload::kService));
  }
  if (writer_has_remote_hop) writer_d.net = net_rate.value();
  const sim::MBps rate = writer_has_remote_hop ? std::min(disk_rate, net_rate)
                                               : disk_rate;
  return run_flow(
      writer, std::make_shared<Workload>("hdfs-write", writer_d, mb / rate),
      std::move(secs), std::move(done));
}

FlowHandle Hdfs::transfer(ExecutionSite& src, ExecutionSite& dst,
                          sim::MegaBytes mb, DoneFn done) {
  if (prof_ != nullptr) {
    prof_->add(telemetry::WorkCounter::kShuffleTransfers);
  }
  const sim::MBps disk_rate = cal_.hdfs_stream_disk_mbps;
  const sim::MBps net_rate = cal_.hdfs_stream_net_mbps;
  if (&src == &dst) {
    // Local fetch: just the disk read.
    Resources d;
    d.disk = disk_rate.value();
    d.cpu = cal_.hdfs_read_cpu_per_stream;
    return run_flow(
        dst, std::make_shared<Workload>("fetch-local", d, mb / disk_rate), {},
        std::move(done));
  }
  if (same_host(src, dst)) {
    // Loopback: disk at the source paces it, capped by the loopback rate.
    const sim::MBps rate = std::min(disk_rate, cal_.loopback_mbps);
    Resources d;
    d.disk = disk_rate.value();
    d.cpu = cal_.hdfs_serve_cpu_per_stream;
    return run_flow(
        src, std::make_shared<Workload>("fetch-loopback", d, mb / rate), {},
        std::move(done));
  }
  Resources dst_d;
  dst_d.net = net_rate.value();
  dst_d.cpu = cal_.hdfs_read_cpu_per_stream;
  Resources src_d;
  src_d.disk = net_rate.value();
  src_d.net = net_rate.value();
  src_d.cpu = cal_.hdfs_serve_cpu_per_stream;
  std::vector<std::pair<ExecutionSite*, WorkloadPtr>> secs;
  secs.emplace_back(&src, std::make_shared<Workload>("fetch-serve", src_d,
                                                     Workload::kService));
  return run_flow(
      dst, std::make_shared<Workload>("fetch-remote", dst_d, mb / net_rate),
      std::move(secs), std::move(done));
}

FlowHandle Hdfs::transfer_batch(
    const std::vector<std::pair<ExecutionSite*, sim::MegaBytes>>& sources,
    ExecutionSite& dst, DoneFn done, int max_streams) {
  if (sources.empty()) {
    throw std::invalid_argument("transfer_batch needs at least one source");
  }
  if (max_streams < 1) {
    throw std::invalid_argument("transfer_batch needs max_streams >= 1, got " +
                                std::to_string(max_streams));
  }
  if (sources.size() == 1) {
    return transfer(*sources.front().first, dst, sources.front().second,
                    std::move(done));
  }
  if (prof_ != nullptr) {
    prof_->add(telemetry::WorkCounter::kShuffleTransfers);
  }
  sim::MegaBytes total;
  for (const auto& [src, mb] : sources) total += mb;
  const double streams = std::min<double>(
      max_streams, static_cast<double>(sources.size()));
  const sim::MBps net_rate = cal_.hdfs_stream_net_mbps;
  const sim::MBps rate = net_rate * streams;

  Resources dst_d;
  dst_d.net = rate.value();
  dst_d.cpu = cal_.hdfs_read_cpu_per_stream * streams;
  std::vector<std::pair<ExecutionSite*, WorkloadPtr>> secs;
  secs.reserve(sources.size());
  for (const auto& [src, mb] : sources) {
    // Each source serves its share across the whole batch window, so its
    // steady rate is its byte fraction of the aggregate stream bandwidth —
    // summed over sources this reproduces the per-flow model's disk/net
    // load exactly.
    const double frac = total > sim::MegaBytes{0} ? mb / total : 0.0;
    Resources src_d;
    src_d.disk = rate.value() * frac;
    src_d.net = rate.value() * frac;
    src_d.cpu = cal_.hdfs_serve_cpu_per_stream * streams * frac;
    secs.emplace_back(src, std::make_shared<Workload>("fetch-serve-batch",
                                                      src_d,
                                                      Workload::kService));
  }
  return run_flow(
      dst,
      std::make_shared<Workload>("fetch-remote-batch", dst_d, total / rate),
      std::move(secs), std::move(done));
}

}  // namespace hybridmr::storage
