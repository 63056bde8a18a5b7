// HDFS-like replicated block store.
//
// The NameNode role (block -> replica map, placement policy) is explicit;
// DataNodes are bound to execution sites (native machines or VMs) and their
// I/O is injected as real disk/network workloads, so storage traffic contends
// with everything else on the cluster. Locality is modelled at three levels:
// node-local (disk only), host-local (disk on the serving VM, loopback
// transfer — the "split architecture" fast path), and remote (disk + network
// on both ends).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/calibration.h"
#include "cluster/machine.h"
#include "sim/simulation.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::storage {

/// A storage daemon living on one execution site.
class DataNode {
 public:
  explicit DataNode(cluster::ExecutionSite& site) : site_(&site) {}

  [[nodiscard]] cluster::ExecutionSite* site() const { return site_; }
  [[nodiscard]] sim::MegaBytes stored_mb() const { return stored_mb_; }
  void add_stored(sim::MegaBytes mb) { stored_mb_ += mb; }

 private:
  // The datanode's host; owned by HybridCluster.
  cluster::ExecutionSite* site_;
  sim::MegaBytes stored_mb_;
};

/// Locality of one read, for metrics and placement decisions.
enum class Locality { kNodeLocal, kHostLocal, kRemote };

/// Handle to an in-flight data flow (read / write / transfer).
///
/// Flows can be cancelled (speculative-execution losers, IPS aborts) and
/// report transfer progress for straggler detection.
///
/// Ownership: the flow state references its pacing workload only weakly.
/// While the flow is in flight the chain site -> primary workload ->
/// on_complete -> state keeps the state alive (handles may be discarded
/// freely); on completion, cancellation or site teardown that chain is
/// released, so no shared_ptr cycle survives — LeakSanitizer runs clean
/// over abandoned mid-flight runs.
class FlowHandle {
 public:
  FlowHandle() = default;

  /// Tears the flow down without firing its completion callback.
  void cancel();

  /// Fraction transferred, in [0, 1]. Completed or empty flows report 1.
  [[nodiscard]] double progress() const;

  [[nodiscard]] bool active() const;

  /// Pauses/resumes every workload in the flow (IPS pause action).
  void set_paused(bool paused);

  /// Applies cgroup-style caps to the pacing workload (I/O throttling).
  void set_caps(const cluster::Resources& caps);

  /// The pacing workload (nullptr once finished); for resource profiling.
  [[nodiscard]] const cluster::Workload* primary() const {
    if (!state_ || state_->finished) return nullptr;
    return state_->primary.lock().get();
  }

 private:
  friend class Hdfs;
  struct State {
    std::weak_ptr<cluster::Workload> primary;
    std::vector<std::pair<cluster::ExecutionSite*, cluster::WorkloadPtr>>
        secondaries;
    bool finished = false;
  };
  explicit FlowHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// The distributed file system (NameNode + DataNodes).
class Hdfs {
 public:
  using FileId = std::size_t;
  using DoneFn = std::function<void()>;

  Hdfs(sim::Simulation& sim, const cluster::Calibration& cal)
      : sim_(sim), cal_(cal) {}

  Hdfs(const Hdfs&) = delete;
  Hdfs& operator=(const Hdfs&) = delete;

  // --- topology ---
  DataNode* add_datanode(cluster::ExecutionSite& site);

  /// Decommissions the DataNode on `site`: every block replica it held is
  /// re-replicated onto a surviving datanode, with the copy traffic
  /// injected as real transfer flows from another replica (or from this
  /// node itself while it drains). Returns false when `site` hosts no
  /// datanode or it is the last one.
  bool remove_datanode(cluster::ExecutionSite& site);

  /// Abruptly kills the DataNodes on `sites` (host crash): unlike
  /// remove_datanode, the dying nodes cannot serve as re-replication
  /// sources — their replicas are simply gone. Every lost replica with a
  /// surviving copy is re-replicated from that copy onto a healthy node
  /// (never one of the dying ones, which is why simultaneous crashes must
  /// go through one call); a block whose last replica died is marked lost
  /// and counted in blocks_lost(). Returns the number of datanodes killed.
  int crash_datanodes(const std::vector<cluster::ExecutionSite*>& sites);

  /// Blocks whose last replica was destroyed by a crash (never recovers).
  [[nodiscard]] int blocks_lost() const { return blocks_lost_; }
  /// True when any block of `file` is lost (readers of the file assert).
  [[nodiscard]] bool has_lost_block(FileId file) const;
  /// Minimum replica count over all non-lost blocks; -1 with no blocks.
  /// After crash recovery this should re-converge to the replication
  /// factor (the audit's replica invariant builds on it).
  [[nodiscard]] int min_replication() const;

  /// Re-replication traffic caused by decommissions and crashes.
  [[nodiscard]] sim::MegaBytes re_replicated_mb() const {
    return re_replicated_mb_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<DataNode>>& datanodes()
      const {
    return datanodes_;
  }
  /// DataNode resident on `site`, or nullptr.
  [[nodiscard]] DataNode* datanode_on(const cluster::ExecutionSite* site) const;

  // --- namespace ---

  /// Registers a pre-loaded input file: blocks are placed randomly with
  /// `replicas` copies each (no simulated I/O; the data is already there,
  /// like a staged benchmark input). `block_mb` overrides the cluster
  /// block size when positive. Throws std::invalid_argument without a
  /// datanode or when `size_mb` is negative or not finite.
  FileId stage_file(const std::string& name, sim::MegaBytes size_mb,
                    sim::MegaBytes block_mb = sim::MegaBytes{0});

  [[nodiscard]] int num_blocks(FileId file) const;
  [[nodiscard]] sim::MegaBytes block_size_mb(FileId file, int block) const;
  [[nodiscard]] std::span<DataNode* const> replicas(FileId file,
                                                    int block) const;
  /// The blocks of `file` with a replica on `site`, in ascending index
  /// order (empty when it holds none): the locality index the JobTracker
  /// picks data-local maps from. O(log replicas of the file); exact at
  /// every instant, because stage_file, remove_datanode and
  /// crash_datanodes — the only writers of the replica map — rebuild it
  /// for each file they touch.
  [[nodiscard]] std::span<const std::uint32_t> blocks_on(
      FileId file, const cluster::ExecutionSite& site) const;

  // --- asynchronous I/O (all costs are real workloads) ---

  /// Reads `fraction` of one block at `reader`; serves from the closest
  /// replica.
  FlowHandle read_block(FileId file, int block,
                        cluster::ExecutionSite& reader, DoneFn done,
                        double fraction = 1.0);

  /// Writes `mb` with the replication pipeline (local first, then remote
  /// replicas), charging disk at every replica and network for remote
  /// hops. `replicas` overrides the cluster default when positive.
  FlowHandle write(cluster::ExecutionSite& writer, sim::MegaBytes mb,
                   DoneFn done, int replicas = 0);

  /// Raw transfer of `mb` from `src` to `dst` (shuffle traffic): disk read
  /// at src plus network unless the sites share a physical host.
  FlowHandle transfer(cluster::ExecutionSite& src, cluster::ExecutionSite& dst,
                      sim::MegaBytes mb, DoneFn done);

  /// Coalesced shuffle fetch: pulls every (source, mb) share into `dst` as
  /// ONE paced flow instead of one flow per source, so a reducer's shuffle
  /// costs a single completion event however many machines feed it. The
  /// aggregate stream runs at net_rate x min(max_streams, sources) — the
  /// same bandwidth a `max_streams`-deep pump of individual transfers
  /// sustains — and each source carries a serve-side secondary sized to its
  /// byte share of the batch, so per-machine disk/net accounting matches
  /// the per-flow model it replaces. A single source degenerates to a plain
  /// transfer() (identical demands and workload names). `sources` must be
  /// remote to `dst` (no same-site or same-host entries). Throws
  /// std::invalid_argument when `sources` is empty or `max_streams` < 1.
  FlowHandle transfer_batch(
      const std::vector<std::pair<cluster::ExecutionSite*, sim::MegaBytes>>&
          sources,
      cluster::ExecutionSite& dst, DoneFn done, int max_streams = 4);

  // --- metrics ---

  /// Attaches the storage layer to a telemetry hub (null detaches). Only
  /// the profiler is consumed today: flow/read/write/transfer counters and
  /// the flow-setup wall scope feed the shuffle-path hotspot analysis.
  void set_telemetry(telemetry::Hub* hub);

  [[nodiscard]] sim::MegaBytes bytes_read_local_mb() const {
    return read_local_mb_;
  }
  [[nodiscard]] sim::MegaBytes bytes_read_remote_mb() const {
    return read_remote_mb_;
  }
  [[nodiscard]] sim::MegaBytes bytes_written_mb() const {
    return written_mb_;
  }

 private:
  // A file's replica map and locality index are flat arrays sized exactly
  // to its replicas (a file of many small blocks, like Pi's 1 MB splits,
  // would pay a heap block per block for nested lists).
  struct File {
    std::string name;
    sim::MegaBytes size_mb;
    sim::MegaBytes block_mb;
    // Block b's replicas: replica_nodes[replica_start[b], replica_start[b+1]).
    std::vector<std::uint32_t> replica_start;
    std::vector<DataNode*> replica_nodes;
    // 1 for blocks whose last replica died in a crash (one per block; the
    // audit pairs "no replicas" with "marked lost").
    std::vector<char> block_lost;
    // Locality index (blocks_on()): one entry per replica, sorted by
    // (site, block); index_blocks[i] is the block whose replica lives on
    // index_sites[i], so one lookup is a binary search.
    std::vector<const cluster::ExecutionSite*> index_sites;
    std::vector<std::uint32_t> index_blocks;

    [[nodiscard]] std::size_t blocks() const { return block_lost.size(); }
    [[nodiscard]] std::span<DataNode* const> replicas(std::size_t b) const {
      return {replica_nodes.data() + replica_start[b],
              replica_start[b + 1] - replica_start[b]};
    }
  };

  /// `file`'s replica map as one list per block (for the cold paths that
  /// edit it).
  static std::vector<std::vector<DataNode*>> replica_lists(const File& file);
  /// Replaces `file`'s replica map with `per_block` and rebuilds its
  /// locality index.
  static void set_replicas(
      File& file, const std::vector<std::vector<DataNode*>>& per_block);
  /// Rebuilds `file`'s locality index from its replica map.
  static void index_replicas(File& file);

  /// Runs a flow: `primary` paces the transfer; `secondaries` model the load
  /// on other participants and are detached when the primary completes.
  FlowHandle run_flow(cluster::ExecutionSite& primary_site,
                      cluster::WorkloadPtr primary,
                      std::vector<std::pair<cluster::ExecutionSite*,
                                            cluster::WorkloadPtr>> secondaries,
                      DoneFn done);

  /// Picks `count` distinct replica targets, preferring one local to
  /// `origin` (standard HDFS placement policy).
  std::vector<DataNode*> pick_replicas(const cluster::ExecutionSite* origin,
                                       int count);

  /// Size of block `block` of a file of `size_mb` split into `blocks`
  /// blocks of nominal size `block_size`.
  [[nodiscard]] static sim::MegaBytes block_mb_of(sim::MegaBytes size_mb,
                                                  int block, int blocks,
                                                  sim::MegaBytes block_size);

  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): every block's replica
  /// list is non-empty, duplicate-free, within the datanode count, and
  /// points only at registered datanodes.
  void audit_verify_placement() const;

  sim::Simulation& sim_;
  const cluster::Calibration& cal_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::vector<File> files_;
  std::size_t placement_cursor_ = 0;
  int blocks_lost_ = 0;
  sim::MegaBytes read_local_mb_;
  sim::MegaBytes read_remote_mb_;
  sim::MegaBytes written_mb_;
  sim::MegaBytes re_replicated_mb_;
  // Cached profiler handle (null unless a profiled run).
  telemetry::Profiler* prof_ = nullptr;
  telemetry::ScopeId prof_flow_scope_;
};

/// True when the two sites run on the same physical machine.
bool same_host(const cluster::ExecutionSite& a, const cluster::ExecutionSite& b);

}  // namespace hybridmr::storage
