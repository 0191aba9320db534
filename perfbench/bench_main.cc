// End-to-end and per-layer benchmark of trel's read, write, recovery and
// sharded paths.  One process runs one named workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Phases: set-up (Load), a single-client read phase, a checkpoint, a mixed
// phase (one writer, two readers), and a recovery.  Every answer class is
// checked against the benchmark's own BFS oracle (oracle.h).  With
// --trace 0 the last stdout line is a JSON object holding the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics, spans are kept in
// memory and written to .perfbench_out/ when the run ends.  See README.md.

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chain_propagator.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "oracle.h"
#include "service/query_service.h"
#include "service/sharded_service.h"
#include "spans.h"
#include "storage/update_log.h"

namespace perfbench {
namespace {

using trel::ClosureSnapshot;
using trel::Digraph;
using trel::DynamicClosure;
using trel::QueryService;
using trel::ShardedQueryService;
using trel::Status;
using trel::StatusOr;
using trel::UpdateOp;
using Pair = std::pair<NodeId, NodeId>;
using SnapshotPtr = std::shared_ptr<const ClosureSnapshot>;

constexpr int kBlock = 1000;  // single queries per timed block
// Pairs per BatchReaches call; below ServiceOptions::min_parallel_batch
// (2048), so a batch runs on the calling thread.
constexpr int kBatch = 1024;
// Successors calls per timed block.  Per-call costs are bimodal on some
// graphs (a source reaches half the graph or nothing), so the metric is
// the median of block means.
constexpr int kSuccessorsBlock = 16;
constexpr int kPoolPairs = 1 << 16;
constexpr int kCheckSources = 128;
// The recovery replays the journal of the mixed phase's first
// kLoggedBatches batches, so every run recovers the same amount of work.
constexpr int64_t kLoggedBatches = 16;
constexpr int kReaders = 2;
// Single-threaded phases are cut into this many time slices, each pinned
// to the next CPU; the first round of a slice only warms its caches.
constexpr int kSlices = 16;
constexpr int kShards = 4;
constexpr int32_t kNoCheck = -1;
constexpr int32_t kWalk = -2;  // reachable by construction

struct Spec {
  const char* name;
  bool sharded;
  Digraph (*make)(uint64_t seed);
  // False: every generated arc ends at a node the writer added, so
  // reachability among the generated nodes never changes.
  bool arcs_between_originals;
  int leaves_per_batch;
  int arcs_per_batch;
  // Batches per round.  The last batch of a round also removes one
  // writer-added arc, which forces a full publish.
  int round_batches;
  // Update batches per second of the mixed phase.  The phase applies a
  // fixed number of whole rounds, each batch started on its own slot of
  // the phase, so every run goes through the same sequence of states at
  // the same pace whatever the host's speed.
  int batches_per_s;
};

const Spec kSpecs[] = {
    {"random_reads", false,
     [](uint64_t s) { return trel::RandomDag(50000, 4.0, s); }, false, 6, 2,
     16, 12},
    {"chained_updates", false,
     [](uint64_t s) { return trel::ChainedDag(50, 1000, 4.0, s); }, true, 12,
     8, 16, 16},
    {"family_bipartite", false,
     [](uint64_t) { return trel::CompleteBipartite(1000, 1000); }, false, 6, 2,
     16, 20},
    {"family_hub", false,
     [](uint64_t s) { return trel::HubDag(2000, 16, 2000, s); }, false, 6, 2,
     16, 20},
    {"sharded_clustered", true,
     [](uint64_t s) { return trel::ClusteredDag(16, 3125, 3.0, 3, 0.08, s); },
     true, 8, 8, 4, 15},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Pins the calling thread to each CPU of its affinity mask in turn, so a
// single-threaded phase samples every CPU; restores the mask when done.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // The slice of `[start, start + length)` that holds `now`; pins to the
  // slice's CPU when the slice starts, setting *fresh.
  int64_t Slice(int64_t start, int64_t length, int64_t now, bool* fresh) {
    const int64_t slice = std::min<int64_t>(
        kSlices - 1, (now - start) * kSlices / std::max<int64_t>(length, 1));
    *fresh = slice != slice_;
    if (*fresh) {
      slice_ = slice;
      Pin(slice);
    }
    return slice;
  }

  // Pins to the CPU for `turn` and returns its index in the mask.
  int Pin(int64_t turn) {
    if (cpus_.empty()) return 0;
    const int index = static_cast<int>(turn % static_cast<int64_t>(cpus_.size()));
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[index], &one);
    sched_setaffinity(0, sizeof(one), &one);
    return index;
  }
  void Restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  // True while a repetition loop begun at `started` should go on: until
  // every CPU has had a turn (at least 3) and the loop has run for
  // `window` ns, at most 60 turns.  It stops only after whole rotations, so
  // every CPU has as many turns as the others: a median over unequal turns
  // moves with the share of the slower CPUs.
  bool Again(int turn, int64_t started, int64_t window) const {
    const int rotation = std::max(3, static_cast<int>(cpus_.size()));
    if (turn < rotation || turn % rotation != 0) return true;
    return turn < 60 && NowNs() - started < window;
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  int64_t slice_ = -1;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Counts operations and failures; the first few failures go to stderr.
class Tally {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Expect(bool ok, const char* what, int64_t a = -1, int64_t b = -1) {
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "FAIL: %s (%lld, %lld)\n", what,
                   static_cast<long long>(a), static_cast<long long>(b));
    }
  }
  void Merge(const Tally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// An output stream buffer whose storage is kept from one checkpoint to the
// next, so a repeated Save writes into memory that is already mapped: its
// time is Save's own, not a string stream's regrowth and final copy.
class ImageBuffer : public std::streambuf {
 public:
  std::ostream& Rewind() {
    image_.clear();  // keeps the capacity
    return stream_;
  }
  const std::string& image() const { return image_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) image_.push_back(static_cast<char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    image_.append(data, static_cast<size_t>(n));
    return n;
  }

 private:
  std::string image_;
  std::ostream stream_{this};
};

// Query pairs and the oracle answers the benchmark can check them with.
struct Pool {
  std::vector<Pair> pairs;      // even: random walk; odd: random pair
  std::vector<int32_t> check;   // kWalk, kNoCheck, or an index into sources
  std::vector<NodeId> sources;  // check sources, BFS'ed by the oracle
  std::vector<std::vector<uint64_t>> bits;  // their reach sets, current
  std::vector<NodeId> succ_nodes;
  std::vector<int32_t> succ_check;  // kNoCheck or an index into sources

  void Refresh(const Oracle& oracle) {
    bits.clear();
    for (NodeId s : sources) bits.push_back(oracle.ReachBits(s));
  }
  // True if `answer` for pool pair `idx` is consistent with the oracle.
  // Random pairs are checked only when `check_random` (their answers may
  // change while a writer runs); walk pairs stay reachable throughout.
  bool Consistent(size_t idx, bool answer, bool check_random) const {
    const int32_t c = check[idx];
    if (c == kWalk) return answer;
    if (c >= 0 && check_random) {
      return answer == Oracle::Test(bits[c], pairs[idx].second);
    }
    return true;
  }
};

Pool MakePool(const Oracle& oracle, std::mt19937_64& rng) {
  Pool pool;
  const NodeId n = oracle.NumNodes();
  auto node = [&] { return static_cast<NodeId>(rng() % n); };
  for (int i = 0; i < kCheckSources; ++i) pool.sources.push_back(node());
  pool.Refresh(oracle);
  pool.pairs.resize(kPoolPairs);
  pool.check.resize(kPoolPairs);
  for (int i = 0; i < kPoolPairs; ++i) {
    if (i % 2 == 0) {
      NodeId start = node();
      for (int tries = 0; oracle.Out(start).empty() && tries < 64; ++tries) {
        start = node();
      }
      NodeId at = start;
      const int steps = 1 + static_cast<int>(rng() % 8);
      for (int s = 0; s < steps && !oracle.Out(at).empty(); ++s) {
        const std::vector<NodeId>& out = oracle.Out(at);
        at = out[rng() % out.size()];
      }
      pool.pairs[i] = {start, at};
      pool.check[i] = at != start ? kWalk : kNoCheck;
    } else if ((i / 2) % 16 == 0) {
      const int32_t c = static_cast<int32_t>(rng() % kCheckSources);
      pool.pairs[i] = {pool.sources[c], node()};
      pool.check[i] = c;
    } else {
      pool.pairs[i] = {node(), node()};
      pool.check[i] = kNoCheck;
    }
  }
  for (int i = 0; i < 4096; ++i) {
    if (i % 8 == 0) {
      const int32_t c = static_cast<int32_t>(rng() % kCheckSources);
      pool.succ_nodes.push_back(pool.sources[c]);
      pool.succ_check.push_back(c);
    } else {
      pool.succ_nodes.push_back(node());
      pool.succ_check.push_back(kNoCheck);
    }
  }
  return pool;
}

// The monolithic or the sharded service behind one set of calls.
class Front {
 public:
  Front(bool sharded, int pool_workers) {
    if (sharded) {
      trel::ShardedServiceOptions options;
      options.num_shards = kShards;
      sharded_ = std::make_unique<ShardedQueryService>(options);
    } else {
      trel::ServiceOptions options;
      options.num_workers = pool_workers;
      mono_ = std::make_unique<QueryService>(options);
    }
  }

  QueryService* mono() const { return mono_.get(); }
  ShardedQueryService* sharded() const { return sharded_.get(); }

  Status Load(const Digraph& g) {
    return mono_ ? mono_->Load(g) : sharded_->Load(g);
  }
  bool Reaches(NodeId u, NodeId v) const {
    return mono_ ? mono_->Reaches(u, v) : sharded_->Reaches(u, v);
  }
  std::vector<uint8_t> BatchReaches(const std::vector<Pair>& pairs) const {
    return mono_ ? mono_->BatchReaches(pairs) : sharded_->BatchReaches(pairs);
  }
  std::vector<NodeId> Successors(NodeId u) const {
    return mono_ ? mono_->Successors(u) : sharded_->Successors(u);
  }
  StatusOr<NodeId> AddLeafUnder(NodeId p) {
    return mono_ ? mono_->AddLeafUnder(p) : sharded_->AddLeafUnder(p);
  }
  Status AddArc(NodeId u, NodeId v) {
    return mono_ ? mono_->AddArc(u, v) : sharded_->AddArc(u, v);
  }
  Status RemoveArc(NodeId u, NodeId v) {
    return mono_ ? mono_->RemoveArc(u, v) : sharded_->RemoveArc(u, v);
  }
  uint64_t Publish() { return mono_ ? mono_->Publish() : sharded_->Publish(); }

  int NumShards() const { return mono_ ? 1 : sharded_->num_shards(); }
  QueryService& Shard(int s) const {
    return mono_ ? *mono_ : sharded_->shard(s);
  }

 private:
  std::unique_ptr<QueryService> mono_;
  std::unique_ptr<ShardedQueryService> sharded_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const Args& args, const Spec& spec)
      : args_(args),
        spec_(spec),
        graph_(spec.make(args.seed)),
        oracle_(graph_),
        rng_(args.seed * 0x9E3779B97F4A7C15ull + 17),
        cpus_(UsableCpus()) {}

  int Run();

 private:
  SpanLog* Log(int thread) {
    return args_.trace ? logs_[static_cast<size_t>(thread)].get() : nullptr;
  }
  NodeId RandomNode(std::mt19937_64& rng) const {
    return static_cast<NodeId>(rng() % static_cast<uint64_t>(oracle_.NumNodes()));
  }
  // How long each repeated step (checkpoint, recovery) repeats: 15% of the
  // run, so that its median rests on several turns of every CPU.
  int64_t RepetitionWindowNs() const {
    return static_cast<int64_t>(args_.seconds * 0.15 * 1e9);
  }

  void Setup();
  void ReadPhase();
  void LayerProbes();
  void Checkpoint();
  void MixedPhase();
  void FinalChecks();
  void Recover();
  void Report();

  void CheckSnapshotSample(Tally& tally, NodeId source, std::mt19937_64& rng);
  bool SnapshotReaches(const SnapshotPtr& snap, NodeId u, NodeId v) const {
    return snap != nullptr ? snap->Reaches(u, v) : front_->Reaches(u, v);
  }

  const int64_t start_ns_ = NowNs();
  const Args args_;
  const Spec& spec_;
  Digraph graph_;
  Oracle oracle_;
  std::mt19937_64 rng_;
  const int cpus_;
  Pool pool_;
  std::unique_ptr<Front> front_;
  Tally tally_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;

  // Raw samples, reduced in Report().
  double setup_s_ = 0, resident_mb_ = 0;
  SliceSamples reach_ns_, batch_ns_, succ_us_;
  SliceSamples reach_traced_ns_, batch_traced_ns_, succ_traced_us_;
  // Per repetition; reported as medians.
  std::vector<double> checkpoint_s_, recover_s_, load_ms_, log_read_ms_,
      replay_ms_;
  std::vector<double> under_writes_ns_;
  std::vector<double> visible_ms_;        // per batch
  std::vector<double> visible_round_ms_;  // per-batch mean of each round
  std::vector<double> publish_ms_, publish_delta_ms_, publish_chain_ms_,
      publish_optimal_ms_;
  std::vector<double> add_leaf_us_, add_arc_us_, remove_arc_us_, append_us_;
  std::vector<double> overlay_nodes_;
  double checkpoint_mb_ = 0;
  int64_t tier_delta_ = 0, tier_chain_ = 0, tier_optimal_ = 0;
  int64_t boundary_republishes_ = 0, hub_promotions_ = 0;
  std::map<std::string, double> probe_;  // traced layer probes
  std::string checkpoint_;               // last monolithic checkpoint
  std::stringstream journal_;            // ops acknowledged since it
  // State after kLoggedBatches batches: the snapshot then published, the
  // journal length and the writer-added arcs at that point.
  SnapshotPtr recovery_point_;
  std::streamoff recovery_log_bytes_ = 0;
  std::vector<Pair> recovery_arcs_;
  int64_t batches_ = 0;
  int64_t late_batches_ = 0;  // started more than 1 ms after their slot
  double max_late_ms_ = 0;
  std::vector<Pair> added_arcs_;   // writer-added arcs, removable
  std::vector<NodeId> leaves_;     // writer-added nodes
};

void Bench::Setup() {
  pool_ = MakePool(oracle_, rng_);
  // The worker pool is the only knob changed from ServiceOptions' default.
  // A full publish shards its export over the pool, so the pool is sized
  // for the writer, the pool and the two mixed-phase readers never to
  // outnumber the usable CPUs.
  const int pool_workers = std::max(0, cpus_ - 1 - kReaders);
  const double rss0 = RssMb();
  const int64_t t0 = NowNs();
  front_ = std::make_unique<Front>(spec_.sharded, pool_workers);
  Status st;
  {
    ScopedSpan span(Log(0), spec_.sharded ? "service.ShardedLoad" : "service.Load");
    st = front_->Load(graph_);
  }
  setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
  resident_mb_ = RssMb() - rss0;
  tally_.Attempt();
  tally_.Expect(st.ok(), "Load");
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
}

void Bench::ReadPhase() {
  const int64_t start = NowNs();
  const int64_t length = static_cast<int64_t>(args_.seconds * 0.4 * 1e9);
  const int64_t deadline = start + length;
  std::array<Pair, kBlock> block;
  std::array<uint8_t, kBlock> answers;
  std::vector<Pair> batch(kBatch);
  size_t cursor = 0, succ_cursor = 0;
  CpuRotation rotation;
  for (int64_t round = 0; NowNs() < deadline; ++round) {
    bool warmup = false;
    const int64_t slice = rotation.Slice(start, length, NowNs(), &warmup);
    auto record = [&](SliceSamples& samples, double x) {
      if (!warmup) samples.Add(slice, x);
    };
    // In traced runs odd rounds carry spans and even rounds do not, so the
    // tracing overhead is measured in the same process.
    const bool traced = args_.trace && (round % 2 == 1);
    SpanLog* log = traced ? Log(0) : nullptr;
    ScopedSpan round_span(log, "bench.read_round");

    const size_t base = cursor;
    for (int i = 0; i < kBlock; ++i) {
      block[i] = pool_.pairs[(cursor + i) % kPoolPairs];
    }
    cursor += kBlock;
    int64_t t0 = 0, t1 = 0;
    {
      ScopedSpan span(log, "service.Reaches_x1000");
      t0 = NowNs();
      if (QueryService* m = front_->mono()) {
        for (int i = 0; i < kBlock; ++i) {
          answers[i] = m->Reaches(block[i].first, block[i].second);
        }
      } else {
        ShardedQueryService* s = front_->sharded();
        for (int i = 0; i < kBlock; ++i) {
          answers[i] = s->Reaches(block[i].first, block[i].second);
        }
      }
      t1 = NowNs();
    }
    record(traced ? reach_traced_ns_ : reach_ns_,
           static_cast<double>(t1 - t0) / kBlock);
    tally_.Attempt(kBlock);
    for (int i = 0; i < kBlock; ++i) {
      tally_.Expect(pool_.Consistent((base + i) % kPoolPairs, answers[i], true),
                    "read Reaches", block[i].first, block[i].second);
    }

    const size_t batch_base = cursor;
    for (int i = 0; i < kBatch; ++i) {
      batch[i] = pool_.pairs[(cursor + i) % kPoolPairs];
    }
    cursor += kBatch;
    std::vector<uint8_t> out;
    {
      ScopedSpan span(log, "service.BatchReaches");
      t0 = NowNs();
      out = front_->BatchReaches(batch);
      t1 = NowNs();
    }
    record(traced ? batch_traced_ns_ : batch_ns_,
           static_cast<double>(t1 - t0) / kBatch);
    tally_.Attempt(kBatch);
    tally_.Expect(out.size() == batch.size(), "batch size");
    for (int i = 0; i < kBatch && i < static_cast<int>(out.size()); ++i) {
      tally_.Expect(
          pool_.Consistent((batch_base + i) % kPoolPairs, out[i] != 0, true),
          "read BatchReaches", batch[i].first, batch[i].second);
    }
    if (round % 4 == 0) {
      // Batch answers must equal single answers on one snapshot (no writer
      // runs in this phase, so the service's snapshot is fixed).
      const SnapshotPtr snap =
          front_->mono() ? front_->mono()->Snapshot() : nullptr;
      for (int i = 0; i < kBatch && i < static_cast<int>(out.size()); ++i) {
        tally_.Expect((out[i] != 0) ==
                          SnapshotReaches(snap, batch[i].first, batch[i].second),
                      "batch != single", batch[i].first, batch[i].second);
      }
    }

    std::array<std::vector<NodeId>, kSuccessorsBlock> succ;
    const size_t succ_base = succ_cursor;
    succ_cursor += kSuccessorsBlock;
    t0 = NowNs();
    for (int k = 0; k < kSuccessorsBlock; ++k) {
      const NodeId u = pool_.succ_nodes[(succ_base + k) % pool_.succ_nodes.size()];
      ScopedSpan span(log, "service.Successors");
      succ[k] = front_->Successors(u);
    }
    t1 = NowNs();
    record(traced ? succ_traced_us_ : succ_us_,
           static_cast<double>(t1 - t0) / 1e3 / kSuccessorsBlock);
    tally_.Attempt(kSuccessorsBlock);
    for (int k = 0; k < kSuccessorsBlock; ++k) {
      const size_t idx = (succ_base + k) % pool_.succ_nodes.size();
      const int32_t c = pool_.succ_check[idx];
      if (c >= 0) {
        std::sort(succ[k].begin(), succ[k].end());
        tally_.Expect(succ[k] == Oracle::Members(pool_.bits[c], pool_.succ_nodes[idx]),
                      "read Successors", pool_.succ_nodes[idx]);
      }
    }
  }
}

// Traced runs only: each layer's public calls, timed on their own against
// the snapshot Load published, plus the tracing and clock costs.
void Bench::LayerProbes() {
  SpanLog* log = Log(0);
  ScopedSpan probes_span(log, "bench.layer_probes");

  std::vector<double> clock_ns;
  for (int b = 0; b < 200; ++b) {
    int64_t last = 0;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kBlock; ++i) last = NowNs();
    clock_ns.push_back(static_cast<double>(last - t0) / kBlock);
  }
  probe_["bench.clock_ns"] = Median(clock_ns);

  // graph: the partitioner on the whole generated graph.
  std::vector<double> part_ms;
  std::vector<int32_t> shard_of;
  for (int r = 0; r < 3; ++r) {
    ScopedSpan span(log, "graph.PartitionDag");
    trel::PartitionOptions options;
    options.num_shards = kShards;
    const int64_t t0 = NowNs();
    StatusOr<trel::Partition> part = trel::PartitionDag(graph_, options);
    part_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    tally_.Attempt();
    tally_.Expect(part.ok(), "PartitionDag");
    if (part.ok()) shard_of = part->shard_of;
  }
  probe_["graph.partition_ms"] = Median(part_ms);

  // core: the index build Load runs, on the same graph.
  {
    ScopedSpan span(log, "core.Build");
    const int64_t t0 = NowNs();
    StatusOr<trel::ChainSignals> signals = trel::AnalyzeChains(graph_);
    StatusOr<DynamicClosure> built(trel::FailedPreconditionError("unbuilt"));
    if (signals.ok() && signals->eligible) {
      built = DynamicClosure::BuildWithChains(graph_);
    }
    if (!built.ok()) built = DynamicClosure::Build(graph_);
    probe_["core.build_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    tally_.Attempt();
    tally_.Expect(built.ok(), "core Build");
  }

  // Per-shard snapshots (one for the monolithic service) and pairs local to
  // each: pool pairs on the monolithic service, random local pairs on a
  // shard, whose local ids are internal to the sharded service.
  const int shards = front_->NumShards();
  std::vector<SnapshotPtr> snaps;
  std::vector<std::vector<Pair>> local(shards);
  for (int s = 0; s < shards; ++s) {
    snaps.push_back(front_->Shard(s).Snapshot());
    const NodeId n = snaps.back()->NumNodes();
    for (int i = 0; i < kPoolPairs; ++i) {
      if (front_->mono() != nullptr) {
        local[s].push_back(pool_.pairs[static_cast<size_t>(i)]);
      } else if (n > 0) {
        local[s].push_back({static_cast<NodeId>(rng_() % n),
                            static_cast<NodeId>(rng_() % n)});
      }
    }
  }
  double intervals = 0, arena_mb = 0, family_mb = 0;
  for (const SnapshotPtr& snap : snaps) {
    intervals += static_cast<double>(snap->closure.TotalIntervals());
    arena_mb += static_cast<double>(snap->closure.ArenaByteSize()) / 1e6;
    if (snap->family != trel::IndexFamily::kIntervals) {
      family_mb += static_cast<double>(snap->family_label_bytes) / 1e6;
    }
  }
  probe_["core.intervals"] = intervals;
  probe_["core.arena_mb"] = arena_mb;
  probe_["core.family_mb"] = family_mb;

  // Same-shard and cross-shard pairs through the front end, split by the
  // shard the service (or, on the monolithic service, a 4-way PartitionDag)
  // assigns.
  std::vector<Pair> same, cross;
  for (const Pair& p : pool_.pairs) {
    int su = -1, sv = -1;
    if (ShardedQueryService* sh = front_->sharded()) {
      su = sh->ShardOf(p.first);
      sv = sh->ShardOf(p.second);
    } else if (!shard_of.empty()) {
      su = shard_of[p.first];
      sv = shard_of[p.second];
    }
    (su == sv ? same : cross).push_back(p);
  }

  SliceSamples probe_ns, family_ns, snap_ns, acquire_ns, kernel_ns,
      snap_batch_ns, service_batch_ns, succ_us, same_ns, cross_ns;
  CpuRotation rotation;
  trel::BatchKernelStats stats;
  std::array<uint8_t, kBatch> out;
  std::vector<Pair> batch(kBatch);
  int64_t sink = 0;
  // Every block takes fresh pairs, so no probe runs on lines the one
  // before it just loaded.
  std::vector<size_t> cursor(shards, 0);
  std::vector<Pair> blk(kBlock);
  auto take = [&](int s) {
    const std::vector<Pair>& pairs = local[s];
    for (int i = 0; i < kBlock; ++i) blk[i] = pairs[(cursor[s] + i) % pairs.size()];
    cursor[s] += kBlock;
  };
  auto at = [&](int i) -> const Pair& { return blk[i]; };
  size_t succ_cursor = 0;
  const int64_t start = NowNs();
  // Long enough that a slow spell of the host rarely covers every slice:
  // the within checks compare these times with the read phase's.
  const int64_t length = 2'400'000'000;
  for (int64_t round = 0; NowNs() < start + length; ++round) {
    const int s = static_cast<int>(round % shards);
    bool warmup = false;
    const int64_t slice = rotation.Slice(start, length, NowNs(), &warmup);
    // As in the read phase, the first round of a slice only warms the caches.
    auto record = [&](SliceSamples& samples, double x) {
      if (!warmup) samples.Add(slice, x);
    };
    const ClosureSnapshot& snap = *snaps[s];
    if (local[s].empty()) continue;
    take(s);

    int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "core.CompressedClosure.Reaches_x1000");
      for (int i = 0; i < kBlock; ++i) {
        sink += snap.closure.Reaches(at(i).first, at(i).second);
      }
    }
    int64_t t1 = NowNs();
    record(probe_ns, static_cast<double>(t1 - t0) / kBlock);

    take(s);
    t0 = NowNs();
    {
      ScopedSpan span(log, "core.FamilyProbe_x1000");
      for (int i = 0; i < kBlock; ++i) {
        const Pair& p = at(i);
        switch (snap.family) {
          case trel::IndexFamily::kTrees:
            sink += snap.tree_index->Reaches(p.first, p.second);
            break;
          case trel::IndexFamily::kHop:
            sink += snap.hop_index->Reaches(p.first, p.second);
            break;
          default:
            sink += snap.closure.Reaches(p.first, p.second);
        }
      }
    }
    t1 = NowNs();
    record(family_ns, static_cast<double>(t1 - t0) / kBlock);

    take(s);
    t0 = NowNs();
    {
      ScopedSpan span(log, "service.ClosureSnapshot.Reaches_x1000");
      for (int i = 0; i < kBlock; ++i) {
        sink += snap.Reaches(at(i).first, at(i).second);
      }
    }
    t1 = NowNs();
    record(snap_ns, static_cast<double>(t1 - t0) / kBlock);

    t0 = NowNs();
    {
      ScopedSpan span(log, "service.Snapshot_x1000");
      const QueryService& service = front_->Shard(s);
      for (int i = 0; i < kBlock; ++i) sink += service.Snapshot()->epoch & 1;
    }
    t1 = NowNs();
    record(acquire_ns, static_cast<double>(t1 - t0) / kBlock);

    auto take_batch = [&] {
      for (int i = 0; i < kBatch; ++i) {
        batch[i] = local[s][(cursor[s] + i) % local[s].size()];
      }
      cursor[s] += kBatch;
    };
    take_batch();
    t0 = NowNs();
    {
      ScopedSpan span(log, "core.CompressedClosure.BatchReaches");
      snap.closure.BatchReaches(batch.data(), kBatch, out.data(), &stats);
    }
    t1 = NowNs();
    record(kernel_ns, static_cast<double>(t1 - t0) / kBatch);
    take_batch();
    t0 = NowNs();
    {
      ScopedSpan span(log, "service.ClosureSnapshot.BatchReaches");
      snap.BatchReaches(batch.data(), kBatch, out.data(), nullptr);
    }
    t1 = NowNs();
    record(snap_batch_ns, static_cast<double>(t1 - t0) / kBatch);
    take_batch();
    t0 = NowNs();
    {
      ScopedSpan span(log, "service.BatchReaches");
      sink += front_->Shard(s).BatchReaches(batch).size();
    }
    t1 = NowNs();
    record(service_batch_ns, static_cast<double>(t1 - t0) / kBatch);

    // Successors of the read phase's node mix (ids local to the shard).
    t0 = NowNs();
    for (int k = 0; k < kSuccessorsBlock; ++k) {
      const NodeId u =
          front_->mono() != nullptr
              ? pool_.succ_nodes[succ_cursor++ % pool_.succ_nodes.size()]
              : at(k).first;
      ScopedSpan span(log, "core.CompressedClosure.Successors");
      sink += static_cast<int64_t>(snap.closure.Successors(u).size());
    }
    t1 = NowNs();
    record(succ_us, static_cast<double>(t1 - t0) / 1e3 / kSuccessorsBlock);

    for (int which = 0; which < 2; ++which) {
      const std::vector<Pair>& split = which == 0 ? same : cross;
      if (split.empty()) continue;
      const size_t sbase = static_cast<size_t>(round * kBlock) % split.size();
      t0 = NowNs();
      {
        ScopedSpan span(log, which == 0 ? "service.SameShardReaches_x1000"
                                        : "service.CrossShardReaches_x1000");
        for (int i = 0; i < kBlock; ++i) {
          const Pair& p = split[(sbase + i) % split.size()];
          sink += front_->Reaches(p.first, p.second);
        }
      }
      t1 = NowNs();
      record(which == 0 ? same_ns : cross_ns,
             static_cast<double>(t1 - t0) / kBlock);
    }
  }
  if (sink == 42) std::fprintf(stderr, "#\n");  // keeps the probes live
  rotation.Restore();  // threads started below inherit the full mask

  const double total = static_cast<double>(stats.fast_path + stats.filter_rejects +
                                           stats.group_rejects +
                                           stats.extras_searches);
  probe_["core.probe_ns"] = probe_ns.BestSliceMedian();
  probe_["core.family_probe_ns"] = family_ns.BestSliceMedian();
  probe_["service.route_ns"] = snap_ns.BestSliceMedian() - family_ns.BestSliceMedian();
  probe_["service.snapshot_ns"] = acquire_ns.BestSliceMedian();
  probe_["core.batch_kernel_ns"] = kernel_ns.BestSliceMedian();
  probe_["service.batch_overhead_ns"] =
      service_batch_ns.BestSliceMedian() - snap_batch_ns.BestSliceMedian();
  probe_["core.fast_path_share"] = total > 0 ? stats.fast_path / total : 0.0;
  probe_["core.filter_reject_share"] =
      total > 0 ? (stats.filter_rejects + stats.group_rejects) / total : 0.0;
  probe_["core.extras_per_pair"] =
      total > 0 ? stats.extras_searches / total : 0.0;
  probe_["core.successors_us"] = succ_us.BestSliceMedian();
  probe_["service.sharded_same_shard_ns"] = same_ns.BestSliceMedian();
  probe_["service.sharded_cross_shard_ns"] = cross_ns.BestSliceMedian();

  // Two clients calling the front end's single-shot Reaches at once.
  {
    std::vector<double> contended[2];
    const int64_t stop = NowNs() + 300'000'000;
    auto client = [&](int c) {
      SpanLog* clog = Log(1 + c);
      size_t cursor = static_cast<size_t>(c) * (kPoolPairs / 2);
      int64_t local_sink = 0;
      while (NowNs() < stop) {
        ScopedSpan span(clog, "service.ReachesContended_x1000");
        const int64_t t0 = NowNs();
        for (int i = 0; i < kBlock; ++i) {
          const Pair& p = pool_.pairs[(cursor + i) % kPoolPairs];
          local_sink += front_->Reaches(p.first, p.second);
        }
        contended[c].push_back(static_cast<double>(NowNs() - t0) / kBlock);
        cursor += kBlock;
      }
      if (local_sink == 42) std::fprintf(stderr, "#\n");
    };
    std::thread other(client, 1);
    client(0);
    other.join();
    contended[0].insert(contended[0].end(), contended[1].begin(),
                        contended[1].end());
    probe_["service.reach_contended_ns"] = Median(contended[0]);
  }

  // core: ExportClosure of the live index, through Apply.
  {
    double export_ms = 0;
    for (int s = 0; s < shards; ++s) {
      ScopedSpan span(log, "service.Apply");
      const Status st = front_->Shard(s).Apply([&](DynamicClosure& d) {
        ScopedSpan inner(log, "core.ExportClosure");
        const int64_t t0 = NowNs();
        const trel::CompressedClosure c = d.ExportClosure();
        export_ms += static_cast<double>(NowNs() - t0) / 1e6;
        return c.NumNodes() == d.NumNodes()
                   ? Status::Ok()
                   : trel::InternalError("export lost nodes");
      });
      tally_.Attempt();
      tally_.Expect(st.ok(), "ExportClosure");
    }
    probe_["core.export_ms"] = export_ms;
  }
}

// Monolithic workloads: Save of the live index, through Apply.  The last
// one is the checkpoint the recovery starts from; the mixed phase journals
// every op acknowledged after it.
void Bench::Checkpoint() {
  SpanLog* log = Log(0);
  CpuRotation rotation;
  ImageBuffer buffer;
  const int64_t reps_start = NowNs();
  for (int r = 0; rotation.Again(r, reps_start, RepetitionWindowNs()); ++r) {
    rotation.Pin(r);
    std::ostream& out = buffer.Rewind();
    ScopedSpan span(log, "service.Apply");
    const int64_t t0 = NowNs();
    const Status st = front_->mono()->Apply([&](DynamicClosure& d) {
      ScopedSpan inner(log, "storage.DynamicClosure.Save");
      return d.Save(out);
    });
    checkpoint_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    tally_.Attempt();
    tally_.Expect(st.ok() && out.good(), "checkpoint Save");
  }
  checkpoint_ = buffer.image();
  checkpoint_mb_ = static_cast<double>(checkpoint_.size()) / 1e6;
}

// Checks the snapshot just published against a fresh BFS over the mirror:
// single and batch answers from `source`, which must agree.
void Bench::CheckSnapshotSample(Tally& tally, NodeId source,
                                std::mt19937_64& rng) {
  const std::vector<uint64_t> bits = oracle_.ReachBits(source);
  const std::vector<NodeId> reached = Oracle::Members(bits, source);
  std::vector<Pair> pairs;
  for (int i = 0; i < 32; ++i) pairs.push_back({source, RandomNode(rng)});
  for (int i = 0; i < 32 && !reached.empty(); ++i) {
    pairs.push_back({source, reached[rng() % reached.size()]});
  }
  const SnapshotPtr snap = front_->mono() ? front_->mono()->Snapshot() : nullptr;
  std::vector<uint8_t> batch;
  if (snap != nullptr) {
    batch.resize(pairs.size());
    snap->BatchReaches(pairs.data(), static_cast<int64_t>(pairs.size()),
                       batch.data(), nullptr);
  } else {
    batch = front_->BatchReaches(pairs);
  }
  tally.Attempt(2 * static_cast<int64_t>(pairs.size()));
  for (size_t i = 0; i < pairs.size(); ++i) {
    const bool expected = Oracle::Test(bits, pairs[i].second);
    const bool single = SnapshotReaches(snap, pairs[i].first, pairs[i].second);
    tally.Expect(single == expected, "writer-sample single", pairs[i].first,
                 pairs[i].second);
    tally.Expect(i < batch.size() && (batch[i] != 0) == expected,
                 "writer-sample batch", pairs[i].first, pairs[i].second);
  }
}

// Mixed-phase timings are pooled medians (one slice): the writer changes
// the state readers see as the phase goes on, so no part of the phase
// stands for the whole.
void Bench::MixedPhase() {
  const int64_t start = NowNs();
  const int64_t length = static_cast<int64_t>(args_.seconds * 0.6 * 1e9);
  const int64_t rounds = std::max<int64_t>(
      (kLoggedBatches + spec_.round_batches - 1) / spec_.round_batches,
      std::llround(args_.seconds * 0.6 * spec_.batches_per_s /
                   spec_.round_batches));
  const int64_t batches = rounds * spec_.round_batches;
  double round_ms = 0;
  std::atomic<bool> stop{false};
  // Random pool pairs stay checkable by readers only while the writer
  // cannot change reachability among the generated nodes.
  const bool check_random = !spec_.arcs_between_originals;
  std::vector<double> reader_ns[kReaders];
  std::vector<double> reader_overlay[kReaders];
  Tally reader_tally[kReaders];

  auto reader = [&](int r) {
    SpanLog* log = Log(1 + r);
    std::array<uint8_t, kBlock> answers;
    size_t cursor = static_cast<size_t>(r) * (kPoolPairs / kReaders);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t base = cursor;
      cursor += kBlock;
      ScopedSpan block_span(log, "bench.reader_block");
      int64_t t0 = 0, t1 = 0;
      if (QueryService* m = front_->mono()) {
        SnapshotPtr snap;
        {
          ScopedSpan span(log, "service.Snapshot");
          snap = m->Snapshot();
        }
        {
          ScopedSpan span(log, "service.ClosureSnapshot.Reaches_x1000");
          t0 = NowNs();
          for (int i = 0; i < kBlock; ++i) {
            const Pair& p = pool_.pairs[(base + i) % kPoolPairs];
            answers[i] = snap->Reaches(p.first, p.second);
          }
          t1 = NowNs();
        }
        reader_overlay[r].push_back(
            static_cast<double>(snap->closure.OverlayNodeCount()));
      } else {
        ScopedSpan span(log, "service.ShardedReaches_x1000");
        ShardedQueryService* s = front_->sharded();
        t0 = NowNs();
        for (int i = 0; i < kBlock; ++i) {
          const Pair& p = pool_.pairs[(base + i) % kPoolPairs];
          answers[i] = s->Reaches(p.first, p.second);
        }
        t1 = NowNs();
      }
      reader_ns[r].push_back(static_cast<double>(t1 - t0) / kBlock);
      reader_tally[r].Attempt(kBlock);
      for (int i = 0; i < kBlock; ++i) {
        const size_t idx = (base + i) % kPoolPairs;
        reader_tally[r].Expect(
            pool_.Consistent(idx, answers[i] != 0, check_random),
            "reader Reaches", pool_.pairs[idx].first, pool_.pairs[idx].second);
      }
    }
  };

  int64_t republish0 = 0, promote0 = 0;
  if (ShardedQueryService* s = front_->sharded()) {
    republish0 = s->MetricsView().boundary_republishes;
    promote0 = s->MetricsView().hub_promotions;
  }
  std::vector<trel::ServiceMetrics::View> shard_metrics0;
  for (int s = 0; s < front_->NumShards(); ++s) {
    shard_metrics0.push_back(front_->Shard(s).Metrics());
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);

  SpanLog* log = Log(0);
  std::mt19937_64 rng(args_.seed * 0xD1B54A32D192ED03ull + 5);
  std::vector<UpdateOp> ops;
  std::vector<NodeId> new_leaves;
  for (int64_t b = 0; b < batches; ++b) {
    // Open loop: a batch that cannot start on its slot starts late.
    const int64_t due = start + b * length / batches;
    SleepUntil(due);
    const double late_ms = static_cast<double>(NowNs() - due) / 1e6;
    if (late_ms > 1.0) ++late_batches_;
    max_late_ms_ = std::max(max_late_ms_, late_ms);
    // Plan the batch from the mirror: every op must be accepted.
    ops.clear();
    for (int i = 0; i < spec_.leaves_per_batch; ++i) {
      ops.push_back({UpdateOp::Kind::kAddLeaf, RandomNode(rng), trel::kNoNode, {}});
    }
    std::vector<Pair> planned;
    for (int i = 0; i < spec_.arcs_per_batch; ++i) {
      for (int tries = 0; tries < 16; ++tries) {
        NodeId u = RandomNode(rng);
        NodeId v = spec_.arcs_between_originals
                       ? RandomNode(rng)
                       : (leaves_.empty() ? trel::kNoNode
                                          : leaves_[rng() % leaves_.size()]);
        if (v == trel::kNoNode) break;
        if (oracle_.Rank(u) > oracle_.Rank(v)) std::swap(u, v);
        if (!oracle_.CanAdd(u, v) ||
            std::find(planned.begin(), planned.end(), Pair{u, v}) !=
                planned.end()) {
          continue;
        }
        planned.push_back({u, v});
        ops.push_back({UpdateOp::Kind::kAddArc, u, v, {}});
        break;
      }
    }
    const bool removes = b % spec_.round_batches == spec_.round_batches - 1 &&
                         !added_arcs_.empty();
    if (removes) {
      const Pair& victim = added_arcs_[rng() % added_arcs_.size()];
      ops.push_back({UpdateOp::Kind::kRemoveArc, victim.first, victim.second, {}});
    }

    // The timed batch: ops, journal appends, then Publish().
    new_leaves.assign(ops.size(), trel::kNoNode);
    std::vector<bool> acked(ops.size(), false);
    const int64_t t0 = NowNs();
    {
      ScopedSpan batch_span(log, "bench.update_batch");
      for (size_t i = 0; i < ops.size(); ++i) {
        const UpdateOp& op = ops[i];
        Status st;
        const int64_t op0 = NowNs();
        if (QueryService* m = args_.trace ? front_->mono() : nullptr) {
          // Traced: the same update through Apply, so the core call is
          // timed inside the service's writer lock.
          ScopedSpan span(log, "service.Apply");
          st = m->Apply([&](DynamicClosure& d) {
            const int64_t c0 = NowNs();
            Status inner;
            {
              ScopedSpan core_span(log, op.kind == UpdateOp::Kind::kAddLeaf
                                            ? "core.AddLeafUnder"
                                        : op.kind == UpdateOp::Kind::kAddArc
                                            ? "core.AddArc"
                                            : "core.RemoveArc");
              if (op.kind == UpdateOp::Kind::kAddLeaf) {
                StatusOr<NodeId> leaf = d.AddLeafUnder(op.a);
                inner = leaf.status();
                if (leaf.ok()) new_leaves[i] = *leaf;
              } else if (op.kind == UpdateOp::Kind::kAddArc) {
                inner = d.AddArc(op.a, op.b);
              } else {
                inner = d.RemoveArc(op.a, op.b);
              }
            }
            const double us = static_cast<double>(NowNs() - c0) / 1e3;
            (op.kind == UpdateOp::Kind::kAddLeaf ? add_leaf_us_
             : op.kind == UpdateOp::Kind::kAddArc ? add_arc_us_
                                                  : remove_arc_us_)
                .push_back(us);
            return inner;
          });
        } else {
          ScopedSpan span(log, "service.Update");
          if (op.kind == UpdateOp::Kind::kAddLeaf) {
            StatusOr<NodeId> leaf = front_->AddLeafUnder(op.a);
            st = leaf.status();
            if (leaf.ok()) new_leaves[i] = *leaf;
          } else if (op.kind == UpdateOp::Kind::kAddArc) {
            st = front_->AddArc(op.a, op.b);
          } else {
            st = front_->RemoveArc(op.a, op.b);
          }
          if (args_.trace) {
            const double us = static_cast<double>(NowNs() - op0) / 1e3;
            (op.kind == UpdateOp::Kind::kAddLeaf ? add_leaf_us_
             : op.kind == UpdateOp::Kind::kAddArc ? add_arc_us_
                                                  : remove_arc_us_)
                .push_back(us);
          }
        }
        if (st.ok()) {
          acked[i] = true;
          ScopedSpan span(log, "storage.AppendUpdateOp");
          const int64_t a0 = args_.trace ? NowNs() : 0;
          const Status logged = trel::AppendUpdateOp(journal_, op);
          if (args_.trace) {
            append_us_.push_back(static_cast<double>(NowNs() - a0) / 1e3);
          }
          if (!logged.ok()) acked[i] = false;
        } else {
          std::fprintf(stderr, "update refused: %s\n", st.ToString().c_str());
        }
      }
      const int64_t p0 = NowNs();
      {
        ScopedSpan span(log, spec_.sharded ? "service.ShardedPublish"
                                           : "service.Publish");
        front_->Publish();
      }
      const double publish_ms = static_cast<double>(NowNs() - p0) / 1e6;
      publish_ms_.push_back(publish_ms);
      if (QueryService* m = front_->mono()) {
        switch (m->Snapshot()->publish_strategy) {
          case trel::PublishStrategy::kDelta:
            publish_delta_ms_.push_back(publish_ms);
            break;
          case trel::PublishStrategy::kChainFull:
            publish_chain_ms_.push_back(publish_ms);
            break;
          default:
            publish_optimal_ms_.push_back(publish_ms);
        }
      }
    }
    const double batch_ms = static_cast<double>(NowNs() - t0) / 1e6;
    visible_ms_.push_back(batch_ms);
    round_ms += batch_ms;
    if ((b + 1) % spec_.round_batches == 0) {
      visible_round_ms_.push_back(round_ms / spec_.round_batches);
      round_ms = 0;
    }
    ++batches_;

    // Mirror the acknowledged ops, then check the published snapshot.
    tally_.Attempt(static_cast<int64_t>(ops.size()) + 1);
    const SnapshotPtr snap = front_->mono() ? front_->mono()->Snapshot() : nullptr;
    for (size_t i = 0; i < ops.size(); ++i) {
      const UpdateOp& op = ops[i];
      tally_.Expect(acked[i], "update acknowledged", op.a, op.b);
      if (!acked[i]) continue;
      if (op.kind == UpdateOp::Kind::kAddLeaf) {
        oracle_.AddLeaf(op.a, new_leaves[i]);
        leaves_.push_back(new_leaves[i]);
        added_arcs_.push_back({op.a, new_leaves[i]});
        tally_.Expect(SnapshotReaches(snap, op.a, new_leaves[i]),
                      "new leaf visible", op.a, new_leaves[i]);
      } else if (op.kind == UpdateOp::Kind::kAddArc) {
        oracle_.AddArc(op.a, op.b);
        added_arcs_.push_back({op.a, op.b});
        tally_.Expect(SnapshotReaches(snap, op.a, op.b), "new arc visible",
                      op.a, op.b);
      } else {
        oracle_.RemoveArc(op.a, op.b);
        added_arcs_.erase(std::find(added_arcs_.begin(), added_arcs_.end(),
                                    Pair{op.a, op.b}));
      }
    }
    tally_.Expect(oracle_.Ok(), "leaf ids dense");
    if (batches_ == kLoggedBatches && snap != nullptr) {
      recovery_point_ = snap;
      recovery_log_bytes_ = journal_.tellp();
      recovery_arcs_ = added_arcs_;
    }
    const NodeId source = removes ? ops.back().a : RandomNode(rng);
    CheckSnapshotSample(tally_, source, rng);
    if (front_->sharded() != nullptr) {
      double overlay = 0;
      for (int s = 0; s < front_->NumShards(); ++s) {
        overlay += static_cast<double>(
            front_->Shard(s).Snapshot()->closure.OverlayNodeCount());
      }
      overlay_nodes_.push_back(overlay);
    }
  }
  SleepUntil(start + length);
  stop.store(true);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    under_writes_ns_.insert(under_writes_ns_.end(), reader_ns[r].begin(),
                            reader_ns[r].end());
    overlay_nodes_.insert(overlay_nodes_.end(), reader_overlay[r].begin(),
                          reader_overlay[r].end());
    tally_.Merge(reader_tally[r]);
  }
  if (ShardedQueryService* s = front_->sharded()) {
    boundary_republishes_ = s->MetricsView().boundary_republishes - republish0;
    hub_promotions_ = s->MetricsView().hub_promotions - promote0;
    // Per-shard publish tiers, from each shard service's own counters.
    int64_t delta_us = 0, full_us = 0;
    for (int i = 0; i < front_->NumShards(); ++i) {
      const trel::ServiceMetrics::View now = front_->Shard(i).Metrics();
      const trel::ServiceMetrics::View& was = shard_metrics0[i];
      tier_delta_ += now.publishes_delta - was.publishes_delta;
      tier_chain_ += now.publishes_chain_full - was.publishes_chain_full;
      tier_optimal_ += now.publishes_optimal_full - was.publishes_optimal_full;
      delta_us += now.publish_delta_micros_total - was.publish_delta_micros_total;
      full_us += now.publish_full_micros_total - was.publish_full_micros_total;
    }
    if (tier_delta_ > 0) {
      publish_delta_ms_.push_back(static_cast<double>(delta_us) / 1e3 /
                                  static_cast<double>(tier_delta_));
    }
    if (tier_chain_ + tier_optimal_ > 0) {
      publish_optimal_ms_.push_back(static_cast<double>(full_us) / 1e3 /
                                    static_cast<double>(tier_chain_ + tier_optimal_));
    }
  } else {
    tier_delta_ = static_cast<int64_t>(publish_delta_ms_.size());
    tier_chain_ = static_cast<int64_t>(publish_chain_ms_.size());
    tier_optimal_ = static_cast<int64_t>(publish_optimal_ms_.size());
  }
}

// After the mixed phase: the final state against a fresh oracle.
void Bench::FinalChecks() {
  pool_.Refresh(oracle_);
  std::vector<Pair> pairs;
  std::vector<size_t> idx;
  for (size_t i = 0; i < pool_.pairs.size(); ++i) {
    if (pool_.check[i] != kNoCheck) {
      pairs.push_back(pool_.pairs[i]);
      idx.push_back(i);
    }
  }
  std::vector<uint8_t> singles(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    singles[i] = front_->Reaches(pairs[i].first, pairs[i].second);
    tally_.Expect(pool_.Consistent(idx[i], singles[i] != 0, true),
                  "final Reaches", pairs[i].first, pairs[i].second);
  }
  tally_.Attempt(static_cast<int64_t>(pairs.size()));
  for (size_t begin = 0; begin < pairs.size(); begin += kBatch) {
    const size_t end = std::min(pairs.size(), begin + kBatch);
    const std::vector<Pair> chunk(pairs.begin() + begin, pairs.begin() + end);
    const std::vector<uint8_t> out = front_->BatchReaches(chunk);
    tally_.Attempt(static_cast<int64_t>(chunk.size()));
    for (size_t i = 0; i < chunk.size(); ++i) {
      tally_.Expect(i < out.size() && (out[i] != 0) == (singles[begin + i] != 0),
                    "final batch != single", chunk[i].first, chunk[i].second);
    }
  }
  for (int c = 0; c < 16; ++c) {
    const NodeId u = pool_.sources[c];
    std::vector<NodeId> succ = front_->Successors(u);
    std::sort(succ.begin(), succ.end());
    tally_.Attempt();
    tally_.Expect(succ == Oracle::Members(pool_.bits[c], u), "final Successors", u);
  }
}

// Monolithic: Load of the checkpoint, read and replay of the journal up to
// the recovery point, each recovered index checked against the snapshot
// published there and the oracle's walk pairs.  Sharded:
// Save and Load of every shard's index after the final publish (the sharded
// front end journals in global ids, which no shard index can replay).
void Bench::Recover() {
  SpanLog* log = Log(0);
  std::mt19937_64 rng(args_.seed + 99);
  CpuRotation rotation;
  if (QueryService* m = front_->mono()) {
    const SnapshotPtr live = recovery_point_ != nullptr ? recovery_point_
                                                        : m->Snapshot();
    const std::string log_bytes = journal_.str().substr(
        0, recovery_point_ != nullptr ? static_cast<size_t>(recovery_log_bytes_)
                                      : std::string::npos);
    const std::vector<Pair>& arcs =
        recovery_point_ != nullptr ? recovery_arcs_ : added_arcs_;
    const int64_t reps_start = NowNs();
    for (int r = 0; rotation.Again(r, reps_start, RepetitionWindowNs()); ++r) {
      rotation.Pin(r);
      ScopedSpan span(log, "bench.recover");
      std::istringstream ckpt(checkpoint_);
      std::istringstream journal(log_bytes);
      const int64_t t0 = NowNs();
      StatusOr<DynamicClosure> loaded(trel::FailedPreconditionError("unloaded"));
      {
        ScopedSpan s(log, "storage.DynamicClosure.Load");
        loaded = DynamicClosure::Load(ckpt);
      }
      const int64_t t1 = NowNs();
      StatusOr<std::vector<UpdateOp>> ops(trel::FailedPreconditionError("unread"));
      {
        ScopedSpan s(log, "storage.ReadUpdateLog");
        ops = trel::ReadUpdateLog(journal);
      }
      const int64_t t2 = NowNs();
      Status replayed = trel::FailedPreconditionError("not replayed");
      if (loaded.ok() && ops.ok()) {
        ScopedSpan s(log, "storage.ReplayUpdateLog");
        replayed = trel::ReplayUpdateLog(*loaded, *ops);
      }
      const int64_t t3 = NowNs();
      recover_s_.push_back(static_cast<double>(t3 - t0) / 1e9);
      load_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      log_read_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
      replay_ms_.push_back(static_cast<double>(t3 - t2) / 1e6);
      tally_.Attempt();
      tally_.Expect(replayed.ok(), "recovery");
      if (!replayed.ok()) continue;
      const DynamicClosure& d = *loaded;
      tally_.Expect(d.NumNodes() == live->NumNodes(), "recovered node count",
                    d.NumNodes(), live->NumNodes());
      if (d.NumNodes() != live->NumNodes()) continue;
      int64_t checked = 0;
      for (size_t i = 0; i < pool_.pairs.size(); i += 7) {
        const Pair& p = pool_.pairs[i];
        const bool got = d.Reaches(p.first, p.second);
        tally_.Expect(got == live->Reaches(p.first, p.second),
                      "recovered != live", p.first, p.second);
        tally_.Expect(pool_.Consistent(i, got, false), "recovered != oracle",
                      p.first, p.second);
        ++checked;
      }
      for (const Pair& a : arcs) {
        tally_.Expect(d.Reaches(a.first, a.second), "recovered arc", a.first,
                      a.second);
        ++checked;
      }
      tally_.Attempt(checked);
    }
    return;
  }
  // Sharded.
  const int shards = front_->NumShards();
  std::vector<ImageBuffer> buffers(shards);
  const int64_t reps_start = NowNs();
  for (int r = 0; rotation.Again(r, reps_start, RepetitionWindowNs()); ++r) {
    rotation.Pin(r);
    const int64_t t0 = NowNs();
    double bytes = 0;
    for (int s = 0; s < shards; ++s) {
      std::ostream& out = buffers[s].Rewind();
      ScopedSpan span(log, "service.Apply");
      const Status st = front_->Shard(s).Apply([&](DynamicClosure& d) {
        ScopedSpan inner(log, "storage.DynamicClosure.Save");
        return d.Save(out);
      });
      tally_.Attempt();
      tally_.Expect(st.ok() && out.good(), "shard checkpoint");
      bytes += static_cast<double>(buffers[s].image().size());
    }
    checkpoint_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    checkpoint_mb_ = bytes / 1e6;
  }
  const int64_t recover_start = NowNs();
  for (int r = 0; rotation.Again(r, recover_start, RepetitionWindowNs()); ++r) {
    rotation.Pin(r);
    ScopedSpan span(log, "bench.recover");
    double load = 0, read = 0, replay = 0;
    for (int s = 0; s < shards; ++s) {
      std::istringstream ckpt(buffers[s].image());
      std::istringstream journal{std::string()};
      const int64_t t0 = NowNs();
      StatusOr<DynamicClosure> loaded(trel::FailedPreconditionError("unloaded"));
      {
        ScopedSpan sp(log, "storage.DynamicClosure.Load");
        loaded = DynamicClosure::Load(ckpt);
      }
      const int64_t t1 = NowNs();
      StatusOr<std::vector<UpdateOp>> ops(trel::FailedPreconditionError("unread"));
      {
        ScopedSpan sp(log, "storage.ReadUpdateLog");
        ops = trel::ReadUpdateLog(journal);
      }
      const int64_t t2 = NowNs();
      Status replayed = trel::FailedPreconditionError("not replayed");
      if (loaded.ok() && ops.ok()) {
        ScopedSpan sp(log, "storage.ReplayUpdateLog");
        replayed = trel::ReplayUpdateLog(*loaded, *ops);
      }
      const int64_t t3 = NowNs();
      load += static_cast<double>(t1 - t0) / 1e6;
      read += static_cast<double>(t2 - t1) / 1e6;
      replay += static_cast<double>(t3 - t2) / 1e6;
      tally_.Attempt();
      tally_.Expect(replayed.ok(), "shard recovery");
      if (!replayed.ok()) continue;
      const SnapshotPtr live = front_->Shard(s).Snapshot();
      const DynamicClosure& d = *loaded;
      tally_.Expect(d.NumNodes() == live->NumNodes(), "recovered shard size");
      if (d.NumNodes() != live->NumNodes() || d.NumNodes() == 0) continue;
      for (int i = 0; i < 2048; ++i) {
        const NodeId a = static_cast<NodeId>(rng() % d.NumNodes());
        const NodeId b = static_cast<NodeId>(rng() % d.NumNodes());
        tally_.Expect(d.Reaches(a, b) == live->Reaches(a, b),
                      "recovered shard != live", a, b);
      }
      tally_.Attempt(2048);
    }
    recover_s_.push_back((load + read + replay) / 1e3);
    load_ms_.push_back(load);
    log_read_ms_.push_back(read);
    replay_ms_.push_back(replay);
  }
}

std::string Pct(std::vector<double> v, double q, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, Quantile(v, q));
  return buf;
}

void Bench::Report() {
  auto median = [](std::vector<double> v) { return Median(v); };
  e2e_ = {
      {"setup_s", setup_s_, "s"},
      {"resident_mb", resident_mb_, "MB"},
      {"reach_ns", reach_ns_.BestSliceMedian(), "ns"},
      {"batch_reach_ns", batch_ns_.BestSliceMedian(), "ns"},
      {"successors_us", succ_us_.BestSliceMedian(), "us"},
      {"reach_under_writes_ns", median(under_writes_ns_), "ns"},
      {"visible_ms", median(visible_round_ms_), "ms"},
      {"checkpoint_s", median(checkpoint_s_), "s"},
      {"recover_s", median(recover_s_), "s"},
  };
  std::printf("# workload %s seed %llu seconds %g trace %d | cpu \"%s\" nproc %d\n",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0, CpuModel().c_str(), cpus_);
  for (const Metric& m : e2e_) {
    std::printf("# e2e %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  struct Tail {
    const char* name;
    std::vector<double> samples;
  };
  const Tail tails[] = {{"reach_ns_p99", reach_ns_.all()},
                        {"batch_reach_ns_p99", batch_ns_.all()},
                        {"reach_under_writes_ns_p99", under_writes_ns_},
                        {"visible_ms_p99", visible_ms_}};
  for (const Tail& t : tails) {
    const size_t n = t.samples.size();
    std::printf("# tail %-24s %s (n=%zu", t.name, Pct(t.samples, 0.99).c_str(), n);
    if (n < 1000 && n >= 40) {
      // The highest percentile with at least ten samples beyond it.
      const double q = 1.0 - 10.0 / static_cast<double>(n);
      std::printf(", fewer than 10 samples beyond; p%.3g %s", 100 * q,
                  Pct(t.samples, q).c_str());
    } else if (n < 40) {
      std::printf(", too few for a tail");
    }
    std::printf(")\n");
  }
  std::printf("# visible_ms p10 %s p25 %s p50 %s p75 %s p90 %s\n",
              Pct(visible_ms_, 0.1).c_str(),
              Pct(visible_ms_, 0.25).c_str(),
              Pct(visible_ms_, 0.5).c_str(),
              Pct(visible_ms_, 0.75).c_str(),
              Pct(visible_ms_, 0.9).c_str());
  std::printf("# reach_ns pooled median %s, best-slice median %.6g\n",
              Pct(reach_ns_.all(), 0.5).c_str(), reach_ns_.BestSliceMedian());
  std::printf("# publishes delta %lld chain_full %lld optimal_full %lld; "
              "batches %lld\n",
              static_cast<long long>(tier_delta_),
              static_cast<long long>(tier_chain_),
              static_cast<long long>(tier_optimal_),
              static_cast<long long>(batches_));
  std::printf("# writer open loop: %lld batches on fixed slots, %lld started "
              "over 1 ms late (max %.3g ms)\n",
              static_cast<long long>(batches_),
              static_cast<long long>(late_batches_), max_late_ms_);
  if (!args_.trace) return;

  auto add = [&](const char* name, double value, const char* unit) {
    layer_.push_back({name, value, unit});
  };
  std::vector<double> full = publish_chain_ms_;
  full.insert(full.end(), publish_optimal_ms_.begin(), publish_optimal_ms_.end());
  add("graph.partition_ms", probe_["graph.partition_ms"], "ms");
  add("core.build_ms", probe_["core.build_ms"], "ms");
  add("core.intervals", probe_["core.intervals"], "count");
  add("core.arena_mb", probe_["core.arena_mb"], "MB");
  add("core.family_mb", probe_["core.family_mb"], "MB");
  add("core.probe_ns", probe_["core.probe_ns"], "ns");
  add("core.family_probe_ns", probe_["core.family_probe_ns"], "ns");
  add("core.batch_kernel_ns", probe_["core.batch_kernel_ns"], "ns");
  add("core.fast_path_share", probe_["core.fast_path_share"], "ratio");
  add("core.filter_reject_share", probe_["core.filter_reject_share"], "ratio");
  add("core.extras_per_pair", probe_["core.extras_per_pair"], "ratio");
  add("core.successors_us", probe_["core.successors_us"], "us");
  add("core.add_leaf_us", median(add_leaf_us_), "us");
  add("core.add_arc_us", median(add_arc_us_), "us");
  add("core.remove_arc_us", median(remove_arc_us_), "us");
  add("core.export_ms", probe_["core.export_ms"], "ms");
  add("service.snapshot_ns", probe_["service.snapshot_ns"], "ns");
  add("service.reach_contended_ns", probe_["service.reach_contended_ns"], "ns");
  add("service.route_ns", probe_["service.route_ns"], "ns");
  add("service.batch_overhead_ns", probe_["service.batch_overhead_ns"], "ns");
  add("service.publish_ms", median(publish_ms_), "ms");
  add("service.publish_delta_ms", median(publish_delta_ms_), "ms");
  add("service.publish_full_ms", median(full), "ms");
  add("service.publishes_delta", static_cast<double>(tier_delta_), "count");
  add("service.publishes_chain_full", static_cast<double>(tier_chain_), "count");
  add("service.publishes_optimal_full", static_cast<double>(tier_optimal_),
      "count");
  add("service.overlay_nodes", median(overlay_nodes_), "count");
  add("service.sharded_same_shard_ns", probe_["service.sharded_same_shard_ns"],
      "ns");
  add("service.sharded_cross_shard_ns", probe_["service.sharded_cross_shard_ns"],
      "ns");
  add("service.boundary_republishes", static_cast<double>(boundary_republishes_),
      "count");
  add("service.hub_promotions", static_cast<double>(hub_promotions_), "count");
  add("storage.log_append_us", median(append_us_), "us");
  add("storage.checkpoint_mb", checkpoint_mb_, "MB");
  add("storage.load_ms", median(load_ms_), "ms");
  add("storage.log_read_ms", median(log_read_ms_), "ms");
  add("storage.replay_ms", median(replay_ms_), "ms");
  add("bench.clock_ns", probe_["bench.clock_ns"], "ns");
  const double untraced = reach_ns_.BestSliceMedian();
  add("bench.trace_overhead_pct",
      untraced > 0 ? 100.0 * (reach_traced_ns_.BestSliceMedian() - untraced) / untraced : 0.0,
      "%");

  for (const Metric& m : layer_) {
    std::printf("# layer %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!publish_chain_ms_.empty()) {
    std::printf("# layer-detail service.publish_chain_full_ms %.6g (n=%zu)\n",
                median(publish_chain_ms_), publish_chain_ms_.size());
  }
  if (!publish_optimal_ms_.empty() && front_->mono() != nullptr) {
    std::printf("# layer-detail service.publish_optimal_full_ms %.6g (n=%zu)\n",
                median(publish_optimal_ms_), publish_optimal_ms_.size());
  }
  std::printf("# overhead reach_ns traced %.6g untraced %.6g; batch_reach_ns "
              "traced %.6g untraced %.6g; successors_us traced %.6g untraced "
              "%.6g\n",
              reach_traced_ns_.BestSliceMedian(), untraced,
              batch_traced_ns_.BestSliceMedian(), batch_ns_.BestSliceMedian(),
              succ_traced_us_.BestSliceMedian(), succ_us_.BestSliceMedian());

  std::vector<const SpanLog*> logs;
  int64_t spans = 0, dropped = 0;
  for (const auto& l : logs_) {
    logs.push_back(l.get());
    spans += static_cast<int64_t>(l->spans().size());
    dropped += l->dropped();
  }
  for (const auto& [layer, ms] : SelfMillisByLayer(logs)) {
    std::printf("# self_ms %-8s %.3f\n", layer.c_str(), ms);
  }
  mkdir(".perfbench_out", 0755);
  const std::string path = std::string(".perfbench_out/spans-") + spec_.name +
                           "-" + std::to_string(args_.seed) + ".tsv";
  std::printf("# spans %lld (dropped %lld) written to %s: %s\n",
              static_cast<long long>(spans), static_cast<long long>(dropped),
              path.c_str(), WriteSpans(path, logs, start_ns_) ? "ok" : "FAILED");

  // A layer measured on its own must not exceed the end-to-end call that
  // contains it, beyond the loosest end-to-end bound (25%); the index's
  // bytes must fit in the resident growth outright.  A check that fails
  // is a failed op and fails the run.  Point and batch queries run
  // through the arena only where the snapshot's family is intervals;
  // elsewhere the family probe answers them.
  struct Within {
    const char* layer;
    double part;
    const char* whole;
    double total;
    double slack = 1.25;
  };
  const bool arena_answers = probe_["core.family_mb"] == 0;
  const Within within[] = {
      {arena_answers ? "core.probe_ns" : "core.family_probe_ns",
       probe_[arena_answers ? "core.probe_ns" : "core.family_probe_ns"],
       "reach_ns", e2e_[2].value},
      {arena_answers ? "core.batch_kernel_ns" : "core.family_probe_ns",
       probe_[arena_answers ? "core.batch_kernel_ns" : "core.family_probe_ns"],
       "batch_reach_ns", e2e_[3].value},
      {"core.successors_us", probe_["core.successors_us"], "successors_us",
       e2e_[4].value},
      {"service.publish_ms", median(publish_ms_), "visible_ms(single)",
       median(visible_ms_)},
      {"storage.load_ms+log_read_ms+replay_ms",
       median(load_ms_) + median(log_read_ms_) +
           median(replay_ms_),
       "recover_s*1000", e2e_[8].value * 1e3},
      {"core.arena_mb+core.family_mb",
       probe_["core.arena_mb"] + probe_["core.family_mb"], "resident_mb",
       e2e_[1].value, 1.0},
  };
  for (const Within& w : within) {
    const bool ok = w.part <= w.total * w.slack;
    std::printf("# within %-40s %.6g <= %s %.6g: %s\n", w.layer, w.part,
                w.whole, w.total, ok ? "ok" : "EXCEEDS");
    tally_.Attempt();
    tally_.Expect(ok, w.layer);
  }
}

int Bench::Run() {
  if (!oracle_.Ok()) {
    std::fprintf(stderr, "generated graph is cyclic\n");
    return 1;
  }
  if (args_.trace) {
    for (int t = 0; t < 1 + kReaders; ++t) {
      logs_.push_back(std::make_unique<SpanLog>(t, size_t{2} << 20));
    }
  }
  Setup();
  if (tally_.failed() != 0) return 1;
  ReadPhase();
  if (args_.trace) LayerProbes();
  if (front_->mono() != nullptr) Checkpoint();
  MixedPhase();
  FinalChecks();
  Recover();
  Report();

  const std::vector<Metric>& out = args_.trace ? layer_ : e2e_;
  std::string json = "{\"correct\": ";
  json += tally_.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally_.attempted());
  json += ", \"failed\": " + std::to_string(tally_.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                  out[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return tally_.failed() == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  for (const perfbench::Spec& spec : perfbench::kSpecs) {
    if (args.workload == spec.name) {
      perfbench::Bench bench(args, spec);
      return bench.Run();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
