// The benchmark's own model of the graph under test: a mirror of every
// acknowledged arc, a rank order that keeps generated updates acyclic, and
// a plain BFS that answers reachability independently of trel's index.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace perfbench {

using trel::NodeId;

class Oracle {
 public:
  // Copies the arcs of `graph` and ranks its nodes by Kahn's algorithm.
  // Returns false from Ok() when the graph is cyclic.
  explicit Oracle(const trel::Digraph& graph) {
    const NodeId n = graph.NumNodes();
    out_.resize(n);
    std::vector<int32_t> indegree(n, 0);
    for (NodeId u = 0; u < n; ++u) {
      out_[u] = graph.OutNeighbors(u);
      for (NodeId v : out_[u]) {
        arcs_.insert(Key(u, v));
        ++indegree[v];
      }
    }
    rank_.assign(n, -1);
    std::deque<NodeId> ready;
    for (NodeId u = 0; u < n; ++u) {
      if (indegree[u] == 0) ready.push_back(u);
    }
    int64_t next = 0;
    while (!ready.empty()) {
      const NodeId u = ready.front();
      ready.pop_front();
      rank_[u] = next++;
      for (NodeId v : out_[u]) {
        if (--indegree[v] == 0) ready.push_back(v);
      }
    }
    ok_ = next == n;
    next_rank_ = next;
  }

  bool Ok() const { return ok_; }
  NodeId NumNodes() const { return static_cast<NodeId>(out_.size()); }
  int64_t Rank(NodeId v) const { return rank_[v]; }
  bool HasArc(NodeId u, NodeId v) const { return arcs_.count(Key(u, v)) != 0; }
  const std::vector<NodeId>& Out(NodeId u) const { return out_[u]; }

  // An arc from lower to higher rank never closes a cycle.
  bool CanAdd(NodeId u, NodeId v) const {
    return u != v && rank_[u] < rank_[v] && !HasArc(u, v);
  }

  void AddLeaf(NodeId parent, NodeId leaf) {
    out_.emplace_back();
    rank_.push_back(next_rank_++);
    if (leaf + 1 != NumNodes()) ok_ = false;  // ids must stay dense
    if (parent != trel::kNoNode) AddArc(parent, leaf);
  }
  void AddArc(NodeId u, NodeId v) {
    out_[u].push_back(v);
    arcs_.insert(Key(u, v));
  }
  void RemoveArc(NodeId u, NodeId v) {
    std::vector<NodeId>& adj = out_[u];
    adj.erase(std::find(adj.begin(), adj.end(), v));
    arcs_.erase(Key(u, v));
  }

  // Nodes reachable from `u`, `u` included, as a bitmap.
  std::vector<uint64_t> ReachBits(NodeId u) const {
    std::vector<uint64_t> seen((out_.size() + 63) / 64, 0);
    std::vector<NodeId> stack = {u};
    seen[u >> 6] |= uint64_t{1} << (u & 63);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (NodeId y : out_[x]) {
        uint64_t& word = seen[y >> 6];
        const uint64_t bit = uint64_t{1} << (y & 63);
        if ((word & bit) == 0) {
          word |= bit;
          stack.push_back(y);
        }
      }
    }
    return seen;
  }

  static bool Test(const std::vector<uint64_t>& bits, NodeId v) {
    return v >= 0 && static_cast<size_t>(v >> 6) < bits.size() &&
           ((bits[v >> 6] >> (v & 63)) & 1) != 0;
  }

  // Successors of `u` (excluding `u`), ascending by id.
  static std::vector<NodeId> Members(const std::vector<uint64_t>& bits,
                                     NodeId u) {
    std::vector<NodeId> out;
    for (size_t w = 0; w < bits.size(); ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        const NodeId v =
            static_cast<NodeId>(w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
        if (v != u) out.push_back(v);
        word &= word - 1;
      }
    }
    return out;
  }

 private:
  static uint64_t Key(NodeId u, NodeId v) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
           static_cast<uint32_t>(v);
  }

  std::vector<std::vector<NodeId>> out_;
  std::vector<int64_t> rank_;
  std::unordered_set<uint64_t> arcs_;
  int64_t next_rank_ = 0;
  bool ok_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
