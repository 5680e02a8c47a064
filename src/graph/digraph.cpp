#include "graph/digraph.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "util/parallel.h"

namespace cbtc::graph {

void digraph::materialize() {
  if (!is_flat()) return;
  out_.resize(num_nodes_);
  for (node_id u = 0; u < num_nodes_; ++u) {
    out_[u].assign(flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
                   flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]));
  }
  offsets_.clear();
  offsets_.shrink_to_fit();
  flat_.clear();
  flat_.shrink_to_fit();
}

bool digraph::add_arc(node_id u, node_id v) {
  if (u == v) return false;
  materialize();
  auto& list = out_[u];
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return false;
  list.insert(it, v);
  ++num_arcs_;
  return true;
}

bool digraph::remove_arc(node_id u, node_id v) {
  materialize();
  auto& list = out_[u];
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return false;
  list.erase(it);
  --num_arcs_;
  return true;
}

bool digraph::has_arc(node_id u, node_id v) const {
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  const std::span<const node_id> list = out_neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

bool operator==(const digraph& a, const digraph& b) {
  if (a.num_nodes_ != b.num_nodes_ || a.num_arcs_ != b.num_arcs_) return false;
  for (node_id u = 0; u < a.num_nodes_; ++u) {
    const std::span<const node_id> la = a.out_neighbors(u);
    const std::span<const node_id> lb = b.out_neighbors(u);
    if (!std::equal(la.begin(), la.end(), lb.begin(), lb.end())) return false;
  }
  return true;
}

digraph digraph::from_adjacency(std::vector<std::vector<node_id>> out) {
  digraph d(out.size());
  std::size_t total = 0;
  for (node_id u = 0; u < out.size(); ++u) {
    assert(std::is_sorted(out[u].begin(), out[u].end()));
    assert(std::adjacent_find(out[u].begin(), out[u].end()) == out[u].end());
    assert(!std::binary_search(out[u].begin(), out[u].end(), u));
    total += out[u].size();
  }
  d.out_ = std::move(out);
  d.num_arcs_ = total;
  return d;
}

digraph digraph::from_csr(std::vector<std::size_t> offsets, std::vector<node_id> arcs) {
  assert(!offsets.empty());
  assert(offsets.front() == 0);
  assert(offsets.back() == arcs.size());
  digraph d;
  d.num_nodes_ = offsets.size() - 1;
  d.num_arcs_ = arcs.size();
#ifndef NDEBUG
  for (node_id u = 0; u < d.num_nodes_; ++u) {
    assert(offsets[u] <= offsets[u + 1]);
    const auto lo = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto hi = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    assert(std::is_sorted(lo, hi));
    assert(std::adjacent_find(lo, hi) == hi);
    assert(!std::binary_search(lo, hi, u));
  }
#endif
  d.offsets_ = std::move(offsets);
  d.flat_ = std::move(arcs);
  return d;
}

undirected_graph digraph::symmetric_closure(const util::thread_pool& pool) const {
  const std::size_t n = num_nodes_;
  if (n == 0) return undirected_graph(0);
  // In-neighbor scatter as a two-pass parallel count/fill with
  // prefix-sum offsets. The counts and fill cursors are atomic (the
  // interleaving is irrelevant: each in-segment is sorted afterwards,
  // and a set of unique ids has exactly one sorted order), so the
  // output is identical for any pool width.
  std::vector<std::atomic<std::uint32_t>> in_count(n);  // value-initialized: all zero
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      for (const node_id v : out_neighbors(static_cast<node_id>(u))) {
        in_count[v].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::size_t> in_off(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    in_off[u + 1] = in_off[u] + in_count[u].load(std::memory_order_relaxed);
    in_count[u].store(0, std::memory_order_relaxed);  // reused as the fill cursor
  }
  std::vector<node_id> in_flat(in_off[n]);
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      for (const node_id v : out_neighbors(static_cast<node_id>(u))) {
        const std::uint32_t slot = in_count[v].fetch_add(1, std::memory_order_relaxed);
        in_flat[in_off[v] + slot] = static_cast<node_id>(u);
      }
    }
  });
  // Per-node union sizes, then one exclusive prefix sum, then the fill.
  std::vector<std::size_t> deg(n);
  pool.parallel_for(n, [&](std::size_t u) {
    auto* seg = in_flat.data() + in_off[u];
    std::sort(seg, seg + (in_off[u + 1] - in_off[u]));
    const std::span<const node_id> out = out_neighbors(static_cast<node_id>(u));
    std::size_t i = 0;
    std::size_t j = 0;
    std::size_t count = 0;
    const std::size_t in_n = in_off[u + 1] - in_off[u];
    while (i < out.size() || j < in_n) {
      if (j == in_n || (i < out.size() && out[i] < seg[j])) {
        ++i;
      } else if (i == out.size() || seg[j] < out[i]) {
        ++j;
      } else {
        ++i;
        ++j;
      }
      ++count;
    }
    deg[u] = count;
  });
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) off[u + 1] = off[u] + deg[u];
  std::vector<node_id> flat(off[n]);
  pool.parallel_for(n, [&](std::size_t u) {
    const auto* seg = in_flat.data() + in_off[u];
    const std::span<const node_id> out = out_neighbors(static_cast<node_id>(u));
    std::set_union(out.begin(), out.end(), seg, seg + (in_off[u + 1] - in_off[u]),
                   flat.begin() + static_cast<std::ptrdiff_t>(off[u]));
  });
  return undirected_graph::from_csr(std::move(off), std::move(flat));
}

undirected_graph digraph::symmetric_core(const util::thread_pool& pool) const {
  const std::size_t n = num_nodes_;
  if (n == 0) return undirected_graph(0);
  std::vector<std::size_t> deg(n);
  pool.parallel_for(n, [&](std::size_t u) {
    std::size_t count = 0;
    for (const node_id v : out_neighbors(static_cast<node_id>(u))) {
      if (has_arc(v, static_cast<node_id>(u))) ++count;
    }
    deg[u] = count;
  });
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) off[u + 1] = off[u] + deg[u];
  std::vector<node_id> flat(off[n]);
  pool.parallel_for(n, [&](std::size_t u) {
    std::size_t w = off[u];
    for (const node_id v : out_neighbors(static_cast<node_id>(u))) {
      if (has_arc(v, static_cast<node_id>(u))) flat[w++] = v;
    }
  });
  return undirected_graph::from_csr(std::move(off), std::move(flat));
}

}  // namespace cbtc::graph
