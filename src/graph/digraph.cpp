#include "graph/digraph.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "util/parallel.h"

namespace cbtc::graph {

bool digraph::has_arc(node_id u, node_id v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const std::span<const node_id> list = out_neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

digraph digraph::from_csr(std::vector<std::size_t> offsets, std::vector<node_id> arcs) {
  assert(!offsets.empty());
  assert(offsets.front() == 0);
  assert(offsets.back() == arcs.size());
#ifndef NDEBUG
  for (node_id u = 0; u + 1 < offsets.size(); ++u) {
    assert(offsets[u] <= offsets[u + 1]);
    const auto lo = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto hi = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    assert(std::is_sorted(lo, hi));
    assert(std::adjacent_find(lo, hi) == hi);
    assert(!std::binary_search(lo, hi, u));
  }
#endif
  digraph d;
  d.offsets_ = std::move(offsets);
  d.flat_ = std::move(arcs);
  return d;
}

undirected_graph digraph::symmetric_closure(const util::thread_pool& pool) const {
  const std::size_t n = num_nodes();
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
  const auto in_list = [&](node_id u) {
    return std::span<node_id>(in_flat.data() + in_off[u], in_off[u + 1] - in_off[u]);
  };
  // Each node's list is the union of its out- and in-lists. The degree
  // pass sorts the node's own in-segment first (the one pass that
  // touches it), so the fill merges two sorted lists.
  return assemble<undirected_graph>(
      n,
      [&](node_id u) {
        const std::span<node_id> in = in_list(u);
        std::sort(in.begin(), in.end());
        const std::span<const node_id> out = out_neighbors(u);
        std::size_t common = 0;
        for (std::size_t i = 0, j = 0; i < out.size() && j < in.size();) {
          if (out[i] < in[j]) {
            ++i;
          } else if (in[j] < out[i]) {
            ++j;
          } else {
            ++common;
            ++i;
            ++j;
          }
        }
        return out.size() + in.size() - common;
      },
      [&](node_id u, std::span<node_id> slot) {
        const std::span<const node_id> out = out_neighbors(u);
        const std::span<node_id> in = in_list(u);
        std::set_union(out.begin(), out.end(), in.begin(), in.end(), slot.begin());
      },
      pool);
}

undirected_graph digraph::symmetric_core(const util::thread_pool& pool) const {
  const auto mutual = [&](node_id u) {
    return [this, u](node_id v) { return has_arc(v, u); };
  };
  return assemble<undirected_graph>(
      num_nodes(),
      [&](node_id u) {
        const std::span<const node_id> out = out_neighbors(u);
        return static_cast<std::size_t>(std::count_if(out.begin(), out.end(), mutual(u)));
      },
      [&](node_id u, std::span<node_id> slot) {
        const std::span<const node_id> out = out_neighbors(u);
        std::copy_if(out.begin(), out.end(), slot.begin(), mutual(u));
      },
      pool);
}

}  // namespace cbtc::graph
