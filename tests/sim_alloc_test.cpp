// Allocation guard for the medium's delivery path.
//
// This binary replaces the global operator new / delete with counting
// wrappers that forward to malloc / free (so ASan and TSan still see
// and check every allocation). Once a medium is warm — its per-sender
// transmission records, the engine's queues and the executor's
// workers have reached their working size — a broadcast must allocate
// nothing per delivered copy, on the one-region engine and on a
// 4-region engine whose lanes drain on a thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "geom/random_points.h"
#include "graph/live_index.h"
#include "radio/propagation.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  return posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size == 0 ? 1 : size) == 0
             ? p
             : nullptr;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cbtc::sim {
namespace {

/// A payload std::any stores inline, and one it cannot: the latter
/// costs one allocation per transmission, made by the sender, never
/// one per delivery.
struct small_payload {
  std::uint32_t id;
  std::uint32_t pad[1];
};
struct wide_payload {
  std::uint64_t id;
  double pad[3];
};

/// A dense shadowed field whose broadcasts route through a live index
/// directory with cached gains, as in the dynamic engine.
struct field {
  static constexpr std::size_t nodes = 48;

  explicit field(simulator& s)
      : link(radio::power_model(2.0, 400.0),
             radio::propagation_model::lognormal_shadowing(4.0, 8.0, 3)),
        positions(geom::uniform_points(nodes, geom::bbox::rect(700.0, 700.0), 11)),
        index(positions, link),
        med(s, link) {
    for (std::size_t u = 0; u < nodes; ++u) {
      med.add_node(positions[u], [this](const rx_info&, const std::any&) {
        received.fetch_add(1, std::memory_order_relaxed);
      });
    }
    med.set_broadcast_directory([this](node_id u) {
      return medium::neighborhood{index.neighbors(u), index.neighbor_gains(u)};
    });
  }

  radio::link_model link;
  std::vector<geom::vec2> positions;
  graph::live_neighbor_index index;
  medium med;
  std::atomic<std::uint64_t> received{0};
};

/// Every node broadcasts once from its own timer event at time `t`
/// (inside the lanes, when there are several), then the run drains past
/// the deliveries. A {field*, node} timer closure is stored inline.
template <class Payload>
void broadcast_round(field& f, simulator& s, double t) {
  for (node_id u = 0; u < field::nodes; ++u) {
    s.schedule_node(t, u, [fp = &f, u] {
      fp->med.broadcast(u, fp->med.power().max_power(), Payload{u, {}});
    });
  }
  s.run_until(t + 1.0);
}

/// Warms `f` up, then checks that rounds of broadcasts allocate
/// nothing with an inline payload and exactly one block per
/// transmission with a heap-stored one.
void expect_no_allocation_per_delivery(field& f, simulator& s) {
  double t = 1.0;
  for (int warm = 0; warm < 3; ++warm, t += 2.0) {
    broadcast_round<small_payload>(f, s, t);
    broadcast_round<wide_payload>(f, s, t + 1.0);
  }

  const std::uint64_t received_before = f.received.load();
  std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 4; ++round, t += 1.0) broadcast_round<small_payload>(f, s, t);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  const std::uint64_t small_copies = f.received.load() - received_before;
  EXPECT_GT(small_copies, 4 * field::nodes * 5) << "the field must be dense";

  before = g_allocations.load();
  for (int round = 0; round < 4; ++round, t += 1.0) broadcast_round<wide_payload>(f, s, t);
  EXPECT_EQ(g_allocations.load() - before, 4 * field::nodes);
  EXPECT_EQ(f.received.load() - received_before, 2 * small_copies);
}

TEST(SimAlloc, WarmSerialBroadcastsAllocateNothingPerDelivery) {
  simulator s;
  field f(s);
  expect_no_allocation_per_delivery(f, s);
}

TEST(SimAlloc, WarmPartitionedBroadcastsAllocateNothingPerDelivery) {
  const util::thread_pool pool(4);
  simulator s(field::nodes,
              {.regions = 4, .lookahead = 0.01, .pool = &pool, .serial_batch_limit = 0});
  field f(s);
  for (node_id u = 0; u < field::nodes; ++u) {
    const geom::vec2& p = f.positions[u];
    s.set_region(u, (p.x < 350.0 ? 0U : 1U) + (p.y < 350.0 ? 0U : 2U));
  }
  expect_no_allocation_per_delivery(f, s);
  EXPECT_GT(s.stats().parallel_phases, 0u);
  EXPECT_EQ(s.stats().violations, 0u);
}

}  // namespace
}  // namespace cbtc::sim
