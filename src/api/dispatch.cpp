#include "api/dispatch.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/wire.h"
#include "net/frame.h"
#include "net/socket.h"

namespace cbtc::api {
namespace {

enum class block_state : unsigned char { pending, inflight, done };

/// Bounded exponential backoff: base * 2^failures, capped at 64x.
std::chrono::milliseconds backoff_delay(int base_ms, std::size_t consecutive_failures) {
  const std::size_t shift = std::min<std::size_t>(consecutive_failures, 6);
  return std::chrono::milliseconds(static_cast<long long>(base_ms) << shift);
}

}  // namespace

endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw std::invalid_argument("endpoint '" + spec + "' is not host:port");
  }
  endpoint ep;
  ep.host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  unsigned long value = 0;
  try {
    std::size_t used = 0;
    value = std::stoul(port, &used);
    if (used != port.size()) throw std::invalid_argument(port);
  } catch (const std::exception&) {
    throw std::invalid_argument("endpoint '" + spec + "' has a malformed port");
  }
  if (value == 0 || value > 65535) {
    throw std::invalid_argument("endpoint '" + spec + "' port must be in [1, 65535]");
  }
  ep.port = static_cast<std::uint16_t>(value);
  return ep;
}

std::vector<endpoint> parse_endpoint_list(const std::string& csv) {
  std::vector<endpoint> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(parse_endpoint(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("endpoint list '" + csv + "' is empty");
  return out;
}

shard_dispatcher::shard_dispatcher(dispatch_config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.endpoints.empty()) {
    throw std::invalid_argument("shard_dispatcher needs at least one endpoint");
  }
}

template <class Report>
Report shard_dispatcher::dispatch(const wire::batch_request& base, seed_range seeds) {
  Report total;
  stats_ = dispatch_stats{};
  if (seeds.count == 0) return total;

  const std::uint64_t num_blocks = engine::num_batch_blocks(seeds);
  const std::uint64_t chunk =
      cfg_.blocks_per_request != 0
          ? cfg_.blocks_per_request
          : std::max<std::uint64_t>(
                1, num_blocks / (4 * static_cast<std::uint64_t>(cfg_.endpoints.size())));

  struct shared_state {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<block_state> state;
    std::vector<Report> partials;
    std::vector<std::size_t> retries;
    std::uint64_t done_count{0};
    std::string fatal;
    dispatch_stats stats;
  } st;
  st.state.assign(static_cast<std::size_t>(num_blocks), block_state::pending);
  st.partials.resize(static_cast<std::size_t>(num_blocks));
  st.retries.assign(static_cast<std::size_t>(num_blocks), 0);
  st.stats.blocks = num_blocks;

  const auto worker = [&](const endpoint& ep) {
    std::size_t consecutive_failures = 0;
    for (;;) {
      // ---- claim a contiguous run of pending blocks ----------------
      block_range claim{0, 0};
      {
        std::unique_lock<std::mutex> lk(st.mu);
        for (;;) {
          if (!st.fatal.empty() || st.done_count == num_blocks) return;
          std::uint64_t first = 0;
          while (first < num_blocks &&
                 st.state[static_cast<std::size_t>(first)] != block_state::pending) {
            ++first;
          }
          if (first < num_blocks) {
            std::uint64_t count = 0;
            while (first + count < num_blocks && count < chunk &&
                   st.state[static_cast<std::size_t>(first + count)] == block_state::pending) {
              st.state[static_cast<std::size_t>(first + count)] = block_state::inflight;
              ++count;
            }
            claim = {first, count};
            ++st.stats.requests;
            break;
          }
          // Everything is inflight on other workers — wait for either
          // completion or a failure that requeues blocks.
          st.cv.wait_for(lk, std::chrono::milliseconds(50));
        }
      }

      // ---- run one request against the endpoint --------------------
      bool ok = false;
      std::string error;
      try {
        net::tcp_stream conn = net::tcp_stream::connect(ep.host, ep.port, cfg_.connect_timeout_ms);
        net::write_frame(conn, wire::encode_hello(), cfg_.io_timeout_ms);
        wire::check_hello(wire::decode_message(net::read_frame(conn, cfg_.io_timeout_ms)));

        wire::batch_request req = base;
        req.blocks = claim;
        net::write_frame(conn, wire::encode_batch_request(req), cfg_.io_timeout_ms);

        for (;;) {
          const wire::message msg =
              wire::decode_message(net::read_frame(conn, cfg_.io_timeout_ms));
          if (msg.type == wire::message_type::block_partial) {
            Report partial;
            const std::uint64_t block = wire::decode_block_partial(msg, partial);
            if (block >= num_blocks) {
              throw std::invalid_argument("shard sent out-of-range block " +
                                          std::to_string(block));
            }
            const std::lock_guard<std::mutex> lk(st.mu);
            block_state& s = st.state[static_cast<std::size_t>(block)];
            if (s == block_state::done) {
              // Retried or shard-duplicated block that already landed:
              // first partial wins.
              ++st.stats.duplicate_partials;
            } else {
              st.partials[static_cast<std::size_t>(block)] = std::move(partial);
              s = block_state::done;
              ++st.done_count;
            }
          } else if (msg.type == wire::message_type::done) {
            ok = true;
            break;
          } else if (msg.type == wire::message_type::error) {
            throw std::runtime_error("shard " + ep.host + ":" + std::to_string(ep.port) +
                                     " reported: " + wire::decode_error(msg));
          } else {
            throw std::invalid_argument("unexpected message from shard");
          }
        }
      } catch (const std::exception& e) {
        error = e.what();
      }

      // ---- settle the claim ----------------------------------------
      bool endpoint_dead = false;
      {
        const std::lock_guard<std::mutex> lk(st.mu);
        // Requeue whatever the request left unfinished. On success
        // this is a shard protocol violation (done before finishing),
        // handled the same way: another shard reruns the blocks.
        bool exhausted = false;
        for (std::uint64_t b = claim.first; b < claim.first + claim.count; ++b) {
          block_state& s = st.state[static_cast<std::size_t>(b)];
          if (s != block_state::inflight) continue;
          s = block_state::pending;
          ++st.stats.requeued_blocks;
          if (++st.retries[static_cast<std::size_t>(b)] > cfg_.max_block_retries) {
            exhausted = true;
          }
        }
        if (exhausted && st.fatal.empty()) {
          st.fatal = "a block exceeded " + std::to_string(cfg_.max_block_retries) +
                     " retries; last shard error: " + (error.empty() ? "(none)" : error);
        }
        if (ok) {
          consecutive_failures = 0;
        } else {
          ++st.stats.connection_failures;
          ++consecutive_failures;
          if (consecutive_failures >= cfg_.max_endpoint_failures) {
            ++st.stats.dead_endpoints;
            endpoint_dead = true;
          }
        }
      }
      st.cv.notify_all();
      if (endpoint_dead) return;
      if (!ok) std::this_thread::sleep_for(backoff_delay(cfg_.backoff_base_ms,
                                                         consecutive_failures - 1));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg_.endpoints.size());
  for (const endpoint& ep : cfg_.endpoints) threads.emplace_back(worker, std::cref(ep));
  for (std::thread& t : threads) t.join();

  stats_ = st.stats;
  if (!st.fatal.empty()) throw std::runtime_error("dispatch failed: " + st.fatal);
  if (st.done_count != num_blocks) {
    throw std::runtime_error("dispatch failed: only " + std::to_string(st.done_count) + " of " +
                             std::to_string(num_blocks) +
                             " blocks completed (every endpoint is dead)");
  }
  // The engine's merge, verbatim: block-index order.
  for (const Report& p : st.partials) merge(total, p);
  return total;
}

batch_report shard_dispatcher::run_batch(const scenario_spec& spec, seed_range seeds) {
  wire::batch_request base;
  base.mode = wire::batch_mode::static_runs;
  base.scenario = spec;
  base.seeds = seeds;
  base.threads = cfg_.shard_threads;
  return dispatch<batch_report>(base, seeds);
}

dynamic_batch_report shard_dispatcher::run_batch(const scenario_spec& spec, const sim_spec& sim,
                                                 seed_range seeds) {
  wire::batch_request base;
  base.mode = wire::batch_mode::dynamic_runs;
  base.scenario = spec;
  base.sim = sim;
  base.seeds = seeds;
  base.threads = cfg_.shard_threads;
  return dispatch<dynamic_batch_report>(base, seeds);
}

lifetime_batch_report shard_dispatcher::run_batch(const scenario_spec& spec,
                                                  const lifetime_spec& life, seed_range seeds) {
  wire::batch_request base;
  base.mode = wire::batch_mode::lifetime_runs;
  base.scenario = spec;
  base.lifetime = life;
  base.seeds = seeds;
  base.threads = cfg_.shard_threads;
  return dispatch<lifetime_batch_report>(base, seeds);
}

}  // namespace cbtc::api
