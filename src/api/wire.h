// Wire messages for the cbtc_serve scenario service.
//
// Frames are JSON documents (see net/frame.h for the length-prefix
// transport) using the same strict parser/writer as the scenario
// files, and scenarios embed with exactly the scenario-file schema.
// Conversation:
//
//   client                          server
//   ------ hello ----------------->
//   <----- hello ------------------        (version handshake)
//   ------ batch_request --------->
//   <----- block_partial ---------- (one per finished seed block,
//   <----- block_partial ----------  completion order)
//   <----- done -------------------
//
// Any side may send `error` instead and drop the connection;
// `shutdown` asks the daemon to exit after the current connection.
//
// Exactness: numbers keep their shortest-round-trip literal spelling
// through the json::jv layer, and exp::summary crosses the wire as its
// raw internals `[count, sum, sum_sq, min, max]`, so a decoded partial
// is bit-for-bit the partial the shard computed — the foundation of
// the dispatcher's "results never depend on sharding" contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "api/engine.h"
#include "api/json.h"
#include "api/report.h"
#include "api/scenario.h"
#include "api/sim_spec.h"

namespace cbtc::api::wire {

inline constexpr std::uint64_t protocol_version = 1;
inline constexpr std::string_view protocol_name = "cbtc-wire";

/// Which batch entry point a request runs.
enum class batch_mode { static_runs, dynamic_runs, lifetime_runs };

/// One shard's slice of a batch: the full seed range plus the block
/// sub-range this shard should execute (block indices are relative to
/// the whole batch — see engine::batch_block_size).
struct batch_request {
  batch_mode mode{batch_mode::static_runs};
  scenario_spec scenario;
  sim_spec sim;            ///< dynamic mode only
  lifetime_spec lifetime;  ///< lifetime mode only
  seed_range seeds;
  block_range blocks;
  unsigned threads{0};  ///< engine threads on the shard; 0 = shard default
};

enum class message_type { hello, batch_request, block_partial, done, error, shutdown };

/// A decoded frame: the type tag plus the parsed document, which the
/// typed decoders below consume.
struct message {
  message_type type{message_type::error};
  json::jv body;
};

// ---- encoders ------------------------------------------------------

[[nodiscard]] std::string encode_hello();
[[nodiscard]] std::string encode_batch_request(const batch_request& req);
[[nodiscard]] std::string encode_block_partial(std::uint64_t block, const batch_report& r);
[[nodiscard]] std::string encode_block_partial(std::uint64_t block, const dynamic_batch_report& r);
[[nodiscard]] std::string encode_block_partial(std::uint64_t block,
                                               const lifetime_batch_report& r);
[[nodiscard]] std::string encode_done(std::uint64_t blocks_sent);
[[nodiscard]] std::string encode_error(const std::string& what);
[[nodiscard]] std::string encode_shutdown();

// ---- decoders (throw std::invalid_argument on malformed input) -----

[[nodiscard]] message decode_message(std::string_view frame);

/// Validates a hello against this build's protocol name and version;
/// throws std::invalid_argument describing the mismatch.
void check_hello(const message& m);

[[nodiscard]] batch_request decode_batch_request(const message& m);

/// Each overload checks the partial's mode tag matches the report type
/// it fills and returns the block index. The report must carry every
/// key of the type's field table (for_each_field) and no other.
std::uint64_t decode_block_partial(const message& m, batch_report& out);
std::uint64_t decode_block_partial(const message& m, dynamic_batch_report& out);
std::uint64_t decode_block_partial(const message& m, lifetime_batch_report& out);

[[nodiscard]] std::uint64_t decode_done(const message& m);
[[nodiscard]] std::string decode_error(const message& m);

}  // namespace cbtc::api::wire
