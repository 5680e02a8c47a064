#include "api/wire.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/schema.h"
#include "api/serialize_detail.h"
#include "exp/stats.h"

namespace cbtc::api::wire {

using json::check_keys;
using json::get;
using json::get_bool;
using json::get_str;
using json::get_u64;
using json::jv;
using json::require;

namespace {

constexpr schema::enum_name<batch_mode> mode_names[] = {
    {"static", batch_mode::static_runs},
    {"dynamic", batch_mode::dynamic_runs},
    {"lifetime", batch_mode::lifetime_runs}};

constexpr schema::enum_name<message_type> type_names[] = {
    {"hello", message_type::hello}, {"batch_request", message_type::batch_request},
    {"block_partial", message_type::block_partial}, {"done", message_type::done},
    {"error", message_type::error}, {"shutdown", message_type::shutdown}};

std::string_view mode_name(batch_mode m) { return schema::name_of(mode_names, m); }

std::string render(const jv& root) {
  std::ostringstream os;
  json::write_value(os, root, 0);
  return os.str();
}

// ---- exp::summary <-> [count, sum, sum_sq, min, max] ---------------

jv summary_to_jv(const exp::summary& s) {
  jv a = jv::array();
  a.items.push_back(jv::of_u64(s.count()));
  a.items.push_back(jv::of(s.sum()));
  a.items.push_back(jv::of(s.sum_squares()));
  a.items.push_back(jv::of(s.min()));
  a.items.push_back(jv::of(s.max()));
  return a;
}

exp::summary summary_from_jv(const jv& v, std::string_view key) {
  require(v.k == jv::kind::array && v.items.size() == 5,
          std::string(key) + " must be a [count, sum, sum_sq, min, max] array");
  for (const jv& e : v.items) {
    require(e.k == jv::kind::number, std::string(key) + " entries must be numbers");
  }
  return exp::summary::from_raw(
      static_cast<std::size_t>(json::as_u64(v.items[0], "summary count")), v.items[1].num,
      v.items[2].num, v.items[3].num, v.items[4].num);
}

// ---- report payloads, one object key per field-table entry ----------

template <class Report>
jv report_to_jv(const Report& r) {
  jv o = jv::object();
  for_each_field(
      [&o](std::string_view key, const auto& field) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          o.add(std::string(key), jv::of(field));
        } else if constexpr (std::is_integral_v<T>) {
          o.add(std::string(key), jv::of_u64(field));
        } else {
          o.add(std::string(key), summary_to_jv(field));
        }
      },
      r);
  return o;
}

/// Every table key is required; a key outside the table is rejected.
template <class Report>
Report report_from_jv(const jv& o, const std::string& where) {
  require(o.k == jv::kind::object, "report must be an object");
  Report r;
  std::vector<std::string_view> keys;
  for_each_field(
      [&](std::string_view key, auto& field) {
        keys.push_back(key);
        const jv* v = get(o, key);
        require(v != nullptr, std::string(key) + " is missing");
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          field = get_bool(o, key, false);
        } else if constexpr (std::is_integral_v<T>) {
          field = static_cast<T>(get_u64(o, key, 0));
        } else {
          field = summary_from_jv(*v, key);
        }
      },
      r);
  for (const auto& [key, value] : o.fields) {
    require(std::ranges::find(keys, key) != keys.end(),
            "unknown key \"" + key + "\" in " + where);
  }
  return r;
}

template <class Report>
std::string encode_partial(std::uint64_t block, batch_mode mode, const Report& r) {
  jv o = jv::object();
  o.add("type", jv::of("block_partial"));
  o.add("mode", jv::of(std::string(mode_name(mode))));
  o.add("block", jv::of_u64(block));
  o.add("report", report_to_jv(r));
  return render(o);
}

/// Shared decoder of every block_partial: checks the type and mode
/// tags, fills `out` and returns the block index.
template <class Report>
std::uint64_t decode_partial(const message& m, batch_mode expect, Report& out) {
  require(m.type == message_type::block_partial, "expected a block_partial message");
  const jv& o = m.body;
  check_keys(o, "block_partial", {"type", "mode", "block", "report"});
  const batch_mode mode = schema::parse_name(mode_names, get_str(o, "mode", ""));
  require(mode == expect, std::string("block_partial mode '") + std::string(mode_name(mode)) +
                              "' does not match the requested '" +
                              std::string(mode_name(expect)) + "' batch");
  const jv* rep = get(o, "report");
  require(rep != nullptr, "block_partial.report is missing");
  out = report_from_jv<Report>(*rep, std::string(mode_name(mode)) + " report");
  return get_u64(o, "block", 0);
}

}  // namespace

// ---- encoders ------------------------------------------------------

std::string encode_hello() {
  jv o = jv::object();
  o.add("type", jv::of("hello"));
  o.add("protocol", jv::of(std::string(protocol_name)));
  o.add("version", jv::of_u64(protocol_version));
  return render(o);
}

std::string encode_batch_request(const batch_request& req) {
  jv o = jv::object();
  o.add("type", jv::of("batch_request"));
  o.add("mode", jv::of(std::string(mode_name(req.mode))));
  o.add("scenario", detail::scenario_to_jv(req.scenario));
  if (req.mode == batch_mode::dynamic_runs) o.add("sim", detail::sim_to_jv(req.sim));
  if (req.mode == batch_mode::lifetime_runs) {
    o.add("lifetime", detail::lifetime_to_jv(req.lifetime));
  }
  {
    jv seeds = jv::object();
    seeds.add("first", jv::of_u64(req.seeds.first));
    seeds.add("count", jv::of_u64(req.seeds.count));
    o.add("seeds", std::move(seeds));
  }
  {
    jv blocks = jv::object();
    blocks.add("first", jv::of_u64(req.blocks.first));
    blocks.add("count", jv::of_u64(req.blocks.count));
    o.add("blocks", std::move(blocks));
  }
  o.add("threads", jv::of_u64(req.threads));
  return render(o);
}

std::string encode_block_partial(std::uint64_t block, const batch_report& r) {
  return encode_partial(block, batch_mode::static_runs, r);
}

std::string encode_block_partial(std::uint64_t block, const dynamic_batch_report& r) {
  return encode_partial(block, batch_mode::dynamic_runs, r);
}

std::string encode_block_partial(std::uint64_t block, const lifetime_batch_report& r) {
  return encode_partial(block, batch_mode::lifetime_runs, r);
}

std::string encode_done(std::uint64_t blocks_sent) {
  jv o = jv::object();
  o.add("type", jv::of("done"));
  o.add("blocks", jv::of_u64(blocks_sent));
  return render(o);
}

std::string encode_error(const std::string& what) {
  jv o = jv::object();
  o.add("type", jv::of("error"));
  o.add("message", jv::of(what));
  return render(o);
}

std::string encode_shutdown() {
  jv o = jv::object();
  o.add("type", jv::of("shutdown"));
  return render(o);
}

// ---- decoders ------------------------------------------------------

message decode_message(std::string_view frame) {
  message m;
  m.body = json::parse_document(frame);
  require(m.body.k == jv::kind::object, "wire frame must be a JSON object");
  m.type = schema::parse_name(type_names, get_str(m.body, "type", ""));
  return m;
}

void check_hello(const message& m) {
  require(m.type == message_type::hello, "expected a hello handshake frame");
  check_keys(m.body, "hello", {"type", "protocol", "version"});
  const std::string proto = get_str(m.body, "protocol", "");
  require(proto == protocol_name, "handshake protocol '" + proto + "' is not '" +
                                      std::string(protocol_name) + "'");
  const std::uint64_t version = get_u64(m.body, "version", 0);
  if (version != protocol_version) {
    throw std::invalid_argument("wire: protocol version mismatch: peer speaks v" +
                                std::to_string(version) + ", this build speaks v" +
                                std::to_string(protocol_version));
  }
}

batch_request decode_batch_request(const message& m) {
  require(m.type == message_type::batch_request, "expected a batch_request message");
  const jv& o = m.body;
  check_keys(o, "batch_request",
             {"type", "mode", "scenario", "sim", "lifetime", "seeds", "blocks", "threads"});
  batch_request req;
  req.mode = schema::parse_name(mode_names, get_str(o, "mode", ""));
  const jv* scenario = get(o, "scenario");
  require(scenario != nullptr, "batch_request.scenario is missing");
  req.scenario = detail::scenario_from_jv(*scenario);
  const jv* sim = get(o, "sim");
  require((sim != nullptr) == (req.mode == batch_mode::dynamic_runs),
          "batch_request.sim is required for dynamic mode and invalid otherwise");
  if (sim != nullptr) req.sim = detail::sim_from_jv(*sim);
  const jv* lifetime = get(o, "lifetime");
  require((lifetime != nullptr) == (req.mode == batch_mode::lifetime_runs),
          "batch_request.lifetime is required for lifetime mode and invalid otherwise");
  if (lifetime != nullptr) req.lifetime = detail::lifetime_from_jv(*lifetime);

  const auto range_of = [&o](const char* key, std::uint64_t& first, std::uint64_t& count) {
    const jv* r = get(o, key);
    require(r != nullptr && r->k == jv::kind::object,
            std::string("batch_request.") + key + " must be a {first, count} object");
    check_keys(*r, key, {"first", "count"});
    first = get_u64(*r, "first", 0);
    count = get_u64(*r, "count", 0);
  };
  range_of("seeds", req.seeds.first, req.seeds.count);
  range_of("blocks", req.blocks.first, req.blocks.count);
  const std::uint64_t threads = get_u64(o, "threads", 0);
  require(threads <= std::numeric_limits<unsigned>::max(),
          "batch_request.threads must be below 2^32");
  req.threads = static_cast<unsigned>(threads);
  return req;
}

std::uint64_t decode_block_partial(const message& m, batch_report& out) {
  return decode_partial(m, batch_mode::static_runs, out);
}

std::uint64_t decode_block_partial(const message& m, dynamic_batch_report& out) {
  return decode_partial(m, batch_mode::dynamic_runs, out);
}

std::uint64_t decode_block_partial(const message& m, lifetime_batch_report& out) {
  return decode_partial(m, batch_mode::lifetime_runs, out);
}

std::uint64_t decode_done(const message& m) {
  require(m.type == message_type::done, "expected a done message");
  check_keys(m.body, "done", {"type", "blocks"});
  return get_u64(m.body, "blocks", 0);
}

std::string decode_error(const message& m) {
  require(m.type == message_type::error, "expected an error message");
  check_keys(m.body, "error", {"type", "message"});
  return get_str(m.body, "message", "(no message)");
}

}  // namespace cbtc::api::wire
