#include "proto/runner.h"

#include <memory>
#include <stdexcept>

#include "graph/live_index.h"

namespace cbtc::proto {

protocol_run_result run_protocol(std::span<const geom::vec2> positions,
                                 const radio::link_model& link,
                                 const protocol_run_config& cfg) {
  sim::simulator simulator;
  sim::medium medium(simulator, link, radio::channel(cfg.channel, cfg.seed),
                     radio::direction_estimator(cfg.direction_noise, cfg.seed + 1));
  // Broadcasts route through the max-power neighborhoods (ascending,
  // with cached gains): O(degree) per broadcast instead of a scan of
  // all n nodes, and deliveries bitwise equal to the scan's.
  const graph::live_neighbor_index index(positions, link);
  medium.set_broadcast_directory([&index](node_id u) {
    return sim::medium::neighborhood{index.neighbors(u), index.neighbor_gains(u)};
  });

  std::vector<std::unique_ptr<cbtc_agent>> agents;
  agents.reserve(positions.size());
  for (const geom::vec2& p : positions) {
    const node_id id = medium.add_node(p, {});
    agents.push_back(std::make_unique<cbtc_agent>(medium, id, cfg.agent));
    medium.set_handler(id, [&agents, id](const sim::rx_info& rx, const std::any& payload) {
      agents[id]->handle(rx, std::any_cast<const message&>(payload));
    });
  }

  protocol_run_result out;
  std::size_t remaining = agents.size();
  for (auto& agent : agents) {
    cbtc_agent* a = agent.get();
    a->start([&remaining, &simulator, &out] {
      if (--remaining == 0) out.completion_time = simulator.now();
    });
  }
  simulator.run(cfg.max_events);
  if (remaining != 0) throw std::runtime_error("run_protocol: agents did not all finish");

  if (cfg.send_drop_notices) {
    for (auto& agent : agents) {
      if (!agent->acked().empty()) agent->send_drop_notices();
    }
    simulator.run(cfg.max_events);
  }

  out.outcome.params = cfg.agent.params;
  out.outcome.nodes.reserve(agents.size());
  for (auto& agent : agents) {
    out.outcome.nodes.push_back(agent->to_node_result());
    if (!agent->dropped().empty()) out.drop_senders.push_back(agent->dropped().front());
  }
  out.stats = medium.stats();
  return out;
}

}  // namespace cbtc::proto
