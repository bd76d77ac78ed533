// Tests for the fleet layer (src/rpc/): loopback transport fault
// injection, node epoch state machine, client routing + failover +
// per-node breakers, the two-phase epoch publish (fleet-wide converge
// or roll back everywhere, incl. under injected node loss), and a
// concurrent hammer written to run under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "faults/node_outage.hpp"
#include "rpc/fleet.hpp"
#include "rpc/node.hpp"
#include "serve/errors.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::rpc {
namespace {

using migration::MigrationType;

core::Wavm3Model make_model(double scale = 1.0) {
  core::Wavm3Model m;
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * scale * t, 1.3 * scale, 0.0, 0.0, 210.0 * scale};
    table.source.transfer = {2.4 * scale * t, 1.1e-7 * scale, 55.0 * scale, 1.9 * scale,
                             205.0 * scale};
    table.source.activation = {2.2 * scale * t, 1.2 * scale, 0.0, 0.0, 208.0 * scale};
    table.target.initiation = {1.9 * scale * t, 0.8 * scale, 0.0, 0.0, 200.0 * scale};
    table.target.transfer = {2.0 * scale * t, 0.9e-7 * scale, 12.0 * scale, 0.7 * scale,
                             198.0 * scale};
    table.target.activation = {2.1 * scale * t, 1.0 * scale, 0.0, 0.0, 202.0 * scale};
    m.set_coefficients(type, table);
  }
  return m;
}

core::MigrationScenario make_scenario(int i) {
  core::MigrationScenario sc;
  sc.type = i % 3 == 0 ? MigrationType::kNonLive : MigrationType::kLive;
  sc.vm_mem_bytes = util::gib(1.0 + i % 8);
  sc.vm_cpu_vcpus = 1.0 + i % 4;
  const double mem_pages = sc.vm_mem_bytes / util::kPageSize;
  sc.vm_working_set_pages = mem_pages * 0.25;
  sc.vm_dirty_pages_per_s = sc.vm_working_set_pages * (0.05 + 0.09 * (i % 10));
  sc.source_cpu_load = 2.0 + i % 20;
  sc.target_cpu_load = 1.0 + i % 15;
  return sc;
}

/// A 4-node loopback fleet with closed-form services (fast, exact).
struct Fixture {
  explicit Fixture(int nodes = 4, std::size_t replication = 2) {
    obs::MetricRegistry* reg = &registry;
    const auto model = std::make_shared<const core::Wavm3Model>(make_model());
    for (int n = 0; n < nodes; ++n) {
      FleetNodeConfig cfg;
      cfg.node_id = n;
      cfg.registry = reg;
      cfg.service.threads = 1;
      cfg.service.fidelity = serve::Fidelity::kClosedForm;
      this->nodes.push_back(std::make_unique<FleetNode>(model, cfg));
      transport.register_node(n, this->nodes.back().get());
    }
    FleetClientConfig ccfg;
    ccfg.replication = replication;
    ccfg.registry = reg;
    client = std::make_unique<FleetClient>(transport, ccfg);
    for (int n = 0; n < nodes; ++n) client->add_node(n);
  }

  obs::MetricRegistry registry;
  LoopbackTransport transport;
  std::vector<std::unique_ptr<FleetNode>> nodes;
  std::unique_ptr<FleetClient> client;
};

TEST(Transport, UnknownNodeAndDownNodeAreTyped) {
  LoopbackTransport transport;
  const auto frame = encode_status_request();
  EXPECT_THROW(transport.call(9, frame), RpcError);
  Fixture fx(1);
  fx.transport.set_down(0, true);
  try {
    fx.transport.call(0, frame);
    FAIL() << "down node answered";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), RpcErrorCode::kNodeDown);
  }
}

TEST(Transport, SeededDropRateIsDeterministicallyApplied) {
  Fixture fx(1);
  fx.transport.set_drop_rate(0, 1.0);
  EXPECT_THROW(fx.transport.call(0, encode_status_request()), RpcError);
  fx.transport.set_drop_rate(0, 0.0);
  EXPECT_NO_THROW(fx.transport.call(0, encode_status_request()));
  EXPECT_GE(fx.transport.failures(0), 1U);
}

TEST(Fleet, PredictMatchesDirectPlanner) {
  Fixture fx;
  const core::Wavm3Model reference = make_model();
  for (int i = 0; i < 24; ++i) {
    const core::MigrationScenario sc = make_scenario(i);
    const core::MigrationForecast via_fleet = fx.client->predict(sc);
    const core::MigrationForecast direct = core::MigrationPlanner(reference).forecast(sc);
    EXPECT_EQ(via_fleet.source_energy, direct.source_energy) << "scenario " << i;
    EXPECT_EQ(via_fleet.target_energy, direct.target_energy) << "scenario " << i;
    EXPECT_EQ(via_fleet.times.me, direct.times.me) << "scenario " << i;
  }
}

TEST(Fleet, FailsOverToReplicaWhenNodeIsDown) {
  Fixture fx;
  // Take one node down: every request routed to it must fail over to
  // the surviving replica and still answer.
  fx.transport.set_down(2, true);
  for (int i = 0; i < 48; ++i) {
    EXPECT_NO_THROW(fx.client->predict(make_scenario(i)));
  }
  fx.transport.set_down(2, false);
}

TEST(Fleet, AllReplicasDownIsTypedNodeDown) {
  Fixture fx(2, 2);  // replication == node count: every node owns every slice
  fx.transport.set_down(0, true);
  fx.transport.set_down(1, true);
  try {
    fx.client->predict(make_scenario(1));
    FAIL() << "predict succeeded with the whole fleet down";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), RpcErrorCode::kNodeDown);
  }
}

TEST(Fleet, BreakerTripsAndRoutesAroundSickNode) {
  Fixture fx;
  serve::CircuitBreakerConfig bcfg;  // default: 5 consecutive failures trip
  fx.transport.set_down(1, true);
  for (int i = 0; i < 200; ++i) {
    ASSERT_NO_THROW(fx.client->predict(make_scenario(i)));
  }
  // After the breaker tripped, the client stops probing node 1: its
  // call count stalls well below the request count.
  EXPECT_LT(fx.transport.calls(1),
            static_cast<std::uint64_t>(bcfg.failure_threshold + 10));
  EXPECT_GE(fx.client->failovers(), static_cast<std::uint64_t>(bcfg.failure_threshold));
}

TEST(Fleet, ServiceErrorsPropagateTyped) {
  Fixture fx;
  core::MigrationScenario sc = make_scenario(1);
  sc.vm_mem_bytes = -1.0;  // violates the planner's contract
  // A deterministic service failure must come back typed and must NOT
  // count as a node failure (no failover, breaker stays closed).
  EXPECT_THROW(fx.client->predict(sc), std::runtime_error);
  EXPECT_EQ(fx.client->failovers(), 0U);
}

TEST(Epoch, PublishConvergesFleetWide) {
  Fixture fx;
  const core::Wavm3Model next = make_model(1.25);
  const PublishReport report = fx.client->publish(next);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.epoch, 1U);
  EXPECT_EQ(report.prepare_acks, 4U);
  EXPECT_EQ(report.commit_acks, 4U);
  for (const auto& node : fx.nodes) {
    EXPECT_EQ(node->committed_epoch(), 1U);
    EXPECT_EQ(node->staged_epoch(), 0U);
  }
  const FleetStatus status = fx.client->status();
  EXPECT_EQ(status.epoch_lag, 0U);
  // Every node now serves the new model.
  const core::MigrationScenario sc = make_scenario(2);
  const core::MigrationForecast direct = core::MigrationPlanner(next).forecast(sc);
  EXPECT_EQ(fx.client->predict(sc).source_energy, direct.source_energy);
}

TEST(Epoch, NodeLossDuringPrepareRollsBackEverywhere) {
  Fixture fx;
  fx.transport.set_down(3, true);
  const PublishReport report = fx.client->publish(make_model(1.5));
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.prepare_acks, 3U);
  EXPECT_EQ(report.rollbacks_sent, 3U);
  // All-or-nothing: every live node still serves epoch 0 and the old
  // model; nothing remains staged.
  const core::Wavm3Model original = make_model();
  const core::MigrationScenario sc = make_scenario(5);
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(fx.nodes[static_cast<std::size_t>(n)]->committed_epoch(), 0U);
    EXPECT_EQ(fx.nodes[static_cast<std::size_t>(n)]->staged_epoch(), 0U);
  }
  EXPECT_EQ(fx.client->predict(sc).source_energy,
            core::MigrationPlanner(original).forecast(sc).source_energy);
  // The burned epoch cannot be replayed later (single-use), but the
  // next round uses a fresh epoch and converges once the node is back.
  fx.transport.set_down(3, false);
  const PublishReport retry = fx.client->publish(make_model(1.5));
  EXPECT_TRUE(retry.converged);
  EXPECT_EQ(retry.epoch, 2U);
  EXPECT_EQ(fx.client->status().epoch_lag, 0U);
}

TEST(Epoch, QuorumPublishToleratesMinorityLoss) {
  Fixture fx;
  FleetClientConfig ccfg;
  ccfg.quorum = 3;
  ccfg.registry = nullptr;
  FleetClient quorum_client(fx.transport, ccfg);
  for (int n = 0; n < 4; ++n) quorum_client.add_node(n);
  fx.transport.set_down(1, true);
  const PublishReport report = quorum_client.publish(make_model(2.0));
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.prepare_acks, 3U);
  // The lost node lags until the next converged publish reaches it.
  fx.transport.set_down(1, false);
  EXPECT_EQ(quorum_client.status().epoch_lag, 1U);
  const PublishReport heal = quorum_client.publish(make_model(2.0));
  EXPECT_TRUE(heal.converged);
  EXPECT_EQ(quorum_client.status().epoch_lag, 0U);
}

TEST(Epoch, StaleAndReplayedEpochsRejected) {
  Fixture fx;
  ASSERT_TRUE(fx.client->publish(make_model(1.1)).converged);  // epoch 1
  FleetNode& node = *fx.nodes[0];
  // Re-preparing the committed epoch is rejected.
  EpochPrepare stale;
  stale.epoch = 1;
  stale.tables.emplace_back(MigrationType::kLive, core::Wavm3Coefficients{});
  const EpochAck ack = decode_epoch_ack(
      decode_frame(node.handle(encode_epoch_prepare(stale))));
  EXPECT_FALSE(ack.accepted);
  // Committing an epoch that was never prepared is rejected.
  const EpochAck ghost = decode_epoch_ack(
      decode_frame(node.handle(encode_epoch_commit(EpochCommit{7}))));
  EXPECT_FALSE(ghost.accepted);
  // Rolling back an unknown epoch is an idempotent ack (coordinator
  // sweeps must succeed over any partial state).
  const EpochAck sweep = decode_epoch_ack(
      decode_frame(node.handle(encode_epoch_rollback(EpochRollback{7}))));
  EXPECT_TRUE(sweep.accepted);
}

EpochPrepare prepare_of(std::uint64_t epoch, const core::Wavm3Model& model) {
  EpochPrepare prepare;
  prepare.epoch = epoch;
  for (const MigrationType type : model.fitted_types()) {
    prepare.tables.emplace_back(type, model.coefficients(type));
  }
  return prepare;
}

// A commit or rollback that lands while the node prices a request must
// not stamp the answer with an epoch whose coefficients did not price
// it. The simulated backend switches the node's epoch from inside its
// first call of each request, the widest such race there is.
TEST(Epoch, AnswerIsStampedWithTheEpochThatPricedIt) {
  const core::Wavm3Model model_a = make_model();
  const core::Wavm3Model model_b = make_model(1.25);
  std::function<void()> on_first_call;
  int backend_calls = 0;
  FleetNodeConfig cfg;
  cfg.service.threads = 1;
  cfg.service.fidelity = serve::Fidelity::kSimulated;
  cfg.service.simulated_backend = [&](const core::Wavm3Model& m,
                                      const core::MigrationScenario& sc) {
    ++backend_calls;
    if (on_first_call) {
      const std::function<void()> hook = std::move(on_first_call);
      on_first_call = nullptr;
      hook();
    }
    return core::MigrationPlanner(m).forecast(sc);
  };
  FleetNode node(std::make_shared<const core::Wavm3Model>(model_a), cfg);
  const auto epoch_call = [&](const std::vector<std::uint8_t>& frame) {
    return decode_epoch_ack(decode_frame(node.handle(frame))).accepted;
  };
  const auto routed = [&](const core::MigrationScenario& sc) {
    return decode_predict_response(
        decode_frame(node.handle(encode_predict_request(PredictRequest{sc}))));
  };

  // Commit epoch 1 (model B) while the first pricing runs on model A.
  ASSERT_TRUE(epoch_call(encode_epoch_prepare(prepare_of(1, model_b))));
  on_first_call = [&] { ASSERT_TRUE(epoch_call(encode_epoch_commit(EpochCommit{1}))); };
  const core::MigrationScenario sc1 = make_scenario(1);
  const PredictResponse committed = routed(sc1);
  EXPECT_EQ(committed.epoch, 1U);
  EXPECT_EQ(committed.coeff_version, 2U);
  EXPECT_EQ(committed.forecast.source_energy,
            core::MigrationPlanner(model_b).forecast(sc1).source_energy);
  EXPECT_EQ(committed.forecast.target_energy,
            core::MigrationPlanner(model_b).forecast(sc1).target_energy);
  EXPECT_NE(committed.forecast.source_energy,
            core::MigrationPlanner(model_a).forecast(sc1).source_energy);
  EXPECT_EQ(backend_calls, 2);  // the answer priced on model A was dropped

  // Roll epoch 1 back (model A again) while the next pricing runs on B.
  on_first_call = [&] { ASSERT_TRUE(epoch_call(encode_epoch_rollback(EpochRollback{1}))); };
  const core::MigrationScenario sc2 = make_scenario(2);
  const PredictResponse rolled_back = routed(sc2);
  EXPECT_EQ(rolled_back.epoch, 0U);
  EXPECT_EQ(rolled_back.coeff_version, 3U);
  EXPECT_EQ(rolled_back.forecast.source_energy,
            core::MigrationPlanner(model_a).forecast(sc2).source_energy);
  EXPECT_EQ(rolled_back.forecast.target_energy,
            core::MigrationPlanner(model_a).forecast(sc2).target_energy);
  EXPECT_EQ(backend_calls, 4);

  // Nothing moves during a plain request: it is priced once.
  const PredictResponse steady = routed(make_scenario(3));
  EXPECT_EQ(steady.epoch, 0U);
  EXPECT_EQ(steady.coeff_version, 3U);
  EXPECT_EQ(backend_calls, 5);
}

// The same property under real contention (and under TSan in CI):
// readers predict through one node while a writer commits epoch after
// epoch, each with its own coefficients. Every answer must equal the
// forecast of the model its stamped epoch committed.
TEST(Epoch, ConcurrentSwitchesNeverMisstampAnAnswer) {
  constexpr int kEpochs = 40;
  constexpr int kScenarios = 8;
  std::vector<core::Wavm3Model> models;
  std::vector<std::vector<double>> expected(kEpochs + 1);
  for (int e = 0; e <= kEpochs; ++e) {
    models.push_back(make_model(1.0 + 0.01 * e));
    for (int i = 0; i < kScenarios; ++i) {
      expected[e].push_back(
          core::MigrationPlanner(models.back()).forecast(make_scenario(i)).source_energy);
    }
  }
  FleetNodeConfig cfg;
  cfg.service.threads = 1;
  FleetNode node(std::make_shared<const core::Wavm3Model>(models[0]), cfg);
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < kScenarios; ++i) {
    requests.push_back(encode_predict_request(PredictRequest{make_scenario(i)}));
  }
  std::atomic<bool> done{false};
  std::atomic<int> misstamped{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; !done.load(std::memory_order_relaxed) || i < t + kScenarios; ++i) {
        const PredictResponse resp =
            decode_predict_response(decode_frame(node.handle(requests[i % kScenarios])));
        if (resp.epoch > kEpochs ||
            resp.forecast.source_energy != expected[resp.epoch][i % kScenarios]) {
          misstamped.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    const auto ack = [&](const std::vector<std::uint8_t>& frame) {
      return decode_epoch_ack(decode_frame(node.handle(frame))).accepted;
    };
    EXPECT_TRUE(ack(encode_epoch_prepare(prepare_of(e, models[e]))));
    EXPECT_TRUE(ack(encode_epoch_commit(EpochCommit{e})));
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(misstamped.load(), 0);
  EXPECT_GE(answered.load(), 3 * kScenarios);
  EXPECT_EQ(node.committed_epoch(), static_cast<std::uint64_t>(kEpochs));
}

TEST(Epoch, NonFiniteTablesRejectedAtPrepare) {
  Fixture fx(1, 1);
  EpochPrepare bad;
  bad.epoch = 1;
  core::Wavm3Coefficients table;
  table.source.transfer.alpha = std::numeric_limits<double>::quiet_NaN();
  bad.tables.emplace_back(MigrationType::kLive, table);
  const EpochAck ack = decode_epoch_ack(
      decode_frame(fx.nodes[0]->handle(encode_epoch_prepare(bad))));
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(fx.nodes[0]->staged_epoch(), 0U);
}

TEST(Fleet, ConcurrentPredictAndPublishHammer) {
  Fixture fx;
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed) && i < 400; ++i) {
        try {
          fx.client->predict(make_scenario(t * 100 + i));
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Publish a few epochs and flap one node while traffic flows.
  for (int e = 0; e < 6; ++e) {
    fx.transport.set_down(1, e % 2 == 0);
    fx.client->publish(make_model(1.0 + 0.05 * e));
    fx.transport.set_down(1, false);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  // No predict may fail: node 1's loss is always covered by a replica.
  EXPECT_EQ(errors.load(), 0);
  // After the last publish with every node up, the fleet is converged.
  fx.client->publish(make_model(3.0));
  EXPECT_EQ(fx.client->status().epoch_lag, 0U);
}

TEST(NodeOutagePlan, SeededStormIsDeterministicAndBounded) {
  faults::NodeOutageOptions opt;
  opt.horizon_s = 10.0;
  opt.outages_per_node = 2;
  opt.max_concurrent_down = 1;
  const faults::NodeOutagePlan a = faults::NodeOutagePlan::random(4, opt, 77);
  const faults::NodeOutagePlan b = faults::NodeOutagePlan::random(4, opt, 77);
  ASSERT_EQ(a.outages().size(), b.outages().size());
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_EQ(a.outages()[i].node, b.outages()[i].node);
    EXPECT_DOUBLE_EQ(a.outages()[i].down_from_s, b.outages()[i].down_from_s);
  }
  EXPECT_FALSE(a.empty());
  // The concurrency cap holds at every outage boundary.
  for (const faults::NodeOutage& o : a.outages()) {
    EXPECT_LE(a.down_count(o.down_from_s), opt.max_concurrent_down);
  }
  // down() honours the window.
  const faults::NodeOutage& first = a.outages().front();
  EXPECT_TRUE(a.down(first.node, first.down_from_s));
  EXPECT_FALSE(a.down(first.node, first.down_until_s));
}

TEST(NodeOutagePlan, RejectsMalformedWindows) {
  faults::NodeOutagePlan plan;
  EXPECT_THROW(plan.add({-1, 0.0, 1.0}), util::ContractError);
  EXPECT_THROW(plan.add({0, 2.0, 1.0}), util::ContractError);
  plan.add({0, 1.0, 1.0});  // empty window: accepted, dropped
  EXPECT_TRUE(plan.empty());
}

}  // namespace
}  // namespace wavm3::rpc
