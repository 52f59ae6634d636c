// FaultTransport decorator tests: seeded chaos over ANY Transport
// backend. The same plan over the same traffic must produce the same
// fault schedule whether the inner transport is the in-memory fabric or
// the real SHM+TCP backend — that replay equivalence is what lets the
// chaos harness run unchanged against a live deployment.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "transport/fault.hpp"
#include "transport/fault_transport.hpp"
#include "transport/transport.hpp"

namespace ccf::transport {
namespace {

Message make_message(ProcId src, ProcId dst, Tag tag) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  std::vector<std::byte> p(32);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::byte>((static_cast<std::size_t>(tag) + i) & 0xFF);
  m.payload = make_payload(std::move(p));
  return m;
}

/// Sends `count` tagged messages 0 -> 1 through a faulted transport and
/// returns the delivered tag sequence.
std::vector<Tag> run_schedule(std::shared_ptr<Transport> inner,
                              std::shared_ptr<FaultInjector> injector, int count) {
  FaultTransport faulted(std::move(inner), std::move(injector));
  std::vector<Tag> tags;
  std::thread receiver([&] {
    auto ep = faulted.attach(1);
    for (;;) {
      Message m;
      try {
        m = ep->inbox().receive({});
      } catch (const MailboxClosed&) {
        break;
      }
      tags.push_back(m.tag);
    }
  });
  {
    auto ep = faulted.attach(0);
    for (int i = 0; i < count; ++i) ep->send(make_message(0, 1, i));
  }
  // Flush held (delayed) messages, then close mailboxes so the receiver
  // sees a clean end-of-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  faulted.shutdown();
  receiver.join();
  return tags;
}

FaultPlan chaos_plan(std::uint64_t seed, int count) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.2;
  plan.delay_prob = 0.2;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.002;
  // Keep the final message fault-free so it releases any held (delayed)
  // message while the transport is still fully up — the flush must not
  // race the backend's teardown.
  plan.eligible = [count](ProcId, ProcId, Tag tag) { return tag < count - 1; };
  return plan;
}

TEST(FaultTransport, PassesThroughUntouchedWithoutFaults) {
  auto injector = std::make_shared<FaultInjector>(FaultPlan{});  // all probs 0
  const auto tags = run_schedule(make_transport({}, {0, 1}), injector, 50);
  ASSERT_EQ(tags.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(injector->stats().dropped, 0u);
}

TEST(FaultTransport, DropsDuplicatesAndReordersPerThePlan) {
  auto injector = std::make_shared<FaultInjector>(chaos_plan(7, 200));
  const auto tags = run_schedule(make_transport({}, {0, 1}), injector, 200);
  const FaultStats stats = injector->stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.delayed, 0u);
  EXPECT_EQ(tags.size(), 200u - stats.dropped + stats.duplicated);
}

TEST(FaultTransport, SameSeedReplaysTheSameScheduleOnTheSameBackend) {
  const auto a =
      run_schedule(make_transport({}, {0, 1}), std::make_shared<FaultInjector>(chaos_plan(11, 150)), 150);
  const auto b =
      run_schedule(make_transport({}, {0, 1}), std::make_shared<FaultInjector>(chaos_plan(11, 150)), 150);
  EXPECT_EQ(a, b);
}

TEST(FaultTransport, InjectsTheSameFaultsOverFabricAndRealShm) {
  // The decision stream is a pure function of (seed, link, message
  // index) — the inner backend must not shift it. Delivery order may
  // differ across backends; drop/dup/delay counts may not.
  auto fabric_injector = std::make_shared<FaultInjector>(chaos_plan(23, 120));
  const auto fabric_tags = run_schedule(make_transport({}, {0, 1}), fabric_injector, 120);

  TransportOptions real_opt;
  real_opt.kind = TransportKind::Real;  // same node: SHM rings
  auto real_injector = std::make_shared<FaultInjector>(chaos_plan(23, 120));
  const auto real_tags = run_schedule(make_transport(real_opt, {0, 1}), real_injector, 120);

  const FaultStats fs = fabric_injector->stats();
  const FaultStats rs = real_injector->stats();
  EXPECT_EQ(fs.dropped, rs.dropped);
  EXPECT_EQ(fs.duplicated, rs.duplicated);
  EXPECT_EQ(fs.delayed, rs.delayed);
  EXPECT_EQ(fabric_tags.size(), real_tags.size());

  // SHM delivery is FIFO per link, so the sequences match exactly.
  EXPECT_EQ(fabric_tags, real_tags);
}

TEST(FaultTransport, DropsVanishAndAreCounted) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  auto injector = std::make_shared<FaultInjector>(plan);
  FaultTransport faulted(make_transport({}, {0, 1}), injector);
  auto receiver = faulted.attach(1);
  {
    auto ep = faulted.attach(0);
    for (int i = 0; i < 5; ++i) ep->send(make_message(0, 1, i));
  }
  EXPECT_FALSE(receiver->inbox().probe({}));
  EXPECT_EQ(injector->stats().dropped, 5u);
  // Dropped messages never reach the inner transport.
  EXPECT_EQ(faulted.counters().frames_sent, 0u);
  faulted.shutdown();
}

TEST(FaultTransport, DelayHoldsBackUntilNextSendToSameDst) {
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.001;
  plan.max_faults = 1;  // only the first message is held back
  auto injector = std::make_shared<FaultInjector>(plan);
  FaultTransport faulted(make_transport({}, {0, 1}), injector);
  auto receiver = faulted.attach(1);
  auto ep = faulted.attach(0);
  ep->send(make_message(0, 1, 100));
  EXPECT_FALSE(receiver->inbox().probe({}));  // held
  ep->send(make_message(0, 1, 200));
  // The second message now precedes the held-back first: a reordering.
  EXPECT_EQ(receiver->inbox().receive({}).tag, 200);
  EXPECT_EQ(receiver->inbox().receive({}).tag, 100);
  EXPECT_EQ(injector->stats().delayed, 1u);
  faulted.shutdown();
}

TEST(FaultTransport, DuplicateDeliveriesAliasOnePayloadBuffer) {
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate_prob = 1.0;
  plan.max_faults = 1;
  FaultTransport faulted(make_transport({}, {0, 1}),
                         std::make_shared<FaultInjector>(plan));
  auto receiver = faulted.attach(1);
  {
    auto ep = faulted.attach(0);
    ep->send(make_message(0, 1, 5));
  }
  Message first = receiver->inbox().receive({});
  Message second = receiver->inbox().receive({});
  EXPECT_EQ(first.tag, 5);
  EXPECT_EQ(second.tag, 5);
  EXPECT_EQ(first.payload.data(), second.payload.data())
      << "duplicate should alias, not copy";
  faulted.shutdown();
}

TEST(FaultTransport, ShutdownFlushesHeldMessages) {
  FaultPlan plan;
  plan.seed = 1;
  plan.delay_prob = 1.0;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.001;
  plan.max_faults = 1;
  FaultTransport faulted(make_transport({}, {0, 1}),
                         std::make_shared<FaultInjector>(plan));
  auto receiver = faulted.attach(1);
  {
    auto ep = faulted.attach(0);
    ep->send(make_message(0, 1, 9));  // held: nothing follows to release it
  }
  EXPECT_FALSE(receiver->inbox().probe({}));
  faulted.shutdown();  // must flush, not drop
  auto m = receiver->inbox().try_receive({});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 9);
}

}  // namespace
}  // namespace ccf::transport
