// Virtual-cluster edge cases: stale deadline events, event-cap guard,
// latency-induced message overtaking (a documented non-FIFO case),
// simultaneous-event tie-breaking, nested waits, and the fiber executor's
// teardown, stack depth and independence across threads.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "simtime/virtual_cluster.hpp"
#include "transport/serialize.hpp"

namespace ccf::simtime {
using transport::kAnyProc;
namespace {

transport::Payload payload_of(int v) {
  transport::Writer w;
  w.put<std::int32_t>(v);
  return w.take();
}

transport::Payload payload_bytes(std::size_t n) {
  transport::Writer w;
  w.put_vector(std::vector<std::uint8_t>(n, 1));
  return w.take();
}

int value_of(const Message& m) {
  transport::Reader r(m.payload);
  return r.get<std::int32_t>();
}

TEST(VirtualClusterEdge, StaleDeadlineEventIsIgnored) {
  // A recv_until satisfied by a message leaves its deadline event queued;
  // a second recv_until with the SAME deadline must not be woken by the
  // stale event (generation counter check).
  VirtualCluster::Options opts;
  opts.latency = std::make_shared<const transport::FixedLatency>(1.0);
  VirtualCluster cluster(opts);
  cluster.add_process(0, [&](SimContext& ctx) {
    ctx.send(1, 1, payload_of(7));   // arrives at t=1
    ctx.advance(2.0);
    ctx.send(1, 1, payload_of(8));   // arrives at t=3
  });
  cluster.add_process(1, [&](SimContext& ctx) {
    auto m1 = ctx.recv_until(MatchSpec{0, 1}, 5.0);  // satisfied at t=1
    ASSERT_TRUE(m1.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
    auto m2 = ctx.recv_until(MatchSpec{0, 1}, 5.0);  // must get the t=3 message
    ASSERT_TRUE(m2.has_value());
    EXPECT_EQ(value_of(*m2), 8);
    EXPECT_DOUBLE_EQ(ctx.now(), 3.0);
    // And a third wait with the same deadline times out at exactly 5.
    auto m3 = ctx.recv_until(MatchSpec{0, 1}, 5.0);
    EXPECT_FALSE(m3.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 5.0);
  });
  cluster.run();
}

TEST(VirtualClusterEdge, MaxEventsCapAborts) {
  VirtualCluster::Options opts;
  opts.max_events = 100;
  VirtualCluster cluster(opts);
  cluster.add_process(0, [&](SimContext& ctx) {
    for (int i = 0; i < 1000; ++i) ctx.advance(0.001);
  });
  EXPECT_THROW(cluster.run(), util::InternalError);
}

TEST(VirtualClusterEdge, BandwidthLatencyLetsSmallMessagesOvertake) {
  // With a size-dependent latency model, a small message sent after a big
  // one can arrive first — the documented reason higher layers tag
  // messages instead of relying on per-pair FIFO.
  VirtualCluster::Options opts;
  opts.latency = std::make_shared<const transport::BandwidthLatency>(0.0, 1000.0);  // 1 KB/s
  VirtualCluster cluster(opts);
  std::vector<int> order;
  cluster.add_process(0, [&](SimContext& ctx) {
    ctx.send(1, 1, payload_bytes(2000));  // ~2s in flight
    ctx.send(1, 2, payload_of(1));        // tiny, ~12 bytes -> arrives first
  });
  cluster.add_process(1, [&](SimContext& ctx) {
    Message first = ctx.recv(MatchSpec{0, transport::kAnyTag});
    order.push_back(first.tag);
    Message second = ctx.recv(MatchSpec{0, transport::kAnyTag});
    order.push_back(second.tag);
  });
  cluster.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(VirtualClusterEdge, SimultaneousEventsKeepInsertionOrder) {
  // Two zero-latency messages sent at the same virtual instant arrive in
  // send order (tie-break by event sequence number).
  VirtualCluster cluster;
  std::vector<int> seen;
  cluster.add_process(0, [&](SimContext& ctx) {
    ctx.send(1, 1, payload_of(1));
    ctx.send(1, 1, payload_of(2));
    ctx.send(1, 1, payload_of(3));
  });
  cluster.add_process(1, [&](SimContext& ctx) {
    for (int i = 0; i < 3; ++i) seen.push_back(value_of(ctx.recv(MatchSpec{0, 1})));
  });
  cluster.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(VirtualClusterEdge, ZeroAdvanceYieldsButKeepsTime) {
  VirtualCluster cluster;
  cluster.add_process(0, [&](SimContext& ctx) {
    ctx.advance(0.0);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    ctx.advance(0.0);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(cluster.end_time(), 0.0);
}

TEST(VirtualClusterEdge, RecvUntilZeroDeadlineDoesNotBlock) {
  VirtualCluster cluster;
  cluster.add_process(0, [&](SimContext& ctx) {
    auto m = ctx.recv_until(MatchSpec{kAnyProc, 1}, 0.0);  // deadline == now
    EXPECT_FALSE(m.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
  });
  cluster.run();
}

TEST(VirtualClusterEdge, ManySmallAdvancesAccumulateExactly) {
  VirtualCluster cluster;
  cluster.add_process(0, [&](SimContext& ctx) {
    for (int i = 0; i < 1000; ++i) ctx.advance(0.5);
    EXPECT_DOUBLE_EQ(ctx.now(), 500.0);
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(cluster.end_time(), 500.0);
}

/// Counts destructions, so a test can tell which suspended bodies unwound.
struct DestructionCounter {
  int& destroyed;
  ~DestructionCounter() { ++destroyed; }
};

TEST(VirtualClusterEdge, SuspendedBodiesUnwindWhenASiblingThrows) {
  VirtualCluster cluster;
  int started = 0;
  int destroyed = 0;
  cluster.add_process(0, [&](SimContext& ctx) {
    ++started;
    DestructionCounter guard{destroyed};
    (void)ctx.recv(MatchSpec{kAnyProc, 9});  // never arrives
  });
  cluster.add_process(1, [&](SimContext& ctx) {
    ++started;
    DestructionCounter guard{destroyed};
    ctx.advance(100.0);  // still suspended when proc 2 throws
  });
  cluster.add_process(2, [&](SimContext&) {
    ++started;
    DestructionCounter guard{destroyed};
    throw std::runtime_error("boom");
  });
  cluster.add_process(3, [&](SimContext&) { ++started; });  // never starts
  EXPECT_THROW(cluster.run(), std::runtime_error);
  EXPECT_EQ(started, 3);
  EXPECT_EQ(destroyed, started);
}

TEST(VirtualClusterEdge, SuspendedBodiesUnwindOnDeadlock) {
  VirtualCluster cluster;
  int started = 0;
  int destroyed = 0;
  for (ProcId p = 0; p < 2; ++p) {
    cluster.add_process(p, [&, p](SimContext& ctx) {
      ++started;
      DestructionCounter guard{destroyed};
      (void)ctx.recv(MatchSpec{1 - p, 1});  // each waits on the other
    });
  }
  cluster.add_process(2, [&](SimContext& ctx) {
    ++started;
    DestructionCounter guard{destroyed};
    ctx.advance(1.0);
  });
  EXPECT_THROW(cluster.run(), DeadlockError);
  EXPECT_EQ(started, 3);
  EXPECT_EQ(destroyed, started);
}

/// Uses about 1 KiB of stack per level and yields at the bottom, so the
/// whole chain of frames must survive a switch away and back.
int deep_recursion(SimContext& ctx, int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth & 0x7F);
  if (depth == 0) {
    ctx.advance(1.0);
    return frame[0];
  }
  return deep_recursion(ctx, depth - 1) + frame[0];
}

TEST(VirtualClusterEdge, BodyCanUseAMebibyteOfStack) {
  VirtualCluster cluster;
  int sum = -1;
  cluster.add_process(0, [&](SimContext& ctx) { sum = deep_recursion(ctx, 1024); });
  cluster.add_process(1, [&](SimContext& ctx) { ctx.advance(0.5); });
  cluster.run();
  int expected = 0;
  for (int d = 0; d <= 1024; ++d) expected += d & 0x7F;
  EXPECT_EQ(sum, expected);
  EXPECT_DOUBLE_EQ(cluster.end_time(), 1.0);
}

std::vector<VirtualCluster::JournalEntry> ring_journal(int procs, double latency) {
  VirtualCluster::Options opts;
  opts.journal = true;
  opts.latency = std::make_shared<const transport::FixedLatency>(latency);
  VirtualCluster cluster(opts);
  for (int p = 0; p < procs; ++p) {
    cluster.add_process(p, [p, procs](SimContext& ctx) {
      for (int i = 0; i < 200; ++i) {
        ctx.advance(0.001 * (p + 1));
        ctx.send((p + 1) % procs, 5, payload_of(i));
        (void)ctx.recv(MatchSpec{(p + procs - 1) % procs, 5});
      }
    });
  }
  cluster.run();
  return cluster.journal();
}

TEST(VirtualClusterEdge, ClustersOnTwoThreadsRunIndependently) {
  const auto want_a = ring_journal(3, 0.01);
  const auto want_b = ring_journal(5, 0.002);
  ASSERT_NE(want_a, want_b);
  std::vector<VirtualCluster::JournalEntry> got_a, got_b;
  std::thread a([&] { got_a = ring_journal(3, 0.01); });
  std::thread b([&] { got_b = ring_journal(5, 0.002); });
  a.join();
  b.join();
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
}

}  // namespace
}  // namespace ccf::simtime
