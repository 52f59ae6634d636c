// In-memory network fabric connecting simulated processes.
//
// The Network owns one Mailbox per registered process id and routes
// messages by destination. Delivery is immediate and ordered per
// (sender, receiver) pair — the real-time runtime uses it directly; the
// virtual-time runtime schedules its own deliveries and uses the fabric
// only for addressing. Statistics (messages/bytes per endpoint) back the
// transport microbenches. The fabric is lossless; seeded faults are
// injected above it by the FaultTransport decorator (fault_transport.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "transport/mailbox.hpp"
#include "transport/message.hpp"

namespace ccf::transport {

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Messages that reached a closed mailbox (receiver already torn down).
  std::uint64_t closed_box_drops = 0;
};

class Network {
 public:
  /// Registers a process id and returns its mailbox. Ids must be unique.
  std::shared_ptr<Mailbox> register_process(ProcId id);

  /// Looks up a mailbox; throws InvalidArgument for unknown ids.
  std::shared_ptr<Mailbox> mailbox(ProcId id) const;

  bool has_process(ProcId id) const;

  /// Stamps the per-sender sequence number and delivers into dst's mailbox.
  void send(Message m);

  /// Closes every mailbox (wakes all blocked receivers).
  void shutdown();

  std::vector<ProcId> process_ids() const;
  NetworkStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<ProcId, std::shared_ptr<Mailbox>> mailboxes_;
  std::unordered_map<ProcId, std::uint64_t> next_seq_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> closed_box_drops_{0};
};

}  // namespace ccf::transport
