#include "transport/network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccf::transport {

std::shared_ptr<Mailbox> Network::register_process(ProcId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  CCF_REQUIRE(id >= 0, "process id must be non-negative, got " << id);
  CCF_REQUIRE(!mailboxes_.count(id), "process id " << id << " already registered");
  auto box = std::make_shared<Mailbox>();
  mailboxes_[id] = box;
  next_seq_[id] = 0;
  return box;
}

std::shared_ptr<Mailbox> Network::mailbox(ProcId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = mailboxes_.find(id);
  CCF_REQUIRE(it != mailboxes_.end(), "unknown process id " << id);
  return it->second;
}

bool Network::has_process(ProcId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return mailboxes_.count(id) > 0;
}

void Network::send(Message m) {
  std::shared_ptr<Mailbox> box;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(m.dst);
    CCF_REQUIRE(it != mailboxes_.end(), "send to unknown process id " << m.dst);
    box = it->second;
    auto seq_it = next_seq_.find(m.src);
    if (seq_it != next_seq_.end()) m.seq = seq_it->second++;
  }
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(m.size_bytes(), std::memory_order_relaxed);
  if (!box->deliver(std::move(m))) {
    closed_box_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Network::shutdown() {
  std::vector<std::shared_ptr<Mailbox>> boxes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    boxes.reserve(mailboxes_.size());
    for (auto& [id, box] : mailboxes_) boxes.push_back(box);
  }
  for (auto& box : boxes) box->close();
}

std::vector<ProcId> Network::process_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProcId> ids;
  ids.reserve(mailboxes_.size());
  for (const auto& [id, box] : mailboxes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkStats Network::stats() const {
  NetworkStats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.closed_box_drops = closed_box_drops_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ccf::transport
