#include "simtime/virtual_cluster.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CCF_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCF_FIBER_ASAN 1
#endif
#endif
#ifdef CCF_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace ccf::simtime {

namespace {
/// Internal unwind signal used to tear down suspended process fibers when
/// the cluster aborts (deadlock or another process threw). Never escapes
/// run().
struct ClusterAborted {};

constexpr std::size_t kStackBytes = std::size_t{8} << 20;
}  // namespace

struct VirtualCluster::Fiber {
  ucontext_t context{};
  void* mapping = nullptr;  ///< guard page + stack; null for the scheduler
  std::size_t mapping_bytes = 0;
  const void* stack_bottom = nullptr;  ///< stack bounds, for ASan
  std::size_t stack_bytes = 0;

  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
    if (mapping) munmap(mapping, mapping_bytes);
  }

  /// A fiber that will start in fiber_entry(owner), on a stack committed
  /// lazily, page by page, as it is used. An overflow hits the PROT_NONE
  /// guard page below it and faults.
  static std::unique_ptr<Fiber> for_process(VirtualCluster* owner) {
    auto f = std::make_unique<Fiber>();
    const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    f->mapping_bytes = guard + kStackBytes;
    void* m = mmap(nullptr, f->mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    CCF_CHECK(m != MAP_FAILED, "cannot map a fiber stack: " << std::strerror(errno));
    f->mapping = m;
    CCF_CHECK(mprotect(m, guard, PROT_NONE) == 0,
              "cannot protect a fiber guard page: " << std::strerror(errno));
    f->stack_bottom = static_cast<char*>(m) + guard;
    f->stack_bytes = kStackBytes;
    CCF_CHECK(getcontext(&f->context) == 0, "getcontext failed");
    f->context.uc_stack.ss_sp = static_cast<char*>(m) + guard;
    f->context.uc_stack.ss_size = kStackBytes;
    f->context.uc_link = nullptr;
    const auto addr = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(owner));
    makecontext(&f->context, reinterpret_cast<void (*)()>(&fiber_entry), 2,
                static_cast<unsigned>(addr >> 32), static_cast<unsigned>(addr));
    return f;
  }
};

namespace {
// ASan must be told about every stack switch, or it reports false stack
// overflows and loses track of fake stacks. No-ops in other builds.
void start_switch([[maybe_unused]] void** fake_stack_save,
                  [[maybe_unused]] const void* bottom, [[maybe_unused]] std::size_t size) {
#ifdef CCF_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#ifdef CCF_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}
}  // namespace

// ---------------------------------------------------------------------------
// SimContext: runs on the process's own fiber
// ---------------------------------------------------------------------------

void SimContext::advance(SimTime dt) {
  CCF_REQUIRE(dt >= 0.0, "advance by negative time " << dt);
  proc_.state = VirtualCluster::ProcState::Yielded;
  cluster_.push_event({proc_.now + dt, 0, VirtualCluster::Event::Kind::Resume, &proc_, {}});
  cluster_.yield(proc_);
}

void SimContext::send(ProcId dst, Tag tag, Payload payload) {
  auto it = cluster_.procs_.find(dst);
  CCF_REQUIRE(it != cluster_.procs_.end(), "send to unknown process id " << dst);
  Message m;
  m.src = proc_.id;
  m.dst = dst;
  m.tag = tag;
  m.payload = payload ? std::move(payload) : transport::empty_payload();
  double delay = cluster_.options_.latency->delay_seconds(m.size_bytes());
  VirtualCluster::Proc* to = it->second.get();
  if (const auto& faults = cluster_.options_.faults) {
    const transport::FaultDecision d = faults->decide(proc_.id, dst, tag);
    if (d.drop) return;  // vanishes in flight
    delay += d.extra_delay_seconds;  // may reorder past later sends
    if (d.duplicate) {
      cluster_.push_event({proc_.now + delay, 0, VirtualCluster::Event::Kind::Delivery, to, m});
    }
  }
  cluster_.push_event(
      {proc_.now + delay, 0, VirtualCluster::Event::Kind::Delivery, to, std::move(m)});
}

Message SimContext::recv(const MatchSpec& spec) {
  for (;;) {
    if (auto m = try_recv(spec)) return std::move(*m);
    proc_.state = VirtualCluster::ProcState::WaitingRecv;
    proc_.wait_spec = spec;
    proc_.has_deadline = false;
    cluster_.yield(proc_);
  }
}

std::optional<Message> SimContext::try_recv(const MatchSpec& spec) {
  auto& inbox = proc_.inbox;
  auto it = std::find_if(inbox.begin(), inbox.end(),
                         [&](const Message& m) { return spec.matches(m); });
  if (it == inbox.end()) return std::nullopt;
  Message m = std::move(*it);
  inbox.erase(it);
  return m;
}

bool SimContext::probe(const MatchSpec& spec) {
  return std::any_of(proc_.inbox.begin(), proc_.inbox.end(),
                     [&](const Message& m) { return spec.matches(m); });
}

std::optional<Message> SimContext::recv_until(const MatchSpec& spec, SimTime deadline) {
  for (;;) {
    if (auto m = try_recv(spec)) return std::move(*m);
    if (proc_.now >= deadline) return std::nullopt;
    proc_.state = VirtualCluster::ProcState::WaitingRecv;
    proc_.wait_spec = spec;
    proc_.has_deadline = true;
    proc_.deadline = deadline;
    proc_.woke_by_deadline = false;
    VirtualCluster::Event e{deadline, 0, VirtualCluster::Event::Kind::Deadline, &proc_, {}};
    e.gen = ++proc_.deadline_gen;
    cluster_.push_event(std::move(e));
    cluster_.yield(proc_);
    // One more scan: a message may have been delivered exactly at the
    // deadline tick before our resume.
    if (proc_.woke_by_deadline) return try_recv(spec);
  }
}

// ---------------------------------------------------------------------------
// VirtualCluster
// ---------------------------------------------------------------------------

VirtualCluster::VirtualCluster(Options options) : options_(std::move(options)) {
  CCF_REQUIRE(options_.latency != nullptr, "cluster needs a latency model");
}

VirtualCluster::~VirtualCluster() {
  // Normally a no-op: run() unwinds every fiber before it returns or throws,
  // unless the scheduler itself failed (e.g. a fiber stack could not be
  // mapped) while others were suspended.
  unwind_all();
}

void VirtualCluster::add_process(ProcId id, std::function<void(SimContext&)> body) {
  CCF_REQUIRE(!started_, "cannot add processes after run()");
  CCF_REQUIRE(id >= 0, "process id must be non-negative, got " << id);
  CCF_REQUIRE(!procs_.count(id), "duplicate process id " << id);
  CCF_REQUIRE(body != nullptr, "process body must be callable");
  auto proc = std::make_unique<Proc>();
  proc->id = id;
  proc->body = std::move(body);
  proc_order_.push_back(procs_.emplace(id, std::move(proc)).first->second.get());
}

void VirtualCluster::push_event(Event e) {
  e.seq = next_seq_++;
  events_.push(std::move(e));
}

void VirtualCluster::yield(Proc& proc) {
  void* fake_stack = nullptr;
  start_switch(&fake_stack, scheduler_->stack_bottom, scheduler_->stack_bytes);
  swapcontext(&proc.fiber->context, &scheduler_->context);
  finish_switch(fake_stack, nullptr, nullptr);
  if (aborting_) throw ClusterAborted{};
}

void VirtualCluster::switch_to(Proc& proc) {
  running_ = &proc;
  void* fake_stack = nullptr;
  start_switch(&fake_stack, proc.fiber->stack_bottom, proc.fiber->stack_bytes);
  swapcontext(&scheduler_->context, &proc.fiber->context);
  finish_switch(fake_stack, nullptr, nullptr);
  running_ = nullptr;
  if (proc.state == ProcState::Finished) proc.fiber.reset();  // unmaps its stack
}

void VirtualCluster::fiber_entry(unsigned self_hi, unsigned self_lo) {
  auto& self = *reinterpret_cast<VirtualCluster*>(
      static_cast<std::uintptr_t>((std::uint64_t{self_hi} << 32) | self_lo));
  // The first switch into a fiber reports the scheduler's stack bounds.
  finish_switch(nullptr, &self.scheduler_->stack_bottom, &self.scheduler_->stack_bytes);
  Proc& proc = *self.running_;
  try {
    SimContext ctx(self, proc);
    proc.body(ctx);
  } catch (const ClusterAborted&) {
    // normal teardown path
  } catch (...) {
    if (!self.first_error_) self.first_error_ = std::current_exception();
    self.aborting_ = true;
  }
  proc.state = ProcState::Finished;
  ++self.finished_count_;
  start_switch(nullptr, self.scheduler_->stack_bottom, self.scheduler_->stack_bytes);
  setcontext(&self.scheduler_->context);
}

void VirtualCluster::unwind_all() {
  aborting_ = true;
  for (Proc* p : proc_order_) {
    if (p->state == ProcState::NotStarted) p->state = ProcState::Finished;
    if (p->state != ProcState::Finished) switch_to(*p);
  }
}

std::string VirtualCluster::deadlock_report() const {
  std::ostringstream os;
  os << "virtual cluster deadlock: no events pending, blocked processes:";
  for (const Proc* p : proc_order_) {
    if (p->state == ProcState::WaitingRecv) {
      os << " [proc " << p->id << " waiting at t=" << p->now << " for src="
         << p->wait_spec.src << " tag=" << p->wait_spec.tag << "]";
    }
  }
  return os.str();
}

void VirtualCluster::run() {
  CCF_REQUIRE(!started_, "run() called twice");
  CCF_REQUIRE(!procs_.empty(), "no processes registered");
  started_ = true;
  scheduler_ = std::make_unique<Fiber>();
  // Seed: every process becomes runnable at t=0 in registration order.
  for (Proc* p : proc_order_) push_event(Event{0.0, 0, Event::Kind::Resume, p, {}});

  while (!aborting_ && finished_count_ < procs_.size()) {
    // Every suspended process that is not waiting on a message has a
    // Resume event queued, so an empty queue means the rest are blocked.
    if (events_.empty()) {
      const std::string report = deadlock_report();
      unwind_all();
      throw DeadlockError(report);
    }

    if (++events_processed_ > options_.max_events) {
      unwind_all();
      throw util::InternalError("virtual cluster exceeded max_events (" +
                                std::to_string(options_.max_events) + ")");
    }

    Event ev = events_.top();
    events_.pop();
    Proc& p = *ev.proc;

    if (options_.journal && journal_.size() < options_.journal_max) {
      JournalEntry entry;
      entry.time = ev.time;
      entry.proc = p.id;
      switch (ev.kind) {
        case Event::Kind::Resume: entry.kind = JournalEntry::Kind::Resume; break;
        case Event::Kind::Deadline: entry.kind = JournalEntry::Kind::Deadline; break;
        case Event::Kind::Delivery:
          entry.kind = JournalEntry::Kind::Delivery;
          entry.src = ev.message.src;
          entry.tag = ev.message.tag;
          entry.bytes = ev.message.size_bytes();
          break;
      }
      journal_.push_back(entry);
    }

    switch (ev.kind) {
      case Event::Kind::Delivery: {
        if (p.state == ProcState::Finished) break;  // late message, drop
        ++messages_delivered_;
        const bool was_waiting_match =
            p.state == ProcState::WaitingRecv && p.wait_spec.matches(ev.message);
        p.inbox.push_back(std::move(ev.message));
        if (was_waiting_match) {
          p.state = ProcState::Yielded;
          push_event(Event{std::max(p.now, ev.time), 0, Event::Kind::Resume, &p, {}});
        }
        break;
      }
      case Event::Kind::Deadline: {
        if (p.state == ProcState::WaitingRecv && p.has_deadline && p.deadline_gen == ev.gen) {
          p.woke_by_deadline = true;
          p.state = ProcState::Yielded;
          push_event(Event{std::max(p.now, ev.time), 0, Event::Kind::Resume, &p, {}});
        }
        break;
      }
      case Event::Kind::Resume: {
        if (p.state == ProcState::Finished) break;
        CCF_CHECK(p.state == ProcState::Yielded || p.state == ProcState::NotStarted,
                  "resume of proc " << p.id << " in unexpected state");
        p.now = std::max(p.now, ev.time);
        end_time_ = std::max(end_time_, p.now);
        if (p.state == ProcState::NotStarted) p.fiber = Fiber::for_process(this);
        p.state = ProcState::Running;
        switch_to(p);
        break;
      }
    }
  }

  unwind_all();  // a body threw: unwind the others
  if (first_error_) std::rethrow_exception(first_error_);
}

std::string VirtualCluster::journal_listing() const {
  std::ostringstream os;
  for (const auto& e : journal_) {
    os << e.time << " ";
    switch (e.kind) {
      case JournalEntry::Kind::Resume:
        os << "resume proc " << e.proc;
        break;
      case JournalEntry::Kind::Delivery:
        os << "deliver " << e.src << " -> " << e.proc << " tag " << e.tag << " (" << e.bytes
           << " B)";
        break;
      case JournalEntry::Kind::Deadline:
        os << "deadline proc " << e.proc;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccf::simtime
