// End-to-end coupled-run benchmark harness (see README.md).
//
// Writes the coupled programs' bodies itself and measures every layer from
// outside: it times its own calls into the public API (CoupledSystem::run,
// CouplingRuntime::commit / export_region / import_region / finalize),
// reads the counters the framework already returns (ProcStats, RepResult,
// TransportCounters) and getrusage. Every answer is checked against a
// match and a field value the harness computes from its own schedule.
//
//   perfbench_harness --workload fig4_sim|stream_shm|buddy_tcp --seed N
//                     --seconds S --trace 0|1 --out DIR [--t0 MONOTONIC_S]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace {

using ccf::core::CoupledSystem;
using ccf::core::CouplingRuntime;
using ccf::core::ExportRegionStats;
using ccf::core::Timestamp;
using ccf::dist::BlockDecomposition;
using ccf::dist::DistArray2D;
using ccf::dist::Index;
using ccf::runtime::ExecutionMode;
using ccf::runtime::ProcessContext;

double mono_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- inputs

/// The exported field f(t, r, c) = (t*a + r*b) + c*cc, with coefficients
/// drawn from the seed. Exporters fill it, importers re-evaluate it at the
/// matched timestamp with the identical expression, so equality is exact.
struct Field {
  double a = 1, b = 1, cc = 1;

  static Field from_seed(std::uint64_t seed) {
    auto next = [&seed] {  // splitmix64
      std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
    };
    Field f;
    f.a = 1.0 + next();
    f.b = 1e-3 * (1.0 + next());
    f.cc = 1e-6 * (1.0 + next());
    return f;
  }

  void fill(DistArray2D<double>& arr, Timestamp t) const {
    const auto& box = arr.local_box();
    double* p = arr.data();
    for (Index r = box.row_begin; r < box.row_end; ++r) {
      const double row = t * a + static_cast<double>(r) * b;
      for (Index c = box.col_begin; c < box.col_end; ++c) *p++ = row + static_cast<double>(c) * cc;
    }
  }

  /// Number of local elements that differ from f(t, ., .).
  std::uint64_t mismatches(const DistArray2D<double>& arr, Timestamp t) const {
    const auto& box = arr.local_box();
    const double* p = arr.data();
    std::uint64_t bad = 0;
    for (Index r = box.row_begin; r < box.row_end; ++r) {
      const double row = t * a + static_cast<double>(r) * b;
      for (Index c = box.col_begin; c < box.col_end; ++c) bad += *p++ != row + static_cast<double>(c) * cc;
    }
    return bad;
  }
};

/// One coupled program pair: F exports region r1 every step, U imports it
/// every `stride` time units under REGL with `tol`.
struct Shape {
  std::string label;
  ExecutionMode mode = ExecutionMode::VirtualTime;
  int F = 2, U = 1;
  Index rows = 256, cols = 256;
  int exports = 1000;
  double t0 = 0, dt = 1;  ///< export k (1-based) carries t0 + k*dt
  double stride = 1, tol = 0;
  bool help = true;
  std::size_t cap_snapshots = 0;  ///< FrameworkOptions::max_buffered_bytes, in local blocks
  /// Per-step compute: fast exporter ranks, p_s (rank F-1), importer per
  /// request and once before the first request. Seconds of virtual time
  /// in sim mode, clock-paced wall seconds otherwise.
  double fast_s = 0, slow_s = 0, import_s = 0, init_s = 0;
  std::string host_f = "node0", host_u = "node0";
  /// Sim mode: network latency (seconds) and bandwidth (bytes/s).
  double latency_s = 0, bandwidth = 110e6;
  bool fw_trace = false;  ///< record framework export events (fig4 tail check)

  Timestamp export_t(int k) const { return t0 + k * dt; }
  Timestamp request_x(int j) const { return stride * j; }
  int requests() const { return static_cast<int>(std::floor(export_t(exports) / stride)); }

  /// The REGL answer to each request j (index j-1), computed from the
  /// export schedule: the latest export t with x - tol <= t <= x.
  std::vector<std::optional<Timestamp>> expected_matches() const {
    std::vector<Timestamp> ts;
    for (int k = 1; k <= exports; ++k) ts.push_back(export_t(k));
    std::vector<std::optional<Timestamp>> out;
    for (int j = 1; j <= requests(); ++j) {
      const Timestamp x = request_x(j);
      const auto after = std::upper_bound(ts.begin(), ts.end(), x);
      if (after != ts.begin() && *(after - 1) >= x - tol) {
        out.emplace_back(*(after - 1));
      } else {
        out.emplace_back();
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------- rank logs

enum SpanKind : std::uint8_t { kBody, kCommit, kExport, kImport, kCompute, kFinalize, kSpanKinds };
const char* const kSpanNames[kSpanKinds] = {"body", "commit", "export_region", "import_region",
                                            "compute", "finalize"};

struct Span {
  double start = 0, end = 0;
  std::int32_t parent = -1;
  std::uint8_t kind = kBody;
};

/// What one rank's body measured. Forked ranks write it to a file at the
/// end of their body; in-process ranks write the launcher's slot directly.
struct RankLog {
  double body_start = 0, commit_end = 0, body_end = 0, compute_s = 0;
  std::uint64_t imports = 0, matched = 0, bad_match = 0, bad_values = 0, bytes_landed = 0;
  std::vector<double> export_us, import_us;
  std::vector<Span> spans;  ///< traced runs only; spans[0] is the body

  template <typename Fn>
  void io(Fn&& f) {
    for (double* p : {&body_start, &commit_end, &body_end, &compute_s}) f(p, sizeof *p);
    for (std::uint64_t* p : {&imports, &matched, &bad_match, &bad_values, &bytes_landed}) f(p, sizeof *p);
  }

  void save(const std::string& path) {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    if (fp == nullptr) throw std::runtime_error("cannot write " + path);
    io([fp](void* p, std::size_t n) { std::fwrite(p, 1, n, fp); });
    auto vec = [fp](auto& v) {
      const std::uint64_t n = v.size();
      std::fwrite(&n, sizeof n, 1, fp);
      std::fwrite(v.data(), sizeof(v[0]), v.size(), fp);
    };
    vec(export_us);
    vec(import_us);
    vec(spans);
    if (std::fclose(fp) != 0) throw std::runtime_error("cannot write " + path);
  }

  static RankLog load(const std::string& path) {
    std::FILE* fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) throw std::runtime_error("missing rank log " + path);
    RankLog log;
    bool ok = true;
    log.io([&](void* p, std::size_t n) { ok = ok && std::fread(p, 1, n, fp) == n; });
    auto vec = [&](auto& v) {
      std::uint64_t n = 0;
      ok = ok && std::fread(&n, sizeof n, 1, fp) == 1 && n < (1u << 26);
      if (!ok) return;
      v.resize(n);
      ok = std::fread(v.data(), sizeof(v[0]), n, fp) == n;
    };
    vec(log.export_us);
    vec(log.import_us);
    vec(log.spans);
    std::fclose(fp);
    if (!ok) throw std::runtime_error("truncated rank log " + path);
    std::filesystem::remove(path);
    return log;
  }
};

/// Times the harness's calls into the framework; keeps spans when traced.
class Recorder {
 public:
  Recorder(RankLog& log, bool traced) : log_(log), traced_(traced) {
    log_.body_start = mono_s();
    if (traced_) log_.spans.push_back(Span{log_.body_start, 0, -1, kBody});
  }

  template <typename Fn>
  double span(SpanKind kind, Fn&& fn) {
    const double s = mono_s();
    fn();
    const double e = mono_s();
    if (traced_) log_.spans.push_back(Span{s, e, 0, kind});
    return e - s;
  }

  void end() {
    log_.body_end = mono_s();
    if (traced_) log_.spans[0].end = log_.body_end;
  }

 private:
  RankLog& log_;
  bool traced_;
};

/// Synthetic compute: virtual seconds in sim mode, clock-paced spinning
/// otherwise (never ctx.compute(), whose spin calibration varies from
/// process to process).
void compute(ProcessContext& ctx, ExecutionMode mode, double seconds) {
  if (seconds <= 0) return;
  if (mode == ExecutionMode::VirtualTime) {
    ctx.compute(seconds);
    return;
  }
  const double until = mono_s() + seconds;
  while (mono_s() < until) {
  }
}

/// Pins the calling process (or thread) and what it creates later to `cpu`.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------- one coupled run

struct Arm {
  Shape shape;
  double construct_t = 0, run_start = 0, run_end = 0;
  double virtual_end = 0;
  std::vector<RankLog> f_logs, u_logs;
  std::vector<ExportRegionStats> f_stats;
  std::vector<ccf::core::TraceEvent> ps_events;  ///< when shape.fw_trace
  ccf::core::RepResult rep;
  ccf::transport::TransportCounters tc;

  double wall() const { return run_end - construct_t; }
  const ExportRegionStats& ps() const { return f_stats.back(); }
  const RankLog& ps_log() const { return f_logs.back(); }
};

/// `rank_cpus`, when not empty, holds one CPU per worker rank (F ranks,
/// then U ranks); each forked rank pins itself there before commit().
Arm run_arm(const Shape& s, const Field& field, bool traced, const std::string& out_dir,
            const std::vector<int>& rank_cpus) {
  using namespace ccf::core;
  Arm arm;
  arm.shape = s;
  arm.f_logs.resize(static_cast<std::size_t>(s.F));
  arm.u_logs.resize(static_cast<std::size_t>(s.U));

  Config config;
  config.add_program(ProgramSpec{"F", s.host_f, "/bin/F", s.F, {}});
  config.add_program(ProgramSpec{"U", s.host_u, "/bin/U", s.U, {}});
  config.add_connection(ConnectionSpec{"F", "r1", "U", "r1", MatchPolicy::REGL, s.tol, {}});

  const auto decomp_f = BlockDecomposition::make_grid(s.rows, s.cols, s.F);
  const auto decomp_u = BlockDecomposition::make_grid(s.rows, s.cols, s.U);
  const std::size_t block_bytes =
      static_cast<std::size_t>(decomp_f.box_of(s.F - 1).count()) * sizeof(double);

  ccf::runtime::ClusterOptions co;
  co.mode = s.mode;
  if (s.mode == ExecutionMode::VirtualTime) {
    co.latency = std::make_shared<const ccf::transport::BandwidthLatency>(s.latency_s, s.bandwidth);
  } else {
    co.transport.rendezvous_path = out_dir + "/rendezvous.txt";
    co.transport.shm_ring_bytes = std::max<std::size_t>(co.transport.shm_ring_bytes, 4 * block_bytes);
  }
  FrameworkOptions fw;
  fw.buddy_help = s.help;
  fw.trace = s.fw_trace;
  fw.max_buffered_bytes = s.cap_snapshots * block_bytes;

  const auto expected = s.expected_matches();
  const bool forked = s.mode == ExecutionMode::RealProcesses;
  auto finish = [&](RankLog& log, const char* prog, int rank) {
    if (forked) log.save(out_dir + "/rank_" + prog + "_" + std::to_string(rank) + ".bin");
  };

  arm.construct_t = mono_s();
  CoupledSystem system(config, co, fw);

  system.set_program_body("F", [&](CouplingRuntime& rt, ProcessContext& ctx) {
    if (!rank_cpus.empty()) pin_to(rank_cpus[static_cast<std::size_t>(rt.rank())]);
    RankLog& log = arm.f_logs[static_cast<std::size_t>(rt.rank())];
    Recorder rec(log, traced);
    log.export_us.reserve(static_cast<std::size_t>(s.exports));
    rt.define_export_region("r1", decomp_f);
    rec.span(kCommit, [&] { rt.commit(); });
    log.commit_end = mono_s();
    DistArray2D<double> data(decomp_f, rt.rank());
    const double step_s = rt.rank() == s.F - 1 ? s.slow_s : s.fast_s;
    for (int k = 1; k <= s.exports; ++k) {
      log.compute_s += rec.span(kCompute, [&] { compute(ctx, s.mode, step_s); });
      const Timestamp t = s.export_t(k);
      field.fill(data, t);
      log.export_us.push_back(1e6 * rec.span(kExport, [&] { rt.export_region("r1", t, data); }));
    }
    rec.span(kFinalize, [&] { rt.finalize(); });
    rec.end();
    finish(log, "F", rt.rank());
  });

  system.set_program_body("U", [&](CouplingRuntime& rt, ProcessContext& ctx) {
    if (!rank_cpus.empty()) pin_to(rank_cpus[static_cast<std::size_t>(s.F + rt.rank())]);
    RankLog& log = arm.u_logs[static_cast<std::size_t>(rt.rank())];
    Recorder rec(log, traced);
    log.import_us.reserve(static_cast<std::size_t>(s.requests()));
    rt.define_import_region("r1", decomp_u);
    rec.span(kCommit, [&] { rt.commit(); });
    log.commit_end = mono_s();
    DistArray2D<double> data(decomp_u, rt.rank());
    log.compute_s += rec.span(kCompute, [&] { compute(ctx, s.mode, s.init_s); });
    for (int j = 1; j <= s.requests(); ++j) {
      const Timestamp x = s.request_x(j);
      CouplingRuntime::ImportStatus st;
      log.import_us.push_back(1e6 * rec.span(kImport, [&] { st = rt.import_region("r1", x, data); }));
      ++log.imports;
      const auto& want = expected[static_cast<std::size_t>(j - 1)];
      if (st.ok() != want.has_value() || (want && st.matched != *want)) {
        ++log.bad_match;
      } else if (st.ok()) {
        ++log.matched;
        log.bytes_landed += data.local_bytes();
        log.bad_values += field.mismatches(data, st.matched);
      }
      log.compute_s += rec.span(kCompute, [&] { compute(ctx, s.mode, s.import_s); });
    }
    rec.span(kFinalize, [&] { rt.finalize(); });
    rec.end();
    finish(log, "U", rt.rank());
  });

  arm.run_start = mono_s();
  system.run();
  arm.run_end = mono_s();

  for (int r = 0; r < s.F; ++r) {
    if (forked) arm.f_logs[static_cast<std::size_t>(r)] =
        RankLog::load(out_dir + "/rank_F_" + std::to_string(r) + ".bin");
    arm.f_stats.push_back(system.proc_stats("F", r).exports.at(0));
  }
  for (int r = 0; r < s.U; ++r) {
    if (forked) arm.u_logs[static_cast<std::size_t>(r)] =
        RankLog::load(out_dir + "/rank_U_" + std::to_string(r) + ".bin");
  }
  if (s.fw_trace) arm.ps_events = system.trace_events("F", s.F - 1, "r1");
  arm.rep = system.rep_result("F");
  arm.tc = system.transport_counters();
  arm.virtual_end = system.end_time();
  return arm;
}

// ---------------------------------------------------------------- workloads

/// Sim-mode arms of the paper's Fig. 4 sweep. Compute is expressed in
/// units of one block copy C, as in the paper's regime analysis.
std::vector<Shape> fig4_arms() {
  std::vector<Shape> arms;
  for (int u : {4, 8, 16, 32}) {
    for (bool help : {true, false}) {
      Shape s;
      s.label = "U=" + std::to_string(u) + (help ? " help=on" : " help=off");
      s.mode = ExecutionMode::VirtualTime;
      s.F = 4;
      s.U = u;
      s.rows = s.cols = 64;
      s.exports = 1001;
      s.t0 = 0.6;
      s.stride = 20;
      s.tol = 2.5;
      s.help = help;
      const std::size_t block_bytes = static_cast<std::size_t>(s.rows * s.cols / s.F) * sizeof(double);
      const double c = ccf::runtime::CopyCostModel::pentium4_preset().cost_seconds(block_bytes);
      s.fast_s = 1.43 * c;
      s.slow_s = 3.57 * c;
      s.import_s = 1143.0 * c / u;
      s.init_s = 1143.0 * c / u;
      s.latency_s = 0.04 * c;
      s.fw_trace = u == 32 && help;
      arms.push_back(s);
    }
  }
  return arms;
}

Shape stream_shm_shape() {
  Shape s;
  s.label = "stream_shm";
  s.mode = ExecutionMode::RealProcesses;
  s.F = 2;
  s.U = 1;
  s.rows = s.cols = 256;
  s.exports = 3000;
  s.t0 = 0;
  s.stride = 1;
  s.tol = 0;
  s.cap_snapshots = 4;
  s.host_f = s.host_u = "node0";
  return s;
}

Shape buddy_tcp_shape() {
  Shape s;
  s.label = "buddy_tcp";
  s.mode = ExecutionMode::RealProcesses;
  s.F = 2;
  s.U = 1;
  s.rows = s.cols = 64;
  s.exports = 1001;
  s.t0 = 0.6;
  s.stride = 20;
  s.tol = 2.5;
  s.fast_s = 0.5e-3;
  s.slow_s = 1.25e-3;
  s.import_s = 0.5e-3;
  s.cap_snapshots = 40;
  s.host_f = "nodeA";
  s.host_u = "nodeB";
  return s;
}

std::vector<Shape> workload_arms(const std::string& name) {
  if (name == "fig4_sim") return fig4_arms();
  if (name == "stream_shm") return {stream_shm_shape()};
  if (name == "buddy_tcp") return {buddy_tcp_shape()};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------- checks

struct Checker {
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }

  /// Checks every arm's answers, contents and accounting.
  void arm(const Arm& a) {
    const Shape& s = a.shape;
    const std::string at = a.shape.label + ": ";
    std::uint64_t matched_requests = 0;
    for (const auto& m : s.expected_matches()) matched_requests += m.has_value();
    for (const RankLog& u : a.u_logs) {
      expect(u.imports == static_cast<std::uint64_t>(s.requests()), at + "import count");
      expect(u.bad_match == 0, at + "matched timestamp differs from the schedule's REGL match");
      expect(u.bad_values == 0, at + "imported values differ from f(matched, r, c)");
      expect(u.matched == matched_requests, at + "matched import count");
    }
    std::uint64_t delivered = 0;
    for (const auto& e : a.f_stats) {
      delivered += e.bytes_delivered;
      expect(e.exports == static_cast<std::uint64_t>(s.exports), at + "export count");
      expect(e.buffer.stores + e.buffer.skips == e.exports, at + "memcpys + skips != exports");
    }
    const std::uint64_t global_bytes = static_cast<std::uint64_t>(s.rows * s.cols) * sizeof(double);
    expect(delivered == matched_requests * global_bytes,
           at + "bytes_delivered != matched imports x global array bytes");
  }

  /// The paper's Fig. 4 properties over one sweep (arms in fig4_arms order).
  void fig4(const std::vector<Arm>& arms) {
    for (std::size_t i = 0; i + 1 < arms.size(); i += 2) {
      const Arm& on = arms[i];
      const Arm& off = arms[i + 1];
      std::uint64_t on_total = 0, off_total = 0;
      for (std::size_t r = 0; r < on.f_stats.size(); ++r) {
        on_total += on.f_stats[r].buffer.stores;
        off_total += off.f_stats[r].buffer.stores;
        if (on.shape.U <= 8) {
          expect(on.f_stats[r].buffer.stores == on.f_stats[r].exports &&
                     off.f_stats[r].buffer.stores == off.f_stats[r].exports,
                 on.shape.label + ": a slow importer must leave every export buffered");
        }
      }
      expect(on.ps().buffer.stores <= off.ps().buffer.stores && on_total <= off_total,
             on.shape.label + ": buddy-help copied more than the help-off arm");
      if (on.shape.fw_trace) {
        // Over the last five request periods p_s copies exactly the matches.
        const Shape& s = on.shape;
        const Timestamp hi = s.request_x(s.requests());
        const Timestamp lo = hi - 5 * s.stride;
        std::vector<Timestamp> want, got;
        for (const auto& m : s.expected_matches()) {
          if (m && *m > lo && *m <= hi) want.push_back(*m);
        }
        for (const auto& e : on.ps_events) {
          if (e.kind == ccf::core::TraceKind::ExportCopy && e.a > lo && e.a <= hi) got.push_back(e.a);
        }
        expect(!want.empty() && got == want,
               s.label + ": p_s does not end copying only the matched exports");
      }
    }
  }
};

/// The virtual (deterministic) outputs of a sim sweep, compared run to run.
std::vector<double> virtual_fingerprint(const std::vector<Arm>& arms) {
  std::vector<double> v;
  for (const Arm& a : arms) {
    v.push_back(a.virtual_end);
    for (const auto& e : a.f_stats) {
      double sum = 0;
      for (double x : e.export_seconds) sum += x;
      v.insert(v.end(), {sum, e.t_ub(), static_cast<double>(e.buffer.stores),
                         static_cast<double>(e.buffer.skips),
                         static_cast<double>(e.buddy_helps_received)});
    }
  }
  return v;
}

// ---------------------------------------------------------------- metrics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Usage {
  double user_s = 0, sys_s = 0, ctx = 0;
  static Usage self() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec); };
    return Usage{sec(ru.ru_utime), sec(ru.ru_stime), static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
  }
  Usage operator-(const Usage& o) const { return Usage{user_s - o.user_s, sys_s - o.sys_s, ctx - o.ctx}; }
};

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;  // KiB -> MB
}

/// One measured coupled run: a single arm, or the whole sweep for fig4_sim.
struct Run {
  std::vector<Arm> arms;
  Usage usage;
  bool traced = false;

  double makespan() const {
    double s = 0;
    for (const Arm& a : arms) s += a.wall();
    return s;
  }
};

/// Per-run values of every per-layer metric (summed over a sweep's arms).
std::map<std::string, double> layer_values(const Run& run) {
  std::map<std::string, double> m;
  double stores = 0, skips = 0, bytes = 0, peak = 0, allocs = 0, reuses = 0, evals = 0,
         mreq = 0, helps_recv = 0, stall = 0, delivered = 0, packed = 0, aliased = 0,
         npacked = 0, imports = 0, vps = 0, vtub = 0;
  double req = 0, ans = 0, helps = 0;
  ccf::transport::TransportCounters tc;
  double commit = 0, fin = 0, launch = 0, compute = 0, ps_span = 0, ps_export_us = 0, ps_exports = 0;
  for (const Arm& a : run.arms) {
    for (const auto& e : a.f_stats) {
      stores += static_cast<double>(e.buffer.stores);
      skips += static_cast<double>(e.buffer.skips);
      bytes += static_cast<double>(e.buffer.bytes_copied);
      peak = std::max(peak, static_cast<double>(e.buffer.peak_bytes));
      allocs += static_cast<double>(e.buffer.arena_allocs);
      reuses += static_cast<double>(e.buffer.arena_reuses);
      evals += static_cast<double>(e.matcher_evaluations);
      mreq += static_cast<double>(e.t_i.size());
      helps_recv += static_cast<double>(e.buddy_helps_received);
      stall += e.stall_seconds;
      delivered += static_cast<double>(e.bytes_delivered);
      packed += static_cast<double>(e.bytes_pack_copied);
      aliased += static_cast<double>(e.sends_aliased);
      npacked += static_cast<double>(e.sends_packed);
    }
    if (a.shape.mode == ExecutionMode::VirtualTime) {
      for (double x : a.ps().export_seconds) vps += x;
      vtub += a.ps().t_ub();
    }
    for (const RankLog& u : a.u_logs) imports += static_cast<double>(u.imports);
    req += static_cast<double>(a.rep.requests_forwarded);
    ans += static_cast<double>(a.rep.answers_sent);
    helps += static_cast<double>(a.rep.buddy_helps_sent);
    tc.frames_received += a.tc.frames_received;
    tc.shm_frames += a.tc.shm_frames;
    tc.shm_doorbell_writes += a.tc.shm_doorbell_writes;
    tc.shm_zero_copy_deliveries += a.tc.shm_zero_copy_deliveries;
    tc.tcp_frames += a.tc.tcp_frames;
    tc.tcp_read_syscalls += a.tc.tcp_read_syscalls;
    tc.tcp_write_syscalls += a.tc.tcp_write_syscalls;
    tc.epoll_waits += a.tc.epoll_waits;

    double arm_commit = 0, arm_fin = 0, first_body = a.run_end;
    auto scan = [&](const RankLog& log) {
      first_body = std::min(first_body, log.body_start);
      for (const Span& sp : log.spans) {
        if (sp.kind == kCommit) arm_commit = std::max(arm_commit, sp.end - sp.start);
        if (sp.kind == kFinalize) arm_fin = std::max(arm_fin, sp.end - sp.start);
      }
    };
    for (const RankLog& l : a.f_logs) scan(l);
    for (const RankLog& l : a.u_logs) scan(l);
    commit += arm_commit;
    fin += arm_fin;
    launch += first_body - a.run_start;
    compute += a.ps_log().compute_s;
    for (double x : a.ps_log().export_us) ps_export_us += x;
    ps_exports += static_cast<double>(a.ps_log().export_us.size());
    ps_span += a.ps_log().body_end - a.ps_log().body_start;
  }
  const double frames = static_cast<double>(tc.frames_received);
  m["simtime.user_s"] = run.usage.user_s;
  m["simtime.sys_s"] = run.usage.sys_s;
  m["simtime.ctx_switches"] = run.usage.ctx;
  m["sim.virtual_ps_export_s"] = vps;
  m["sim.virtual_tub_s"] = vtub;
  m["buffer.memcpys"] = stores;
  m["buffer.skips"] = skips;
  m["buffer.bytes_copied"] = bytes;
  m["buffer.peak_bytes"] = peak;
  m["buffer.arena_reuse_ratio"] = ratio(reuses, allocs + reuses);
  m["buffer.arena_frames"] = allocs + reuses;
  m["matcher.evaluations_per_request"] = ratio(evals, mreq);
  m["matcher.requests"] = mreq;
  m["rep.requests"] = req;
  m["rep.answers"] = ans;
  m["rep.helps"] = helps;
  m["core.buddy_helps"] = helps_recv;
  m["core.commit_s"] = commit;
  m["core.finalize_s"] = fin;
  m["core.stall_s"] = stall;
  m["runtime.launch_s"] = launch;
  m["dist.copies_per_delivered_byte"] = ratio(packed, delivered);
  m["dist.bytes_delivered"] = delivered;
  m["dist.sends_aliased_ratio"] = ratio(aliased, aliased + npacked);
  m["dist.sends"] = aliased + npacked;
  m["transport.frames_per_import"] = ratio(frames, imports);
  m["transport.imports"] = imports;
  m["transport.frames_received"] = frames;
  m["transport.shm_frames"] = static_cast<double>(tc.shm_frames);
  m["transport.shm_doorbells_per_frame"] =
      ratio(static_cast<double>(tc.shm_doorbell_writes), static_cast<double>(tc.shm_frames));
  m["transport.shm_zero_copy_ratio"] =
      ratio(static_cast<double>(tc.shm_zero_copy_deliveries), static_cast<double>(tc.shm_frames));
  m["transport.tcp_frames"] = static_cast<double>(tc.tcp_frames);
  m["transport.tcp_syscalls_per_frame"] =
      ratio(static_cast<double>(tc.tcp_read_syscalls + tc.tcp_write_syscalls),
            static_cast<double>(tc.tcp_frames));
  m["transport.epoll_waits_per_frame"] = ratio(static_cast<double>(tc.epoll_waits), frames);
  m["app.compute_s"] = compute;
  m["app.ps_makespan_s"] = ps_span;
  m["app.ps_export_us_mean"] = ratio(ps_export_us, ps_exports);
  m["app.overhead_s"] = ps_span - compute;

  std::vector<double> exp_us, imp_us;
  for (const Arm& a : run.arms) {
    for (const auto* logs : {&a.f_logs, &a.u_logs}) {
      for (const RankLog& l : *logs) {
        for (const Span& sp : l.spans) {
          if (sp.kind == kExport) exp_us.push_back(1e6 * (sp.end - sp.start));
          if (sp.kind == kImport) imp_us.push_back(1e6 * (sp.end - sp.start));
        }
      }
    }
  }
  m["core.export_us_p50"] = percentile(exp_us, 0.50);
  m["core.export_us_p99"] = percentile(exp_us, 0.99);
  m["core.import_us_p99"] = percentile(imp_us, 0.99);
  return m;
}

/// What the launcher keeps of one measured run. Whole runs are dropped
/// once summarized, so the launcher's memory (which every forked rank
/// inherits, and peak_rss_MB sees) does not grow with the run count.
struct Summary {
  bool traced = false;
  std::uint64_t attempted = 0;
  double makespan = 0, delivered_mbps = 0, ps_export_mean_us = 0, import_p50_us = 0, ps_copies = 0;
  std::map<std::string, double> layers;  ///< traced runs only
};

Summary summarize(const Run& run) {
  Summary sum;
  sum.traced = run.traced;
  sum.makespan = run.makespan();
  double bytes = 0, ps_total = 0, ps_n = 0;
  std::vector<double> import_us;
  for (const Arm& a : run.arms) {
    for (const RankLog& u : a.u_logs) {
      sum.attempted += u.imports;
      bytes += static_cast<double>(u.bytes_landed);
      import_us.insert(import_us.end(), u.import_us.begin(), u.import_us.end());
    }
    for (double x : a.ps_log().export_us) ps_total += x;
    ps_n += static_cast<double>(a.ps_log().export_us.size());
    sum.ps_copies += static_cast<double>(a.ps().buffer.stores);
  }
  sum.delivered_mbps = bytes / 1e6 / sum.makespan;
  sum.ps_export_mean_us = ps_total / ps_n;
  sum.import_p50_us = median(std::move(import_us));
  if (run.traced) sum.layers = layer_values(run);
  return sum;
}

/// Chrome trace-event JSON of one run's spans (one pid per arm and program).
void write_chrome_trace(const Run& run, const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) throw std::runtime_error("cannot write " + path);
  double origin = run.arms.front().construct_t;
  std::fprintf(fp, "{\"traceEvents\":[\n");
  bool first = true;
  int pid = 0;
  for (const Arm& a : run.arms) {
    for (int prog = 0; prog < 2; ++prog, ++pid) {
      const auto& logs = prog == 0 ? a.f_logs : a.u_logs;
      std::fprintf(fp, "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s %s\"}}",
                   first ? "" : ",\n", pid, a.shape.label.c_str(), prog == 0 ? "F" : "U");
      first = false;
      for (std::size_t r = 0; r < logs.size(); ++r) {
        for (const Span& sp : logs[r].spans) {
          std::fprintf(fp,
                       ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,\"ts\":%.3f,"
                       "\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                       kSpanNames[sp.kind], pid, r, 1e6 * (sp.start - origin),
                       1e6 * (sp.end - sp.start), sp.parent);
        }
      }
    }
  }
  std::fprintf(fp, "\n]}\n");
  if (std::fclose(fp) != 0) throw std::runtime_error("cannot write " + path);
}

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

struct Args {
  std::string workload, out = ".bench_out";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double t0 = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--t0") a.t0 = std::stod(v);
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.c_str(), metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int bench(const Args& args) {
  const double start = args.t0 > 0 ? args.t0 : mono_s();
  for (const char* var : {"CCF_MODE", "CCF_TRANSPORT", "CCF_NODES"}) unsetenv(var);
  const std::vector<Shape> shapes = workload_arms(args.workload);
  const bool sim = shapes.front().mode == ExecutionMode::VirtualTime;
  // Pinning (README, "Steadiness rules"): the sim executor runs one
  // simulated process at a time, so each sweep runs the whole process on
  // one CPU. Forked ranks get one CPU each; the launcher and the reps it
  // forks share the last.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> rank_cpus;
  if (sim && !cpus.empty()) {
    pin_to(cpus.back());
  } else if (!sim && cpus.size() > static_cast<std::size_t>(shapes.front().F + shapes.front().U)) {
    rank_cpus.assign(cpus.begin(), cpus.begin() + shapes.front().F + shapes.front().U);
    pin_to(cpus.back());
  }
  std::filesystem::create_directories(args.out);
  const Field field = Field::from_seed(args.seed);

  Checker check;
  std::vector<double> fingerprint;
  auto run_once = [&](bool traced) {
    Run run;
    run.traced = traced;
    const Usage before = Usage::self();
    for (const Shape& s : shapes) {
      run.arms.push_back(run_arm(s, field, traced, args.out, rank_cpus));
      check.arm(run.arms.back());
    }
    run.usage = Usage::self() - before;
    if (sim) {
      check.fig4(run.arms);
      const auto fp = virtual_fingerprint(run.arms);
      if (fingerprint.empty()) fingerprint = fp;
      check.expect(fp == fingerprint, "two sim sweeps gave different virtual numbers");
    }
    return run;
  };

  // Warm-up: one full discarded coupled run. Its first arm is the cold
  // set-up, timed from the process's start.
  double setup_s = 0, warm_makespan = 0;
  {
    const Run warm = run_once(false);
    warm_makespan = warm.makespan();
    const Arm& a = warm.arms.front();
    for (const RankLog& l : a.f_logs) setup_s = std::max(setup_s, l.commit_end - start);
    for (const RankLog& l : a.u_logs) setup_s = std::max(setup_s, l.commit_end - start);
  }

  // Measured runs: whole coupled runs until the time is up (at least
  // three); a traced invocation alternates untraced and traced runs.
  std::vector<Summary> runs;
  Run last_traced;
  const double measure_start = mono_s();
  while (runs.size() < 3 || mono_s() - measure_start < args.seconds) {
    // Measured sweeps take the allowed CPUs in turn (a traced invocation's
    // untraced/traced pair shares one): the shared host keeps some CPUs
    // busier than others, and which ones changes over minutes.
    if (sim && !cpus.empty()) pin_to(cpus[runs.size() / (args.trace ? 2 : 1) % cpus.size()]);
    Run run = run_once(args.trace && runs.size() % 2 == 1);
    const Summary& sum = runs.emplace_back(summarize(run));
    std::printf("run %2zu%s: makespan %.4f s, p_s export mean %.3f us, p_s memcpys %.0f\n",
                runs.size() - 1, sum.traced ? " (traced)" : "", sum.makespan,
                sum.ps_export_mean_us, sum.ps_copies);
    if (run.traced) last_traced = std::move(run);
  }

  std::uint64_t attempted = 0;
  std::vector<double> makespans, traced_makespans, delivered, import_p50;
  std::map<std::string, std::vector<double>> layers;
  for (const Summary& sum : runs) {
    attempted += sum.attempted;
    if (sum.traced) {
      traced_makespans.push_back(sum.makespan);
      for (const auto& [k, v] : sum.layers) layers[k].push_back(v);
      continue;
    }
    makespans.push_back(sum.makespan);
    delivered.push_back(sum.delivered_mbps);
    import_p50.push_back(sum.import_p50_us);
  }

  // A fig4_sim sweep repeats the same deterministic work, so its fastest
  // sweep is the cost of that work with the least interference from the
  // shared host; real-mode runs differ in timing, so they report the
  // median run (README, "Steadiness rules").
  auto best_low = [sim](const std::vector<double>& v) {
    return sim && !v.empty() ? *std::min_element(v.begin(), v.end()) : median(v);
  };
  auto best_high = [sim](const std::vector<double>& v) {
    return sim && !v.empty() ? *std::max_element(v.begin(), v.end()) : median(v);
  };

  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  if (!args.trace) {
    out = {{"setup_s", {setup_s, "s"}},
           {"makespan_s", {best_low(makespans), "s"}},
           {"delivered_MBps", {best_high(delivered), "MB/s"}},
           {"import_us_p50", {best_low(import_p50), "us"}},
           {"peak_rss_MB", {peak_rss_mb(), "MB"}}};
  } else {
    write_chrome_trace(last_traced, args.out + "/trace.json");
    auto unit_of = [](const std::string& k) -> std::string {
      if (k.rfind("sim.virtual", 0) == 0) return "virtual_s";
      if (k.size() > 3 && k.compare(k.size() - 3, 3, "_us") == 0) return "us";
      if (k.find("_us_") != std::string::npos) return "us";
      if (k.size() > 2 && k.compare(k.size() - 2, 2, "_s") == 0) return "s";
      if (k.find("ratio") != std::string::npos || k.find("_per_") != std::string::npos) return "ratio";
      if (k.find("bytes") != std::string::npos) return "bytes";
      return "count";
    };
    for (const auto& [k, v] : layers) out.push_back({k, {median(v), unit_of(k)}});
    out.push_back({"trace.untraced_makespan_s", {best_low(makespans), "s"}});
    out.push_back({"trace.traced_makespan_s", {best_low(traced_makespans), "s"}});
    out.push_back({"trace.overhead_ratio", {ratio(best_low(traced_makespans), best_low(makespans)), "ratio"}});
  }

  std::printf("workload %s: %zu measured runs (%zu traced), warm-up %.3f s, seed %llu\n",
              args.workload.c_str(), runs.size(), traced_makespans.size(), warm_makespan,
              static_cast<unsigned long long>(args.seed));
  for (const auto& f : check.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  for (const auto& [k, v] : out) std::printf("  %-36s %.6g %s\n", k.c_str(), v.first, v.second.c_str());
  print_json(check.failures.empty(), attempted, 0, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
