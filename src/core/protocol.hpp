// Wire protocol of the coupling framework.
//
// Control traffic flows through the per-program representative processes
// (paper §4): import requests travel importer-proc -> importer-rep ->
// exporter-rep -> exporter-procs; responses travel back the same path; the
// buddy-help answer goes exporter-rep -> slow exporter procs. Data pieces
// travel proc-to-proc with per-(connection, request) tags.
//
// Tag layout (framework tags stay below the collectives tag base 1<<24):
//   0x100000..0x10000F  control messages (kind in the tag)
//   0x200000..0x23FFFF  data pieces: 0x200000 + conn*4096 + (seq mod 4096)
#pragma once

#include <cstdint>
#include <vector>

#include "core/matcher.hpp"
#include "transport/message.hpp"
#include "transport/serialize.hpp"

namespace ccf::core {

using transport::Payload;
using transport::Tag;

inline constexpr Tag kTagImportRequest = 0x100000;   ///< importer rank0 -> own rep
inline constexpr Tag kTagRequestForward = 0x100001;  ///< importer rep -> exporter rep
inline constexpr Tag kTagProcForward = 0x100002;     ///< exporter rep -> exporter procs
inline constexpr Tag kTagProcResponse = 0x100003;    ///< exporter proc -> own rep
inline constexpr Tag kTagRepAnswer = 0x100004;       ///< exporter rep -> importer rep
inline constexpr Tag kTagConnFinishedAck = 0x100005;  ///< exporter rep -> importer rep
                                                      ///< (failure-tolerant mode only)
inline constexpr Tag kTagImportAnswerBase = 0x110000;  ///< +conn: importer rep -> procs
inline constexpr Tag kTagBuddyHelp = 0x100006;       ///< exporter rep -> pending procs
inline constexpr Tag kTagConnFinished = 0x100007;    ///< importer rep -> exporter rep
inline constexpr Tag kTagImporterConnDone = 0x100008;  ///< importer rank0 -> own rep
inline constexpr Tag kTagShutdownProc = 0x100009;    ///< rep -> own procs
inline constexpr Tag kTagConnClosed = 0x10000D;      ///< rep -> own procs: importer left
inline constexpr Tag kTagRegionDefs = 0x10000A;      ///< rank0 -> own rep
inline constexpr Tag kTagPeerRegionMeta = 0x10000B;  ///< rep -> peer rep
inline constexpr Tag kTagRegionMetaBcast = 0x10000C; ///< rep -> own procs
inline constexpr Tag kTagRepHeartbeat = 0x10000E;    ///< rep -> own procs: liveness beacon
inline constexpr Tag kTagMetaNudge = 0x10000F;       ///< proc -> own rep: resend meta bcast
inline constexpr Tag kTagMetaAck = 0x100010;         ///< proc -> own rep: meta bcast received
inline constexpr Tag kTagPeerMetaAck = 0x100011;     ///< rep -> peer rep: peer meta received
// BufferPressure (docs/MEMORY.md; collective backpressure, Property 1
// aggregation): exporter procs report watermark crossings to their rep,
// which aggregates program-wide (any rank over the high watermark puts the
// program under pressure) and notifies the importer side per connection.
inline constexpr Tag kTagProcPressure = 0x100012;    ///< exporter proc -> own rep
inline constexpr Tag kTagPressure = 0x100013;        ///< exporter rep -> importer rep
inline constexpr Tag kTagPressureBcast = 0x100014;   ///< importer rep -> own procs
// Aggregation tree (docs/PROTOCOL.md, "Hierarchical representatives"):
// batched control frames carrying many per-rank entries in one wire
// message. Up-frames travel child -> sub-rep -> rep, down-frames travel
// rep -> sub-rep -> procs. Deliberately placed inside the control-tag
// window [kTagImportRequest, kTagDataBase) so chaos schedules restricted
// to the control plane fault them too.
inline constexpr Tag kTagTreeUp = 0x100015;          ///< sub-rep -> parent/rep: batched frame
inline constexpr Tag kTagTreeDown = 0x100016;        ///< rep -> sub-rep: batched frame
// Acknowledged shutdown (failure-tolerant flat layouts, docs/PROTOCOL.md).
inline constexpr Tag kTagShutdownAck = 0x100017;     ///< proc -> own rep: shutdown received
inline constexpr Tag kTagShutdownRelease = 0x100018; ///< rep -> own proc: ack received

inline constexpr Tag kTagDataBase = 0x200000;

/// Tag of the data pieces for request `seq` on connection `conn`.
inline Tag data_tag(int conn, std::uint32_t seq) {
  return kTagDataBase + static_cast<Tag>(conn) * 4096 + static_cast<Tag>(seq % 4096);
}

/// Tag of the final import answer broadcast for connection `conn`.
inline Tag import_answer_tag(int conn) { return kTagImportAnswerBase + static_cast<Tag>(conn); }

/// An import request / its forwarded forms.
struct RequestMsg {
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;  ///< per-connection, assigned by the importer
  Timestamp requested = 0;

  Payload encode() const;
  static RequestMsg decode(const Payload& p);
};

/// One process's answer to a forwarded request. A process may answer the
/// same request twice: first PENDING, later a decisive update.
struct ResponseMsg {
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;
  MatchResult result = MatchResult::Pending;
  Timestamp matched = kNeverExported;
  Timestamp latest_exported = kNeverExported;

  Payload encode() const;
  static ResponseMsg decode(const Payload& p);
};

/// Final answer (rep -> importer rep, rep -> importer procs) and the
/// buddy-help message (rep -> pending exporter procs) share one shape.
struct AnswerMsg {
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;
  Timestamp requested = 0;
  MatchResult result = MatchResult::NoMatch;
  Timestamp matched = kNeverExported;

  Payload encode() const;
  static AnswerMsg decode(const Payload& p);
};

/// Connection lifecycle notifications (ConnFinished / ImporterConnDone).
struct ConnMsg {
  std::uint32_t conn = 0;

  Payload encode() const;
  static ConnMsg decode(const Payload& p);
};

/// BufferPressure level change. proc -> rep: `conn` is unused (pressure is
/// per-process, spanning regions) and set to 0. rep -> rep and rep ->
/// procs: `conn` names the connection whose exporter changed level.
struct PressureMsg {
  std::uint32_t conn = 0;
  std::uint8_t level = 0;  ///< 1 = under pressure, 0 = cleared

  Payload encode() const;
  static PressureMsg decode(const Payload& p);
};

/// Entry of a batched tree control frame. `rank` is the originating worker
/// rank (up-frames) or the target worker rank / kFrameBroadcast
/// (down-frames); `tag` and `payload` are the plain control message the
/// entry stands for. Decoded payloads are zero-copy slices of the frame.
inline constexpr std::int32_t kFrameBroadcast = -1;

struct FrameEntry {
  std::int32_t rank = 0;
  Tag tag = 0;
  Payload payload;
};

/// Packs entries into one wire frame: [u32 n] then per entry
/// [i32 rank][u32 tag][u32 len][len bytes].
Payload encode_frame(const std::vector<FrameEntry>& entries);

/// Unpacks a frame; each entry's payload aliases `p` (no copies).
std::vector<FrameEntry> decode_frame(const Payload& p);

/// Region geometry, exchanged between reps at commit time so each side can
/// build the redistribution schedule from metadata alone.
struct RegionMeta {
  std::string name;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int32_t proc_rows = 0;
  std::int32_t proc_cols = 0;

  void encode_into(transport::Writer& w) const;
  static RegionMeta decode_from(transport::Reader& r);
};

}  // namespace ccf::core
