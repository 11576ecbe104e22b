#ifndef ORPHEUS_NET_WIRE_H_
#define ORPHEUS_NET_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/types.h"
#include "minidb/table.h"
#include "net/socket.h"
#include "session/session_api.h"
#include "storage/format.h"

namespace orpheus::net {

/// The orpheusd wire protocol (DESIGN.md §14). Every message is ONE frame
/// in the storage/format.h layout —
///   u32 payload_size | u32 crc32c(type byte + payload) | u8 type | payload
/// — with the header built by the same FrameHeader/FrameChecksum primitives
/// the WAL uses. A frame is sent as a gather write of header and payload
/// and received straight into the caller's buffer, so the payload is never
/// copied on either side. Net message types live in a disjoint range (>= 32) from the
/// storage FrameTypes (1..5): feeding a WAL at the server, or a snapshot
/// at a client, fails loudly on the first frame.
///
/// Connection lifecycle:
///   client: Hello ->  server: HelloAck (version check; error closes)
///   client: Request -> server: Response   (strict one-in-one-out)
/// Requests carry an idempotency stamp (client_uuid from the Hello, plus a
/// per-client request_seq) so the server can deduplicate retried commits,
/// and an acked_seq high-water mark that lets the server prune its dedup
/// window (DESIGN.md §14.4).

inline constexpr char kNetMagic[9] = "ORPHNET1";  // 8 bytes + NUL
/// v3: a commit ships a changeset, not the whole table (DESIGN.md §14.1);
/// v2 (full-table commits) and v1 (row-major tables) peers are refused.
inline constexpr uint32_t kProtocolVersion = 3;

/// Upper bound on one frame's payload; a stream claiming more is treated
/// as corrupt rather than trusted with an allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Net message types. Cast through storage::FrameType on the wire (the
/// frame codec checksums the raw byte and does not interpret it).
enum class MsgType : uint8_t {
  kHello = 32,
  kHelloAck = 33,
  kRequest = 34,
  kResponse = 35,
};

enum class Op : uint8_t {
  kOpen = 1,       // open a session on a CVD -> sid + watermark
  kCheckout = 2,   // materialize versions into a named table -> the table
  kCommit = 3,     // ship a checkout's changeset, commit it -> CommitOutcome
  kRefresh = 4,    // re-pin the session watermark -> new watermark
  kLs = 5,         // list served CVDs -> summaries
  kClose = 6,      // close a session (releases its pinned state)
  kHeartbeat = 7,  // renew the session lease -> remaining lease ms
};

const char* OpName(Op op);

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct Hello {
  std::string magic;  // must equal kNetMagic
  uint32_t protocol_version = kProtocolVersion;
  std::string client_uuid;  // idempotency identity, stable across reconnects
};

struct HelloAck {
  uint32_t protocol_version = kProtocolVersion;
  std::string server_id;
  bool degraded = false;  // repository refuses commits (read-only)
  // Non-OK: the server refuses the connection (bad magic / version
  // mismatch) and closes after sending this.
  uint8_t code = 0;  // StatusCode as u8; 0 = OK
  std::string message;
};

struct Request {
  Op op = Op::kOpen;
  uint64_t request_seq = 0;  // per-client, strictly increasing
  uint64_t acked_seq = 0;    // client has the response for every seq <= this
  uint64_t sid = 0;          // session id (0 for kOpen / kLs)
  int64_t deadline_ms = 0;   // client's remaining budget (0 = server default)
  std::string cvd;           // kOpen
  std::string table_name;    // kCheckout / kCommit
  std::vector<core::VersionId> vids;  // kCheckout
  std::string message;                // kCommit
  std::string author;                 // kCommit
  // kCommit: the changeset against the session's checkout of table_name —
  // the checkout rids no unchanged row holds (sorted), and a table of the
  // changed rows (`_rid` kept, row order preserved). The server carries
  // the unchanged rows' records without a scan. Encoding reads `table`,
  // which the sender keeps alive through the encode (it is not copied);
  // decoding allocates the table into `decoded_table` and points `table`
  // at it.
  std::vector<core::RecordId> deleted;
  const minidb::Table* table = nullptr;
  std::unique_ptr<minidb::Table> decoded_table;
};

/// One served CVD, for kLs.
using session::CvdSummary;

struct Response {
  uint64_t request_seq = 0;  // echo of the request's stamp
  uint8_t code = 0;          // StatusCode as u8; 0 = OK
  bool retryable = false;    // transient per the SERVER (client obeys this)
  std::string message;
  // Payloads (valid only on OK, shaped by `op`):
  Op op = Op::kOpen;
  uint64_t sid = 0;                          // kOpen
  core::VersionId watermark = 0;             // kOpen / kRefresh
  // kCheckout: the decoded table. The server encodes its reply straight
  // from the version's rows (EncodeCheckoutResponse), never from a table.
  std::unique_ptr<minidb::Table> decoded_table;
  session::CommitOutcome outcome;            // kCommit
  std::vector<CvdSummary> cvds;              // kLs
  int64_t lease_ms = 0;                      // kHeartbeat

  bool ok() const { return code == 0; }
  /// Rebuild a Status from code+message (OK when code == 0).
  Status ToStatus() const;
  /// Fill code/message from a Status, marking it retryable or definitive.
  void SetStatus(const Status& s, bool transient);
};

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

std::string EncodeHello(const Hello& hello);
Result<Hello> DecodeHello(std::string_view payload);

std::string EncodeHelloAck(const HelloAck& ack);
Result<HelloAck> DecodeHelloAck(std::string_view payload);

std::string EncodeRequest(const Request& req);
Result<Request> DecodeRequest(std::string_view payload);

/// Any response but an OK kCheckout one, whose rows only
/// EncodeCheckoutResponse can supply.
std::string EncodeResponse(const Response& resp);
/// An OK kCheckout response whose table is the selection `sel`, named
/// `table_name`: the bytes of the response carrying
/// `std::move(sel).Materialize(table_name)`, without that copy.
std::string EncodeCheckoutResponse(const Response& resp,
                                   const core::RowSelection& sel,
                                   std::string_view table_name);
Result<Response> DecodeResponse(std::string_view payload);

/// Columnar table codec (DESIGN.md §14.1): the schema and row count, then
/// one section per column — numeric columns as raw little-endian arrays,
/// strings as a length array plus bytes, int arrays as rid-list payloads.
/// DecodeTable refuses (DataLoss) a row count the remaining bytes cannot
/// hold, so a short hostile payload cannot claim a huge table.
/// A NULL cell encodes as a zero slot.
void EncodeTable(const minidb::Table& table, storage::Encoder* enc);
/// The codec of `sel` as the table `name`: byte for byte what EncodeTable
/// writes for `std::move(sel).Materialize(name)`, gathered from the source
/// table column by column without building that copy.
void EncodeSelection(const core::RowSelection& sel, std::string_view name,
                     storage::Encoder* enc);
Result<minidb::Table> DecodeTable(storage::Decoder* dec);

// ---------------------------------------------------------------------------
// Framed I/O over a Socket
// ---------------------------------------------------------------------------

/// Send one message as one frame. Unavailable on connection failure,
/// DeadlineExceeded if the socket blocks past the deadline.
Status SendMessage(Socket* sock, MsgType type, std::string_view payload,
                   const Deadline& deadline);

/// Receive one message. `idle_deadline` bounds waiting for the FIRST byte
/// (an expired idle wait returns DeadlineExceeded with the stream intact —
/// safe to call again); once a frame has started, a fixed completion bound
/// applies and a tear mid-frame is Unavailable (stream desynced — the
/// caller must drop the connection). A checksum mismatch is Unavailable
/// too: on a stream it means bytes were mangled in transit, which retry
/// over a fresh connection may fix.
Status RecvMessage(Socket* sock, MsgType* type, std::string* payload,
                   const Deadline& idle_deadline);

}  // namespace orpheus::net

#endif  // ORPHEUS_NET_WIRE_H_
