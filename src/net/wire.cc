#include "net/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "minidb/schema.h"

namespace orpheus::net {

using storage::Decoder;
using storage::Encoder;

namespace {

/// Statuses reconstructed from the wire reuse the StatusCode numbering; a
/// peer sending an out-of-range byte gets mapped to Internal.
Status MakeStatus(uint8_t code, const std::string& message) {
  if (code == 0) return Status::OK();
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case StatusCode::kConstraintViolation:
      return Status::ConstraintViolation(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kNotSupported:
      return Status::NotSupported(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    default:
      return Status::Internal(message);
  }
}

void EncodeConflict(const session::MergeConflict& c, Encoder* enc) {
  enc->PutString(c.key);
  enc->PutString(c.attribute);
  enc->PutString(c.base);
  enc->PutString(c.ours);
  enc->PutString(c.theirs);
}

Result<session::MergeConflict> DecodeConflict(Decoder* dec) {
  session::MergeConflict c;
  ORPHEUS_ASSIGN_OR_RETURN(c.key, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.attribute, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.base, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.ours, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.theirs, dec->GetString());
  return c;
}

void EncodeOutcome(const session::CommitOutcome& out, Encoder* enc) {
  enc->PutI32(out.vid);
  enc->PutI32(out.merged_vid);
  enc->PutI32(out.reconciled_with);
  enc->PutU8(out.reconciled ? 1 : 0);
  enc->PutU32(static_cast<uint32_t>(out.conflicts.size()));
  for (const session::MergeConflict& c : out.conflicts) {
    EncodeConflict(c, enc);
  }
}

Result<session::CommitOutcome> DecodeOutcome(Decoder* dec) {
  session::CommitOutcome out;
  ORPHEUS_ASSIGN_OR_RETURN(out.vid, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(out.merged_vid, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(out.reconciled_with, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t reconciled, dec->GetU8());
  out.reconciled = reconciled != 0;
  // A conflict is at least its five string lengths.
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t n, dec->GetCount(5 * sizeof(uint32_t)));
  out.conflicts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(session::MergeConflict c, DecodeConflict(dec));
    out.conflicts.push_back(std::move(c));
  }
  return out;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kCheckout: return "checkout";
    case Op::kCommit: return "commit";
    case Op::kRefresh: return "refresh";
    case Op::kLs: return "ls";
    case Op::kClose: return "close";
    case Op::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

Status Response::ToStatus() const {
  return MakeStatus(code, message);
}

void Response::SetStatus(const Status& s, bool transient) {
  code = static_cast<uint8_t>(s.code());
  message = std::string(s.message());
  retryable = transient;
}

// ---------------------------------------------------------------------------
// Hello / HelloAck
// ---------------------------------------------------------------------------

std::string EncodeHello(const Hello& hello) {
  Encoder enc;
  enc.PutString(hello.magic);
  enc.PutU32(hello.protocol_version);
  enc.PutString(hello.client_uuid);
  return enc.Take();
}

Result<Hello> DecodeHello(std::string_view payload) {
  Decoder dec(payload);
  Hello hello;
  ORPHEUS_ASSIGN_OR_RETURN(hello.magic, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(hello.protocol_version, dec.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(hello.client_uuid, dec.GetString());
  return hello;
}

std::string EncodeHelloAck(const HelloAck& ack) {
  Encoder enc;
  enc.PutU32(ack.protocol_version);
  enc.PutString(ack.server_id);
  enc.PutU8(ack.degraded ? 1 : 0);
  enc.PutU8(ack.code);
  enc.PutString(ack.message);
  return enc.Take();
}

Result<HelloAck> DecodeHelloAck(std::string_view payload) {
  Decoder dec(payload);
  HelloAck ack;
  ORPHEUS_ASSIGN_OR_RETURN(ack.protocol_version, dec.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(ack.server_id, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t degraded, dec.GetU8());
  ack.degraded = degraded != 0;
  ORPHEUS_ASSIGN_OR_RETURN(ack.code, dec.GetU8());
  ORPHEUS_ASSIGN_OR_RETURN(ack.message, dec.GetString());
  return ack;
}

// ---------------------------------------------------------------------------
// Table codec
// ---------------------------------------------------------------------------

namespace {

using minidb::Column;
using minidb::ValueType;

static_assert(std::endian::native == std::endian::little,
              "numeric columns cross the wire as raw little-endian arrays");

/// Fewest payload bits one row costs in a column of `type` (a NULL-typed
/// column carries only its validity bit).
uint64_t MinBitsPerRow(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 64;
    case ValueType::kString:
      return 32;  // u32 length
    case ValueType::kIntArray:
      return 40;  // rid-list tag + u32 count or blob length
  }
  return 1;
}

/// The cells of a numeric column at `rows[0..n)` (every row when `rows` is
/// null), a NULL cell as a zero slot.
template <typename T>
void PutNumericCells(const Column& col, const std::vector<T>& data,
                     const uint32_t* rows, size_t n, bool has_nulls,
                     Encoder* enc) {
  if (rows == nullptr && !has_nulls) {
    enc->PutBytes(data.data(), n * sizeof(T));
    return;
  }
  char* dst = enc->Extend(n * sizeof(T));
  if (!has_nulls) {
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(dst + i * sizeof(T), &data[rows[i]], sizeof(T));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows != nullptr ? rows[i] : i;
    const T v = col.IsNull(r) ? T{} : data[r];
    std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
  }
}

/// One column section over `rows[0..n)` (every row when `rows` is null). A
/// NULL cell encodes as a zero slot whatever its physical slot holds, so a
/// gathered column's bytes equal those of its copy.
void EncodeColumn(const Column& col, const uint32_t* rows, size_t n,
                  Encoder* enc) {
  auto row = [rows](size_t i) -> size_t {
    return rows != nullptr ? rows[i] : i;
  };
  enc->PutU8(static_cast<uint8_t>(col.type()));
  bool has_nulls = false;
  for (size_t i = 0; i < n && !has_nulls; ++i) has_nulls = col.IsNull(row(i));
  enc->PutU8(has_nulls ? 1 : 0);
  if (has_nulls) {
    char* validity = enc->Extend((n + 7) / 8);
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(row(i))) {
        validity[i / 8] |= static_cast<char>(1 << (i % 8));
      }
    }
  }
  switch (col.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutNumericCells(col, col.int_data(), rows, n, has_nulls, enc);
      break;
    case ValueType::kDouble:
      PutNumericCells(col, col.double_data(), rows, n, has_nulls, enc);
      break;
    case ValueType::kString: {
      char* lengths = enc->Extend(n * sizeof(uint32_t));
      size_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        const size_t r = row(i);
        const uint32_t len =
            has_nulls && col.IsNull(r)
                ? 0
                : static_cast<uint32_t>(col.GetString(r).size());
        std::memcpy(lengths + i * sizeof(uint32_t), &len, sizeof(len));
        total += len;
      }
      char* bytes = enc->Extend(total);
      for (size_t i = 0; i < n; ++i) {
        const size_t r = row(i);
        if (has_nulls && col.IsNull(r)) continue;
        const std::string& v = col.GetString(r);
        std::memcpy(bytes, v.data(), v.size());
        bytes += v.size();
      }
      break;
    }
    case ValueType::kIntArray:
      for (size_t i = 0; i < n; ++i) {
        const size_t r = row(i);
        if (col.IsNull(r)) {
          storage::EncodeRidList({}, enc);
        } else {
          storage::EncodeIntArray(col.GetValue(r), enc);
        }
      }
      break;
  }
}

/// The table codec over rows `rows[0..nrows)` (every row when null) and
/// columns `cols` (every column when null) of `src`, named `name`.
void EncodeRows(const minidb::Table& src, const uint32_t* rows, size_t nrows,
                const std::vector<int>* cols, std::string_view name,
                Encoder* enc) {
  const size_t ncols = cols != nullptr ? cols->size() : src.num_columns();
  auto col_at = [cols](size_t j) -> size_t {
    return cols != nullptr ? static_cast<size_t>((*cols)[j]) : j;
  };
  enc->PutString(name);
  enc->PutU32(static_cast<uint32_t>(ncols));
  uint64_t min_bits = 0;
  for (size_t j = 0; j < ncols; ++j) {
    const minidb::ColumnDef& def = src.schema().column(col_at(j));
    enc->PutString(def.name);
    enc->PutU8(static_cast<uint8_t>(def.type));
    min_bits += MinBitsPerRow(def.type);
  }
  enc->PutU32(static_cast<uint32_t>(nrows));
  enc->Reserve(min_bits * nrows / 8 + 2 * ncols);
  for (size_t j = 0; j < ncols; ++j) {
    EncodeColumn(src.column(col_at(j)), rows, nrows, enc);
  }
}

Result<Column> DecodeColumn(ValueType type, uint32_t nrows, Decoder* dec) {
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  if (tag != static_cast<uint8_t>(type)) {
    return Status::DataLoss(StrFormat(
        "column section typed %u where the schema says %u", tag,
        static_cast<unsigned>(type)));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t has_nulls, dec->GetU8());
  if (has_nulls > 1 || (type == ValueType::kNull && !has_nulls && nrows > 0)) {
    return Status::DataLoss(StrFormat("bad validity flag %u", has_nulls));
  }
  std::string_view validity;
  if (has_nulls) {
    ORPHEUS_ASSIGN_OR_RETURN(validity, dec->GetBytes((nrows + 7) / 8));
  }
  Column col(type);
  col.Reserve(nrows);
  switch (type) {
    case ValueType::kNull:
      for (uint32_t r = 0; r < nrows; ++r) col.AppendNull();
      return col;
    case ValueType::kInt64: {
      ORPHEUS_ASSIGN_OR_RETURN(std::string_view raw,
                               dec->GetBytes(nrows * sizeof(int64_t)));
      col.AppendInts(raw.data(), nrows);
      break;
    }
    case ValueType::kDouble: {
      ORPHEUS_ASSIGN_OR_RETURN(std::string_view raw,
                               dec->GetBytes(nrows * sizeof(double)));
      col.AppendDoubles(raw.data(), nrows);
      break;
    }
    case ValueType::kString: {
      ORPHEUS_ASSIGN_OR_RETURN(std::string_view lengths,
                               dec->GetBytes(nrows * sizeof(uint32_t)));
      std::vector<uint32_t> lens(nrows);
      if (nrows > 0) std::memcpy(lens.data(), lengths.data(), lengths.size());
      uint64_t total = 0;
      for (uint32_t len : lens) total += len;
      if (total > dec->remaining()) {
        return Status::DataLoss(StrFormat(
            "string column claims %llu bytes, %zu available",
            static_cast<unsigned long long>(total), dec->remaining()));
      }
      ORPHEUS_ASSIGN_OR_RETURN(std::string_view bytes, dec->GetBytes(total));
      size_t offset = 0;
      for (uint32_t len : lens) {
        col.AppendString(std::string(bytes.substr(offset, len)));
        offset += len;
      }
      break;
    }
    case ValueType::kIntArray:
      for (uint32_t r = 0; r < nrows; ++r) {
        ORPHEUS_ASSIGN_OR_RETURN(minidb::Value v, storage::DecodeIntArray(dec));
        col.AppendValue(v);
      }
      break;
  }
  for (uint32_t r = 0; r < nrows && has_nulls; ++r) {
    if ((static_cast<uint8_t>(validity[r / 8]) >> (r % 8) & 1) == 0) {
      col.SetNull(r);
    }
  }
  return col;
}

}  // namespace

void EncodeTable(const minidb::Table& table, storage::Encoder* enc) {
  EncodeRows(table, nullptr, table.num_rows(), nullptr, table.name(), enc);
}

void EncodeSelection(const core::RowSelection& sel, std::string_view name,
                     storage::Encoder* enc) {
  EncodeRows(*sel.table, sel.rows.data(), sel.rows.size(), &sel.cols, name,
             enc);
  ORPHEUS_COUNTER_ADD("net.encode.rows_gathered", sel.rows.size());
}

Result<minidb::Table> DecodeTable(storage::Decoder* dec) {
  ORPHEUS_ASSIGN_OR_RETURN(std::string name, dec->GetString());
  // A column costs at least its name length, type and section header.
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t ncols, dec->GetCount(7));
  std::vector<minidb::ColumnDef> cols;
  cols.reserve(ncols);
  uint64_t min_bits = 0;
  for (uint32_t c = 0; c < ncols; ++c) {
    minidb::ColumnDef col;
    ORPHEUS_ASSIGN_OR_RETURN(col.name, dec->GetString());
    ORPHEUS_ASSIGN_OR_RETURN(uint8_t type, dec->GetU8());
    if (type > static_cast<uint8_t>(ValueType::kIntArray)) {
      return Status::DataLoss(
          StrFormat("bad column type %u on the wire", type));
    }
    col.type = static_cast<ValueType>(type);
    min_bits += MinBitsPerRow(col.type);
    cols.push_back(std::move(col));
  }
  // Bound the claimed row count by the bytes that could hold it before
  // allocating anything for it.
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t nrows, dec->GetU32());
  if (ncols == 0 && nrows > 0) {
    return Status::DataLoss(
        StrFormat("table with no columns claims %u rows", nrows));
  }
  if (ncols > 0 && nrows > 8 * static_cast<uint64_t>(dec->remaining()) /
                               min_bits) {
    return Status::DataLoss(StrFormat(
        "table claims %u rows of at least %llu bits, %zu bytes left", nrows,
        static_cast<unsigned long long>(min_bits), dec->remaining()));
  }
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (const minidb::ColumnDef& col : cols) {
    ORPHEUS_ASSIGN_OR_RETURN(Column column, DecodeColumn(col.type, nrows, dec));
    columns.push_back(std::move(column));
  }
  return minidb::Table::FromColumns(std::move(name),
                                    minidb::Schema(std::move(cols)),
                                    std::move(columns));
}

// ---------------------------------------------------------------------------
// Request / Response
// ---------------------------------------------------------------------------

std::string EncodeRequest(const Request& req) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(req.op));
  enc.PutU64(req.request_seq);
  enc.PutU64(req.acked_seq);
  enc.PutU64(req.sid);
  enc.PutI64(req.deadline_ms);
  enc.PutString(req.cvd);
  enc.PutString(req.table_name);
  enc.PutU32(static_cast<uint32_t>(req.vids.size()));
  for (core::VersionId vid : req.vids) enc.PutI32(vid);
  enc.PutString(req.message);
  enc.PutString(req.author);
  enc.PutU8(req.table != nullptr ? 1 : 0);
  if (req.table != nullptr) {
    storage::EncodeRidList(req.deleted, &enc);
    EncodeTable(*req.table, &enc);
  }
  return enc.Take();
}

Result<Request> DecodeRequest(std::string_view payload) {
  Decoder dec(payload);
  Request req;
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t op, dec.GetU8());
  if (op < static_cast<uint8_t>(Op::kOpen) ||
      op > static_cast<uint8_t>(Op::kHeartbeat)) {
    return Status::DataLoss(StrFormat("bad request op %u", op));
  }
  req.op = static_cast<Op>(op);
  ORPHEUS_ASSIGN_OR_RETURN(req.request_seq, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(req.acked_seq, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(req.sid, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(req.deadline_ms, dec.GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(req.cvd, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(req.table_name, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t nvids, dec.GetCount(sizeof(int32_t)));
  req.vids.reserve(nvids);
  for (uint32_t i = 0; i < nvids; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::VersionId vid, dec.GetI32());
    req.vids.push_back(vid);
  }
  ORPHEUS_ASSIGN_OR_RETURN(req.message, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(req.author, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t has_changeset, dec.GetU8());
  if (has_changeset != 0) {
    // The deleted rids name checkout rows, and every checkout row cost its
    // sender at least an 8-byte `_rid` in one frame.
    ORPHEUS_ASSIGN_OR_RETURN(
        req.deleted,
        storage::DecodeRidList(&dec, kMaxFramePayload / sizeof(int64_t)));
    ORPHEUS_ASSIGN_OR_RETURN(minidb::Table table, DecodeTable(&dec));
    req.decoded_table = std::make_unique<minidb::Table>(std::move(table));
    req.table = req.decoded_table.get();
  }
  return req;
}

namespace {

void EncodeResponseHeader(const Response& resp, Encoder* enc) {
  enc->PutU64(resp.request_seq);
  enc->PutU8(resp.code);
  enc->PutU8(resp.retryable ? 1 : 0);
  enc->PutString(resp.message);
  enc->PutU8(static_cast<uint8_t>(resp.op));
}

}  // namespace

std::string EncodeResponse(const Response& resp) {
  Encoder enc;
  EncodeResponseHeader(resp, &enc);
  if (!resp.ok()) return enc.Take();
  switch (resp.op) {
    case Op::kOpen:
      enc.PutU64(resp.sid);
      enc.PutI32(resp.watermark);
      break;
    case Op::kCheckout:
      // An OK checkout reply carries rows only through
      // EncodeCheckoutResponse; here it is a table without columns, which
      // a client refuses.
      enc.PutString("");
      enc.PutU32(0);
      enc.PutU32(0);
      break;
    case Op::kCommit:
      EncodeOutcome(resp.outcome, &enc);
      break;
    case Op::kRefresh:
      enc.PutI32(resp.watermark);
      break;
    case Op::kLs:
      enc.PutU32(static_cast<uint32_t>(resp.cvds.size()));
      for (const CvdSummary& c : resp.cvds) {
        enc.PutString(c.name);
        enc.PutI32(c.num_versions);
        enc.PutI32(c.watermark);
        enc.PutI32(c.open_sessions);
        enc.PutU8(c.failed ? 1 : 0);
      }
      break;
    case Op::kClose:
      break;
    case Op::kHeartbeat:
      enc.PutI64(resp.lease_ms);
      break;
  }
  return enc.Take();
}

std::string EncodeCheckoutResponse(const Response& resp,
                                   const core::RowSelection& sel,
                                   std::string_view table_name) {
  Encoder enc;
  EncodeResponseHeader(resp, &enc);
  EncodeSelection(sel, table_name, &enc);
  return enc.Take();
}

Result<Response> DecodeResponse(std::string_view payload) {
  Decoder dec(payload);
  Response resp;
  ORPHEUS_ASSIGN_OR_RETURN(resp.request_seq, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(resp.code, dec.GetU8());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t retryable, dec.GetU8());
  resp.retryable = retryable != 0;
  ORPHEUS_ASSIGN_OR_RETURN(resp.message, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t op, dec.GetU8());
  if (op < static_cast<uint8_t>(Op::kOpen) ||
      op > static_cast<uint8_t>(Op::kHeartbeat)) {
    return Status::DataLoss(StrFormat("bad response op %u", op));
  }
  resp.op = static_cast<Op>(op);
  if (!resp.ok()) return resp;
  switch (resp.op) {
    case Op::kOpen: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.sid, dec.GetU64());
      ORPHEUS_ASSIGN_OR_RETURN(resp.watermark, dec.GetI32());
      break;
    }
    case Op::kCheckout: {
      ORPHEUS_ASSIGN_OR_RETURN(minidb::Table table, DecodeTable(&dec));
      resp.decoded_table = std::make_unique<minidb::Table>(std::move(table));
      break;
    }
    case Op::kCommit: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.outcome, DecodeOutcome(&dec));
      break;
    }
    case Op::kRefresh: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.watermark, dec.GetI32());
      break;
    }
    case Op::kLs: {
      // A summary is at least a name length, three i32 and a flag.
      ORPHEUS_ASSIGN_OR_RETURN(uint32_t n, dec.GetCount(17));
      resp.cvds.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        CvdSummary c;
        ORPHEUS_ASSIGN_OR_RETURN(c.name, dec.GetString());
        ORPHEUS_ASSIGN_OR_RETURN(c.num_versions, dec.GetI32());
        ORPHEUS_ASSIGN_OR_RETURN(c.watermark, dec.GetI32());
        ORPHEUS_ASSIGN_OR_RETURN(c.open_sessions, dec.GetI32());
        ORPHEUS_ASSIGN_OR_RETURN(uint8_t failed, dec.GetU8());
        c.failed = failed != 0;
        resp.cvds.push_back(std::move(c));
      }
      break;
    }
    case Op::kClose:
      break;
    case Op::kHeartbeat: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.lease_ms, dec.GetI64());
      break;
    }
  }
  return resp;
}

// ---------------------------------------------------------------------------
// Framed I/O
// ---------------------------------------------------------------------------

Status SendMessage(Socket* sock, MsgType type, std::string_view payload,
                   const Deadline& deadline) {
  // Header and payload leave in one gather write: the payload is sent
  // from the caller's buffer, never copied into a frame.
  return sock->SendAll(
      storage::FrameHeader(static_cast<uint8_t>(type), payload), payload,
      deadline);
}

Status RecvMessage(Socket* sock, MsgType* type, std::string* payload,
                   const Deadline& idle_deadline) {
  // The 9-byte header (length | crc | type), read under the idle deadline.
  // A timeout with ZERO bytes consumed leaves the stream frame-aligned
  // (retryable); any partial read means we are desynced mid-frame.
  char header[storage::kFrameHeaderSize];
  size_t received = 0;
  Status s = sock->RecvAll(header, sizeof(header), idle_deadline, &received);
  if (!s.ok()) {
    if (s.IsDeadlineExceeded() && received > 0) {
      return Status::Unavailable(StrFormat(
          "frame torn: %zu of %zu header bytes before the deadline",
          received, sizeof(header)));
    }
    return s;
  }
  storage::Decoder fields(std::string_view(header, sizeof(header)));
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t payload_size, fields.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t stored_crc, fields.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t raw_type, fields.GetU8());
  if (payload_size > kMaxFramePayload) {
    return Status::Unavailable(StrFormat(
        "frame claims %u payload bytes (cap %u) — corrupt stream",
        payload_size, kMaxFramePayload));
  }
  // Once a frame has started, finish it under a generous fixed bound so a
  // stalled peer cannot park us forever, while a briefly-slow large frame
  // still completes. The body lands directly in the caller's buffer.
  const Deadline body_deadline = Deadline::AfterMillis(10000);
  payload->resize(payload_size);
  s = sock->RecvAll(payload->data(), payload_size, body_deadline, &received);
  if (!s.ok()) {
    if (s.IsDeadlineExceeded()) {
      return Status::Unavailable(StrFormat(
          "frame torn: %zu of %u body bytes before the deadline", received,
          payload_size));
    }
    return s;
  }
  // We read the exact length, so a checksum failure cannot be a torn tail:
  // on a stream it means mangled bytes, a retryable transport fault.
  if (storage::FrameChecksum(raw_type, *payload) != stored_crc) {
    return Status::Unavailable(StrFormat(
        "corrupt frame on the wire: checksum mismatch (%u-byte payload)",
        payload_size));
  }
  if (raw_type < static_cast<uint8_t>(MsgType::kHello) ||
      raw_type > static_cast<uint8_t>(MsgType::kResponse)) {
    return Status::Unavailable(StrFormat(
        "unexpected frame type %u on the wire (not a net message)",
        raw_type));
  }
  *type = static_cast<MsgType>(raw_type);
  return Status::OK();
}

}  // namespace orpheus::net
