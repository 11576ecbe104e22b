#include "storage/format.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/ridset.h"
#include "common/string_util.h"

namespace orpheus::storage {

uint32_t HeaderCrc(std::string_view magic, uint32_t version, uint64_t seq) {
  Encoder enc;
  enc.PutString(magic);
  enc.PutU32(version);
  enc.PutU64(seq);
  return Crc32c(enc.data());
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

void Encoder::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(bytes, 4);
}

void Encoder::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(bytes, 8);
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

Status Decoder::Truncated(const char* what, size_t need) const {
  return Status::DataLoss(StrFormat(
      "truncated %s at offset %llu: need %zu bytes, %zu available", what,
      static_cast<unsigned long long>(base_ + pos_), need, data_.size() - pos_));
}

Result<uint8_t> Decoder::GetU8() {
  if (data_.size() - pos_ < 1) return Truncated("u8", 1);
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Decoder::GetU32() {
  if (data_.size() - pos_ < 4) return Truncated("u32", 4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  if (data_.size() - pos_ < 8) return Truncated("u64", 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Decoder::GetI64() {
  ORPHEUS_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<int32_t> Decoder::GetI32() {
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

Result<double> Decoder::GetDouble() {
  ORPHEUS_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<uint32_t> Decoder::GetCount(size_t min_elem_bytes) {
  const uint64_t offset = base_ + pos_;
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (static_cast<uint64_t>(n) * min_elem_bytes > data_.size() - pos_) {
    return Status::DataLoss(StrFormat(
        "count %u at offset %llu needs at least %llu bytes, %zu available", n,
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(static_cast<uint64_t>(n) *
                                        min_elem_bytes),
        data_.size() - pos_));
  }
  return n;
}

Result<std::string_view> Decoder::GetBytes(size_t n) {
  if (data_.size() - pos_ < n) return Truncated("bytes", n);
  std::string_view bytes = data_.substr(pos_, n);
  pos_ += n;
  return bytes;
}

Result<std::string> Decoder::GetString() {
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (data_.size() - pos_ < len) return Truncated("string payload", len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

uint32_t FrameChecksum(uint8_t type, std::string_view payload) {
  const char type_byte = static_cast<char>(type);
  return Crc32cExtend(Crc32c(std::string_view(&type_byte, 1)), payload);
}

std::string FrameHeader(uint8_t type, std::string_view payload) {
  Encoder header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(FrameChecksum(type, payload));
  header.PutU8(type);
  return header.Take();
}

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  out->reserve(out->size() + kFrameHeaderSize + payload.size());
  out->append(FrameHeader(static_cast<uint8_t>(type), payload));
  out->append(payload.data(), payload.size());
}

Status ReadFrame(std::string_view data, uint64_t base_offset, size_t* pos,
                 Frame* frame, bool* torn_tail) {
  *torn_tail = false;
  const uint64_t frame_offset = base_offset + *pos;
  const size_t avail = data.size() - *pos;
  if (avail < kFrameHeaderSize) {
    *torn_tail = true;  // header itself is incomplete
    return Status::OK();
  }
  Decoder header(data.substr(*pos, 8), frame_offset);
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t payload_size, header.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t stored_crc, header.GetU32());
  const size_t frame_size = kFrameHeaderSize + payload_size;
  if (avail < frame_size) {
    *torn_tail = true;  // payload extends past EOF
    return Status::OK();
  }
  std::string_view checked = data.substr(*pos + 8, 1 + payload_size);
  if (Crc32c(checked) != stored_crc) {
    if (avail == frame_size) {
      // Bad checksum on the very last frame: indistinguishable from an
      // interrupted append — treat as torn tail.
      *torn_tail = true;
      return Status::OK();
    }
    return Status::DataLoss(StrFormat(
        "checksum mismatch in frame at offset %llu (%u-byte payload, "
        "followed by %zu more bytes)",
        static_cast<unsigned long long>(frame_offset), payload_size,
        avail - frame_size));
  }
  frame->type = static_cast<FrameType>(checked[0]);
  frame->payload = checked.substr(1);
  frame->offset = frame_offset;
  *pos += frame_size;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

void EncodeValue(const minidb::Value& value, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case minidb::ValueType::kNull:
      break;
    case minidb::ValueType::kInt64:
      enc->PutI64(value.AsInt());
      break;
    case minidb::ValueType::kDouble:
      enc->PutDouble(value.AsDouble());
      break;
    case minidb::ValueType::kString:
      enc->PutString(value.AsString());
      break;
    case minidb::ValueType::kIntArray:
      EncodeIntArray(value, enc);
      break;
  }
}

void EncodeIntArray(const minidb::Value& value, Encoder* enc) {
  // Already-compressed cells serialize their canonical containers
  // directly; plain vectors go through EncodeRidList, which rebuilds the
  // same canonical form when eligible. Either way the bytes are a function
  // of the list contents alone.
  if (const auto* set = value.TryRidSet();
      set && (*set)->size() >= RidSet::kMinCompressElems) {
    enc->PutU8(1);
    enc->PutString((*set)->SerializeBlob());
  } else {
    EncodeRidList(value.AsIntArray(), enc);
  }
}

Result<minidb::Value> DecodeValue(Decoder* dec) {
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (static_cast<minidb::ValueType>(tag)) {
    case minidb::ValueType::kNull:
      return minidb::Value::Null();
    case minidb::ValueType::kInt64: {
      ORPHEUS_ASSIGN_OR_RETURN(int64_t v, dec->GetI64());
      return minidb::Value(v);
    }
    case minidb::ValueType::kDouble: {
      ORPHEUS_ASSIGN_OR_RETURN(double v, dec->GetDouble());
      return minidb::Value(v);
    }
    case minidb::ValueType::kString: {
      ORPHEUS_ASSIGN_OR_RETURN(std::string v, dec->GetString());
      return minidb::Value(std::move(v));
    }
    case minidb::ValueType::kIntArray:
      return DecodeIntArray(dec);
  }
  return Status::DataLoss(StrFormat(
      "unknown value type tag %d at offset %llu", static_cast<int>(tag),
      static_cast<unsigned long long>(dec->file_offset())));
}

namespace {

/// The raw rid-list body: u32 count, then that many i64.
Result<std::vector<int64_t>> GetRawRids(Decoder* dec) {
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t n, dec->GetCount(sizeof(int64_t)));
  std::vector<int64_t> rids;
  rids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(int64_t v, dec->GetI64());
    rids.push_back(v);
  }
  return rids;
}

}  // namespace

Result<minidb::Value> DecodeIntArray(Decoder* dec) {
  // Peek the rid-list tag: packed blobs become compressed cells without a
  // decompression round-trip.
  const uint64_t tag_offset = dec->file_offset();
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t packed, dec->GetU8());
  if (packed == 1) {
    ORPHEUS_ASSIGN_OR_RETURN(std::string blob, dec->GetString());
    ORPHEUS_ASSIGN_OR_RETURN(RidSet set, RidSet::DeserializeBlob(blob));
    return minidb::Value(std::make_shared<const RidSet>(std::move(set)));
  }
  if (packed != 0) {
    return Status::DataLoss(StrFormat(
        "unknown rid-list tag %d at offset %llu", static_cast<int>(packed),
        static_cast<unsigned long long>(tag_offset)));
  }
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> arr, GetRawRids(dec));
  return minidb::Value(std::move(arr));
}

void EncodeRidList(const std::vector<int64_t>& rids, Encoder* enc) {
  if (auto set = RidSet::TryFromVector(rids)) {
    enc->PutU8(1);
    enc->PutString(set->SerializeBlob());
    return;
  }
  enc->PutU8(0);
  enc->PutU32(static_cast<uint32_t>(rids.size()));
  for (int64_t v : rids) enc->PutI64(v);
}

Result<std::vector<int64_t>> DecodeRidList(Decoder* dec, size_t max_rids) {
  const uint64_t tag_offset = dec->file_offset();
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  if (tag == 1) {
    ORPHEUS_ASSIGN_OR_RETURN(std::string blob, dec->GetString());
    ORPHEUS_ASSIGN_OR_RETURN(RidSet set, RidSet::DeserializeBlob(blob));
    if (set.size() > max_rids) {
      return Status::DataLoss(StrFormat(
          "rid list at offset %llu holds %zu rids, more than %zu",
          static_cast<unsigned long long>(tag_offset), set.size(), max_rids));
    }
    return set.ToVector();
  }
  if (tag != 0) {
    return Status::DataLoss(StrFormat(
        "unknown rid-list tag %d at offset %llu", static_cast<int>(tag),
        static_cast<unsigned long long>(tag_offset)));
  }
  return GetRawRids(dec);
}

// ---------------------------------------------------------------------------
// Domain structs
// ---------------------------------------------------------------------------

namespace {

void EncodeColumnDef(const minidb::ColumnDef& col, Encoder* enc) {
  enc->PutString(col.name);
  enc->PutU8(static_cast<uint8_t>(col.type));
}

Result<minidb::ColumnDef> DecodeColumnDef(Decoder* dec) {
  minidb::ColumnDef col;
  ORPHEUS_ASSIGN_OR_RETURN(col.name, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t type, dec->GetU8());
  col.type = static_cast<minidb::ValueType>(type);
  return col;
}

void EncodeAttributeInfo(const core::AttributeInfo& attr, Encoder* enc) {
  enc->PutI32(attr.attr_id);
  enc->PutString(attr.name);
  enc->PutU8(static_cast<uint8_t>(attr.type));
}

Result<core::AttributeInfo> DecodeAttributeInfo(Decoder* dec) {
  core::AttributeInfo attr;
  ORPHEUS_ASSIGN_OR_RETURN(attr.attr_id, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(attr.name, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t type, dec->GetU8());
  attr.type = static_cast<minidb::ValueType>(type);
  return attr;
}

void EncodeMetadata(const core::VersionMetadata& meta, Encoder* enc) {
  enc->PutI32(meta.vid);
  enc->PutU32(static_cast<uint32_t>(meta.parents.size()));
  for (core::VersionId p : meta.parents) enc->PutI32(p);
  enc->PutI64(meta.checkout_time);
  enc->PutI64(meta.commit_time);
  enc->PutString(meta.message);
  enc->PutString(meta.author);
  enc->PutU32(static_cast<uint32_t>(meta.attributes.size()));
  for (int a : meta.attributes) enc->PutI32(a);
  enc->PutI64(meta.num_records);
}

Result<core::VersionMetadata> DecodeMetadata(Decoder* dec) {
  core::VersionMetadata meta;
  ORPHEUS_ASSIGN_OR_RETURN(meta.vid, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_parents, dec->GetU32());
  meta.parents.reserve(num_parents);
  for (uint32_t i = 0; i < num_parents; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::VersionId p, dec->GetI32());
    meta.parents.push_back(p);
  }
  ORPHEUS_ASSIGN_OR_RETURN(meta.checkout_time, dec->GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(meta.commit_time, dec->GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(meta.message, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(meta.author, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_attrs, dec->GetU32());
  meta.attributes.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(int a, dec->GetI32());
    meta.attributes.push_back(a);
  }
  ORPHEUS_ASSIGN_OR_RETURN(meta.num_records, dec->GetI64());
  return meta;
}

void EncodeRow(const minidb::Row& row, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(row.size()));
  for (const minidb::Value& v : row) EncodeValue(v, enc);
}

Result<minidb::Row> DecodeRow(Decoder* dec) {
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  minidb::Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(minidb::Value v, DecodeValue(dec));
    row.push_back(std::move(v));
  }
  return row;
}

void EncodeNewRecord(const core::NewRecord& rec, Encoder* enc) {
  enc->PutI64(rec.rid);
  EncodeRow(rec.data, enc);
}

Result<core::NewRecord> DecodeNewRecord(Decoder* dec) {
  core::NewRecord rec;
  ORPHEUS_ASSIGN_OR_RETURN(rec.rid, dec->GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(rec.data, DecodeRow(dec));
  return rec;
}

}  // namespace

void EncodeCvdState(const core::CvdState& state, Encoder* enc) {
  enc->PutString(state.name);
  enc->PutU8(static_cast<uint8_t>(state.model));
  enc->PutU32(static_cast<uint32_t>(state.primary_key.size()));
  for (const std::string& k : state.primary_key) enc->PutString(k);
  enc->PutU32(static_cast<uint32_t>(state.data_schema.size()));
  for (const auto& col : state.data_schema) EncodeColumnDef(col, enc);
  enc->PutU32(static_cast<uint32_t>(state.attributes.size()));
  for (const auto& attr : state.attributes) EncodeAttributeInfo(attr, enc);
  enc->PutU32(static_cast<uint32_t>(state.current_attr_ids.size()));
  for (int id : state.current_attr_ids) enc->PutI32(id);
  enc->PutI64(state.next_rid);
  enc->PutI64(state.logical_clock);
  const uint32_t num_versions = static_cast<uint32_t>(state.metadata.size());
  enc->PutU32(num_versions);
  for (const auto& meta : state.metadata) EncodeMetadata(meta, enc);
  for (uint32_t v = 0; v < num_versions; ++v) {
    enc->PutU32(static_cast<uint32_t>(state.version_parents[v].size()));
    for (int p : state.version_parents[v]) enc->PutI32(p);
    for (int64_t w : state.version_weights[v]) enc->PutI64(w);
    EncodeRidList(state.version_rids[v], enc);
    enc->PutU32(static_cast<uint32_t>(state.version_new_records[v].size()));
    for (const auto& rec : state.version_new_records[v]) {
      EncodeNewRecord(rec, enc);
    }
  }
}

Result<core::CvdState> DecodeCvdState(Decoder* dec) {
  core::CvdState state;
  ORPHEUS_ASSIGN_OR_RETURN(state.name, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t model, dec->GetU8());
  state.model = static_cast<core::DataModelType>(model);
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_pk, dec->GetU32());
  state.primary_key.reserve(num_pk);
  for (uint32_t i = 0; i < num_pk; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(std::string k, dec->GetString());
    state.primary_key.push_back(std::move(k));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_cols, dec->GetU32());
  state.data_schema.reserve(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(minidb::ColumnDef col, DecodeColumnDef(dec));
    state.data_schema.push_back(std::move(col));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_attrs, dec->GetU32());
  state.attributes.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::AttributeInfo attr,
                             DecodeAttributeInfo(dec));
    state.attributes.push_back(std::move(attr));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_cur, dec->GetU32());
  state.current_attr_ids.reserve(num_cur);
  for (uint32_t i = 0; i < num_cur; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(int id, dec->GetI32());
    state.current_attr_ids.push_back(id);
  }
  ORPHEUS_ASSIGN_OR_RETURN(state.next_rid, dec->GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(state.logical_clock, dec->GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_versions, dec->GetU32());
  state.metadata.reserve(num_versions);
  for (uint32_t i = 0; i < num_versions; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::VersionMetadata meta, DecodeMetadata(dec));
    state.metadata.push_back(std::move(meta));
  }
  state.version_parents.resize(num_versions);
  state.version_weights.resize(num_versions);
  state.version_rids.resize(num_versions);
  state.version_new_records.resize(num_versions);
  for (uint32_t v = 0; v < num_versions; ++v) {
    ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_parents, dec->GetU32());
    state.version_parents[v].reserve(num_parents);
    state.version_weights[v].reserve(num_parents);
    for (uint32_t i = 0; i < num_parents; ++i) {
      ORPHEUS_ASSIGN_OR_RETURN(int p, dec->GetI32());
      state.version_parents[v].push_back(p);
    }
    for (uint32_t i = 0; i < num_parents; ++i) {
      ORPHEUS_ASSIGN_OR_RETURN(int64_t w, dec->GetI64());
      state.version_weights[v].push_back(w);
    }
    ORPHEUS_ASSIGN_OR_RETURN(state.version_rids[v], DecodeRidList(dec));
    ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_new, dec->GetU32());
    state.version_new_records[v].reserve(num_new);
    for (uint32_t i = 0; i < num_new; ++i) {
      ORPHEUS_ASSIGN_OR_RETURN(core::NewRecord rec, DecodeNewRecord(dec));
      state.version_new_records[v].push_back(std::move(rec));
    }
  }
  return state;
}

void EncodeCommitRecord(const core::CvdCommitRecord& record, Encoder* enc) {
  enc->PutI32(record.vid);
  enc->PutU32(static_cast<uint32_t>(record.parents.size()));
  for (core::VersionId p : record.parents) enc->PutI32(p);
  for (int64_t w : record.parent_weights) enc->PutI64(w);
  EncodeRidList(record.rids, enc);
  enc->PutU32(static_cast<uint32_t>(record.new_records.size()));
  for (const auto& rec : record.new_records) EncodeNewRecord(rec, enc);
  EncodeMetadata(record.metadata, enc);
  enc->PutU32(static_cast<uint32_t>(record.new_attributes.size()));
  for (const auto& attr : record.new_attributes) EncodeAttributeInfo(attr, enc);
  enc->PutU32(static_cast<uint32_t>(record.current_attr_ids.size()));
  for (int id : record.current_attr_ids) enc->PutI32(id);
  enc->PutU32(static_cast<uint32_t>(record.schema_after.size()));
  for (const auto& col : record.schema_after) EncodeColumnDef(col, enc);
  enc->PutI64(record.next_rid_after);
  enc->PutI64(record.logical_clock_after);
}

Result<core::CvdCommitRecord> DecodeCommitRecord(Decoder* dec) {
  core::CvdCommitRecord record;
  ORPHEUS_ASSIGN_OR_RETURN(record.vid, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_parents, dec->GetU32());
  record.parents.reserve(num_parents);
  record.parent_weights.reserve(num_parents);
  for (uint32_t i = 0; i < num_parents; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::VersionId p, dec->GetI32());
    record.parents.push_back(p);
  }
  for (uint32_t i = 0; i < num_parents; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(int64_t w, dec->GetI64());
    record.parent_weights.push_back(w);
  }
  ORPHEUS_ASSIGN_OR_RETURN(record.rids, DecodeRidList(dec));
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_new, dec->GetU32());
  record.new_records.reserve(num_new);
  for (uint32_t i = 0; i < num_new; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::NewRecord rec, DecodeNewRecord(dec));
    record.new_records.push_back(std::move(rec));
  }
  ORPHEUS_ASSIGN_OR_RETURN(record.metadata, DecodeMetadata(dec));
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_attrs, dec->GetU32());
  record.new_attributes.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::AttributeInfo attr,
                             DecodeAttributeInfo(dec));
    record.new_attributes.push_back(std::move(attr));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_cur, dec->GetU32());
  record.current_attr_ids.reserve(num_cur);
  for (uint32_t i = 0; i < num_cur; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(int id, dec->GetI32());
    record.current_attr_ids.push_back(id);
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t num_cols, dec->GetU32());
  record.schema_after.reserve(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(minidb::ColumnDef col, DecodeColumnDef(dec));
    record.schema_after.push_back(std::move(col));
  }
  ORPHEUS_ASSIGN_OR_RETURN(record.next_rid_after, dec->GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(record.logical_clock_after, dec->GetI64());
  return record;
}

}  // namespace orpheus::storage
