#include "storage/wal.h"

#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace orpheus::storage {

namespace {

constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = kMagicSize + 4 + 4 + 8;  // magic|ver|rsvd|seq

std::string EncodeHeader(uint64_t seq) {
  Encoder enc;
  enc.PutU32(kFormatVersion);
  enc.PutU32(HeaderCrc({kWalMagic, kMagicSize}, kFormatVersion, seq));
  enc.PutU64(seq);
  std::string header(kWalMagic, kMagicSize);
  header.append(enc.data());
  return header;
}

Result<WalRecord> DecodeWalFrame(const Frame& frame) {
  Decoder dec(frame.payload, frame.offset + kFrameHeaderSize);
  switch (frame.type) {
    case FrameType::kWalCreate: {
      WalCreateRecord rec;
      ORPHEUS_ASSIGN_OR_RETURN(rec.state, DecodeCvdState(&dec));
      return WalRecord(std::move(rec));
    }
    case FrameType::kWalCommit: {
      WalCommitRecord rec;
      ORPHEUS_ASSIGN_OR_RETURN(rec.cvd, dec.GetString());
      ORPHEUS_ASSIGN_OR_RETURN(rec.record, DecodeCommitRecord(&dec));
      return WalRecord(std::move(rec));
    }
    case FrameType::kWalDrop: {
      WalDropRecord rec;
      ORPHEUS_ASSIGN_OR_RETURN(rec.cvd, dec.GetString());
      return WalRecord(std::move(rec));
    }
    default:
      return Status::DataLoss(StrFormat(
          "unexpected frame type %d in WAL at offset %llu",
          static_cast<int>(frame.type),
          static_cast<unsigned long long>(frame.offset)));
  }
}

std::string EncodeWalFrame(const WalRecord& record) {
  std::string out;
  if (const auto* create = std::get_if<WalCreateRecord>(&record)) {
    Encoder enc;
    EncodeCvdState(create->state, &enc);
    AppendFrame(&out, FrameType::kWalCreate, enc.data());
  } else if (const auto* commit = std::get_if<WalCommitRecord>(&record)) {
    Encoder enc;
    enc.PutString(commit->cvd);
    EncodeCommitRecord(commit->record, &enc);
    AppendFrame(&out, FrameType::kWalCommit, enc.data());
  } else {
    Encoder enc;
    enc.PutString(std::get<WalDropRecord>(record).cvd);
    AppendFrame(&out, FrameType::kWalDrop, enc.data());
  }
  return out;
}

}  // namespace

Result<WalContents> ReadWal(const std::string& path) {
  ORPHEUS_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  WalContents contents;
  if (data.size() < kHeaderSize) {
    // The header is written and synced by Create before the WAL is
    // referenced; a short header means the file was never initialized
    // (crash between open and header sync is handled by the checkpoint
    // protocol, which only points CURRENT at a WAL after its header is
    // durable) — so this is corruption, not a torn tail.
    return Status::DataLoss(
        StrFormat("%s: WAL header truncated (%zu bytes, need %zu)",
                  path.c_str(), data.size(), kHeaderSize));
  }
  if (data.compare(0, kMagicSize, kWalMagic, kMagicSize) != 0) {
    return Status::DataLoss(
        StrFormat("%s: bad WAL magic at offset 0", path.c_str()));
  }
  Decoder header(
      std::string_view(data).substr(kMagicSize, kHeaderSize - kMagicSize),
      kMagicSize);
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kFormatVersion) {
    return Status::DataLoss(StrFormat(
        "%s: unsupported WAL format version %u (this build reads only "
        "version %u; format v2 is no longer readable)",
        path.c_str(), version, kFormatVersion));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t header_crc, header.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(contents.seq, header.GetU64());
  const uint32_t want_crc =
      HeaderCrc({kWalMagic, kMagicSize}, version, contents.seq);
  if (header_crc != want_crc) {
    return Status::DataLoss(StrFormat(
        "%s: WAL header checksum mismatch (got %08x, want %08x)",
        path.c_str(), header_crc, want_crc));
  }

  size_t pos = kHeaderSize;
  contents.valid_bytes = pos;
  while (pos < data.size()) {
    Frame frame;
    bool torn = false;
    Status s = ReadFrame(data, 0, &pos, &frame, &torn);
    if (!s.ok()) {
      return Status::DataLoss(
          StrFormat("%s: %s", path.c_str(), s.message().c_str()));
    }
    if (torn) {
      contents.torn_tail = true;
      break;
    }
    auto record = DecodeWalFrame(frame);
    if (!record.ok()) {
      return Status::DataLoss(StrFormat("%s: %s", path.c_str(),
                                        record.status().message().c_str()));
    }
    contents.records.push_back(record.MoveValueOrDie());
    contents.valid_bytes = pos;
  }
  return contents;
}

Result<WalWriter> WalWriter::Create(const std::string& path, uint64_t seq) {
  ORPHEUS_ASSIGN_OR_RETURN(FileWriter file, FileWriter::Create(path));
  ORPHEUS_FAILPOINT("storage.wal.create.header");
  ORPHEUS_RETURN_NOT_OK(file.Append(EncodeHeader(seq)));
  ORPHEUS_FAILPOINT("storage.wal.create.sync");
  ORPHEUS_RETURN_NOT_OK(file.Sync());
  return WalWriter(std::move(file));
}

Result<WalWriter> WalWriter::Open(const std::string& path, uint64_t offset) {
  ORPHEUS_ASSIGN_OR_RETURN(FileWriter file, FileWriter::OpenAt(path, offset));
  return WalWriter(std::move(file));
}

Status WalWriter::Append(const WalRecord& record) {
  ORPHEUS_TRACE_SPAN("storage.wal.append");
  const std::string frame = EncodeWalFrame(record);
  ORPHEUS_FAILPOINT("storage.wal.append.frame");
  ORPHEUS_RETURN_NOT_OK(file_.Append(frame));
  ORPHEUS_FAILPOINT("storage.wal.append.sync");
  ORPHEUS_RETURN_NOT_OK(file_.Sync());
  ORPHEUS_COUNTER_ADD("storage.wal.appends", 1);
  ORPHEUS_COUNTER_ADD("storage.wal.syncs", 1);
  ORPHEUS_COUNTER_ADD("storage.wal.append_bytes", frame.size());
  return Status::OK();
}

Status WalWriter::AppendBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::OK();
  ORPHEUS_TRACE_SPAN("storage.wal.append_batch");
  std::string frames;
  size_t first_frame_bytes = 0;
  for (const WalRecord& record : records) {
    frames.append(EncodeWalFrame(record));
    if (first_frame_bytes == 0) first_frame_bytes = frames.size();
  }
#if ORPHEUS_FAILPOINTS_ENABLED
  if (failpoint::AnyArmed()) {
    // Torn-batch simulation: persist the first record whole plus half of
    // the second (or half of a lone record), sync, then fire — a power cut
    // that lands *between* the records of one group-commit batch. Replay
    // must recover the applied prefix (record 1) and truncate the tear;
    // none of the torn-off records may surface as phantom versions.
    if (auto action =
            failpoint::internal::ConsumeHit("storage.wal.append_batch.torn")) {
      const size_t keep = records.size() > 1
                              ? first_frame_bytes +
                                    (frames.size() - first_frame_bytes) / 2
                              : frames.size() / 2;
      ORPHEUS_RETURN_NOT_OK(file_.Append(frames.substr(0, keep)));
      ORPHEUS_RETURN_NOT_OK(file_.Sync());
      if (*action == failpoint::Action::kAbort) {
        failpoint::internal::CrashNow("storage.wal.append_batch.torn");
      }
      return Status::Internal(
          "injected failure at failpoint storage.wal.append_batch.torn");
    }
  }
#endif
  // Same failpoint sites as Append, so the crash matrix and degradation
  // tests exercise the batched path identically.
  ORPHEUS_FAILPOINT("storage.wal.append.frame");
  ORPHEUS_RETURN_NOT_OK(file_.Append(frames));
  ORPHEUS_FAILPOINT("storage.wal.append.sync");
  ORPHEUS_RETURN_NOT_OK(file_.Sync());
  ORPHEUS_COUNTER_ADD("storage.wal.appends", records.size());
  ORPHEUS_COUNTER_ADD("storage.wal.syncs", 1);
  ORPHEUS_COUNTER_ADD("storage.wal.append_bytes", frames.size());
  return Status::OK();
}

}  // namespace orpheus::storage
