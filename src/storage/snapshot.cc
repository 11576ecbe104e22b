#include "storage/snapshot.h"

#include <utility>

#include "common/failpoint.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "storage/format.h"

namespace orpheus::storage {

namespace {

constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = kMagicSize + 4 + 4 + 8;  // magic|ver|rsvd|seq

}  // namespace

Status WriteSnapshot(const std::string& path, uint64_t seq,
                     const std::vector<core::CvdState>& cvds) {
  ORPHEUS_TRACE_SPAN("storage.snapshot.write");
  Encoder header;
  header.PutU32(kFormatVersion);
  header.PutU32(HeaderCrc({kSnapshotMagic, kMagicSize}, kFormatVersion, seq));
  header.PutU64(seq);
  std::string data(kSnapshotMagic, kMagicSize);
  data.append(header.data());

  for (const core::CvdState& state : cvds) {
    ORPHEUS_FAILPOINT("storage.snapshot.frame");
    Encoder enc;
    EncodeCvdState(state, &enc);
    AppendFrame(&data, FrameType::kCvdState, enc.data());
  }
  Encoder footer;
  footer.PutU32(static_cast<uint32_t>(cvds.size()));
  AppendFrame(&data, FrameType::kFooter, footer.data());

  ORPHEUS_COUNTER_ADD("storage.snapshot.writes", 1);
  ORPHEUS_COUNTER_ADD("storage.snapshot.bytes", data.size());
  // WriteFileAtomic is itself failpoint-instrumented (io.write, io.sync,
  // io.rename, ...); the extra sites here let the crash matrix target the
  // snapshot path specifically.
  ORPHEUS_FAILPOINT("storage.snapshot.sync");
  ORPHEUS_RETURN_NOT_OK(WriteFileAtomic(path, data, /*sync=*/true));
  ORPHEUS_FAILPOINT("storage.snapshot.rename");
  return Status::OK();
}

Result<SnapshotContents> ReadSnapshot(const std::string& path) {
  ORPHEUS_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (data.size() < kHeaderSize) {
    return Status::DataLoss(StrFormat(
        "%s: snapshot header truncated (%zu bytes, need %zu)", path.c_str(),
        data.size(), kHeaderSize));
  }
  if (data.compare(0, kMagicSize, kSnapshotMagic, kMagicSize) != 0) {
    return Status::DataLoss(
        StrFormat("%s: bad snapshot magic at offset 0", path.c_str()));
  }
  Decoder header(
      std::string_view(data).substr(kMagicSize, kHeaderSize - kMagicSize),
      kMagicSize);
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kFormatVersion) {
    return Status::DataLoss(StrFormat(
        "%s: unsupported snapshot format version %u (this build reads only "
        "version %u; format v2 is no longer readable) at offset %zu",
        path.c_str(), version, kFormatVersion, kMagicSize));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t header_crc, header.GetU32());
  SnapshotContents contents;
  ORPHEUS_ASSIGN_OR_RETURN(contents.seq, header.GetU64());
  const uint32_t want_crc =
      HeaderCrc({kSnapshotMagic, kMagicSize}, version, contents.seq);
  if (header_crc != want_crc) {
    return Status::DataLoss(StrFormat(
        "%s: snapshot header checksum mismatch (got %08x, want %08x) at "
        "offset %zu",
        path.c_str(), header_crc, want_crc, kMagicSize + 4));
  }

  size_t pos = kHeaderSize;
  bool saw_footer = false;
  while (pos < data.size()) {
    if (saw_footer) {
      return Status::DataLoss(StrFormat(
          "%s: %zu bytes of trailing garbage after footer at offset %zu",
          path.c_str(), data.size() - pos, pos));
    }
    Frame frame;
    bool torn = false;
    Status s = ReadFrame(data, 0, &pos, &frame, &torn);
    if (!s.ok()) {
      return Status::DataLoss(
          StrFormat("%s: %s", path.c_str(), s.message().c_str()));
    }
    if (torn) {
      // A snapshot is written atomically, so a torn tail is not an
      // interrupted append — it is corruption.
      return Status::DataLoss(StrFormat(
          "%s: snapshot truncated mid-frame at offset %zu", path.c_str(),
          pos));
    }
    switch (frame.type) {
      case FrameType::kCvdState: {
        Decoder dec(frame.payload, frame.offset + kFrameHeaderSize);
        auto state = DecodeCvdState(&dec);
        if (!state.ok()) {
          return Status::DataLoss(StrFormat(
              "%s: %s", path.c_str(), state.status().message().c_str()));
        }
        contents.cvds.push_back(state.MoveValueOrDie());
        break;
      }
      case FrameType::kFooter: {
        Decoder dec(frame.payload, frame.offset + kFrameHeaderSize);
        ORPHEUS_ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
        if (count != contents.cvds.size()) {
          return Status::DataLoss(StrFormat(
              "%s: footer says %u CVDs but %zu frames present (offset %llu)",
              path.c_str(), count, contents.cvds.size(),
              static_cast<unsigned long long>(frame.offset)));
        }
        saw_footer = true;
        break;
      }
      default:
        return Status::DataLoss(StrFormat(
            "%s: unexpected frame type %d in snapshot at offset %llu",
            path.c_str(), static_cast<int>(frame.type),
            static_cast<unsigned long long>(frame.offset)));
    }
  }
  if (!saw_footer) {
    return Status::DataLoss(StrFormat(
        "%s: snapshot missing footer frame (file ends at offset %zu)",
        path.c_str(), data.size()));
  }
  return contents;
}

}  // namespace orpheus::storage
