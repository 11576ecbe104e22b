#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/command_processor.h"
#include "common/failpoint.h"
#include "common/file_util.h"
#include "common/log.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/cvd.h"
#include "minidb/csv.h"
#include "minidb/database.h"
#include "minidb/schema.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "storage/crc32c_internal.h"
#include "storage/format.h"
#include "storage/repository.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace orpheus::storage {
namespace {

using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

// The crash matrix forks mid-test; run the whole binary with a serial
// thread pool so the child never inherits a lock held by a pool worker.
// Dynamic initialization happens before main(), i.e. before the pool's
// first use can latch the degree.
[[maybe_unused]] const bool g_single_threaded = [] {
  ::setenv("ORPHEUS_THREADS", "1", 1);
  return true;
}();

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "orpheus_storage_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
  }
  return tmpl;
}

Table MakeTable(const std::vector<std::pair<int64_t, std::string>>& rows) {
  Table t("staged",
          Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}));
  for (const auto& [id, name] : rows) {
    ORPHEUS_CHECK_OK(t.InsertRow({Value(id), Value(name)}));
  }
  return t;
}

Table V1Table() { return MakeTable({{1, "a"}, {2, "b"}, {3, "c"}}); }
Table V2Table() {
  return MakeTable({{1, "a"}, {2, "b2"}, {3, "c"}, {4, "d"}});
}
Table V3Table() {
  return MakeTable({{1, "a"}, {2, "b2"}, {4, "d4"}, {5, "e"}});
}

core::Cvd::Options PkOptions() {
  core::Cvd::Options opts;
  opts.primary_key = {"id"};
  return opts;
}

/// Materialize `vids` and render them as CSV — the bit-identical-checkout
/// yardstick all recovery tests compare against.
std::string CheckoutCsv(core::Cvd* cvd,
                        const std::vector<core::VersionId>& vids) {
  minidb::Database staging;
  Status s = cvd->Checkout(vids, "co_out", &staging);
  if (!s.ok()) return "<checkout failed: " + s.ToString() + ">";
  std::string csv = minidb::ToCsv(*staging.GetTable("co_out"));
  ORPHEUS_IGNORE_ERROR(cvd->ForgetStaging("co_out"));
  return csv;
}

std::unique_ptr<core::Cvd> MakeCvdWithTwoVersions() {
  auto cvd = core::Cvd::Init("t", V1Table(), PkOptions()).MoveValueOrDie();
  auto v2 = cvd->CommitTable(V2Table(), {1}, "v2", "tester");
  ORPHEUS_CHECK_OK(v2.status());
  return cvd;
}

struct Goldens {
  std::string v1;
  std::string v2;
  std::string v3;  // what a v3 commit on top of v2 must check out as
};

/// Initialize a repository at `dir` holding CVD "t" with versions 1 and 2,
/// deliberately left un-checkpointed: CURRENT points at the empty seed
/// snapshot and the WAL holds the create + one commit, so reopening
/// exercises replay. Also precomputes, via a state-clone, the checkout
/// bytes a future v3 commit must produce.
void BuildRepoWithTwoVersions(const std::string& dir, Goldens* goldens) {
  auto repo = Repository::Open(dir).MoveValueOrDie();
  auto cvd = core::Cvd::Init("t", V1Table(), PkOptions()).MoveValueOrDie();
  ASSERT_TRUE(repo->LogCreate(*cvd).ok());
  Repository* raw = repo.get();
  cvd->set_commit_observer([raw](const core::CvdCommitRecord& record) {
    return raw->LogCommit("t", record);
  });
  auto v2 = cvd->CommitTable(V2Table(), {1}, "v2", "tester");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  goldens->v1 = CheckoutCsv(cvd.get(), {1});
  goldens->v2 = CheckoutCsv(cvd.get(), {2});
  // Predict v3 on a clone: FromState preserves next_rid and the logical
  // clock, so committing the same table yields bit-identical checkouts.
  auto clone =
      core::Cvd::FromState(cvd->ExportState().MoveValueOrDie()).MoveValueOrDie();
  auto v3 = clone->CommitTable(V3Table(), {2}, "v3", "tester");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  goldens->v3 = CheckoutCsv(clone.get(), {3});
  // No Close(): the Repository destructor only releases the WAL fd.
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Recovery paths log INFO/WARN by design; the byte-flip sweeps would
    // emit thousands of lines, so keep only errors for these tests.
    log::SetLevelForTest(log::Level::kError);
    dir_ = MakeTempDir();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    log::SetLevelForTest(log::Level::kInfo);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Format: primitives, frames, domain records
// ---------------------------------------------------------------------------

TEST(FormatTest, Crc32cKnownVector) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_NE(Crc32c("123456789"), Crc32c("123456780"));
}

/// The byte-at-a-time table loop the fast kernels replaced: the reference
/// they must agree with bit for bit.
uint32_t ReferenceCrc32c(uint32_t crc, const char* data, size_t n) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1) ? 0x82F63B78 : 0);
      t[i] = c;
    }
    return t;
  }();
  uint32_t state = ~crc;
  for (size_t i = 0; i < n; ++i) {
    state = (state >> 8) ^ table[(state ^ static_cast<uint8_t>(data[i])) & 0xFF];
  }
  return ~state;
}

/// Checks `kernel` against the reference on random buffers of every length
/// 0..3*kShortBlock+17 (through the hardware kernel's short three-stream
/// loop and its tail), of every length within 17 bytes of one and two long
/// three-stream strides and of a long stride plus a short one, and of random
/// lengths up to 4096; each at all 8 start misalignments, from a zero and
/// from a non-zero running CRC.
void CheckKernel(uint32_t (*kernel)(uint32_t, const char*, size_t)) {
  using crc32c_internal::kLongBlock;
  using crc32c_internal::kShortBlock;
  Xorshift rng(7);
  std::vector<char> buf(6 * kLongBlock + 3 * kShortBlock + 64);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 3 * kShortBlock + 17; ++n) lengths.push_back(n);
  for (size_t stride : {3 * kLongBlock, 6 * kLongBlock,
                        3 * kLongBlock + 3 * kShortBlock}) {
    for (size_t n = stride - 17; n <= stride + 17; ++n) lengths.push_back(n);
  }
  for (int i = 0; i < 64; ++i) lengths.push_back(rng.Uniform(4097));
  for (size_t n : lengths) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      const char* p = buf.data() + misalign;
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(kernel(seed, p, n), ReferenceCrc32c(seed, p, n))
            << "length " << n << ", misalignment " << misalign;
      }
    }
  }
}

TEST(FormatTest, Crc32cPortableMatchesReference) {
  CheckKernel(&crc32c_internal::ExtendPortable);
}

TEST(FormatTest, Crc32cSse42MatchesReference) {
  if (!crc32c_internal::HasSse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
  CheckKernel(&crc32c_internal::ExtendSse42);
}

TEST(FormatTest, Crc32cExtendComposes) {
  Xorshift rng(11);
  std::string data(3000, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  EXPECT_EQ(Crc32cExtend(0, data), Crc32c(data));
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{999},
                       data.size()}) {
    const std::string_view a = std::string_view(data).substr(0, split);
    const std::string_view b = std::string_view(data).substr(split);
    EXPECT_EQ(Crc32cExtend(Crc32cExtend(0, a), b), Crc32c(data))
        << "split at " << split;
  }
}

TEST(FormatTest, PrimitiveRoundtrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutI32(-7);
  enc.PutDouble(3.25);
  enc.PutString("hello");
  enc.PutString(std::string("bi\0nary", 7));  // embedded NUL must survive
  std::string data = enc.Take();
  Decoder dec(data);
  EXPECT_EQ(dec.GetU8().MoveValueOrDie(), 0xAB);
  EXPECT_EQ(dec.GetU32().MoveValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64().MoveValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64().MoveValueOrDie(), -42);
  EXPECT_EQ(dec.GetI32().MoveValueOrDie(), -7);
  EXPECT_EQ(dec.GetDouble().MoveValueOrDie(), 3.25);
  EXPECT_EQ(dec.GetString().MoveValueOrDie(), "hello");  // literal stops at NUL
  EXPECT_EQ(dec.GetString().MoveValueOrDie(), std::string("bi\0nary", 7));
  EXPECT_TRUE(dec.AtEnd());
}

TEST(FormatTest, DecoderTruncationCarriesAbsoluteOffset) {
  std::string two_bytes("\x01\x02", 2);
  Decoder dec(two_bytes, /*base_offset=*/100);
  auto r = dec.GetU32();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("offset 100"), std::string::npos)
      << r.status().ToString();
}

TEST(FormatTest, FrameRoundtrip) {
  std::string buf;
  AppendFrame(&buf, FrameType::kWalCommit, "hello");
  AppendFrame(&buf, FrameType::kFooter, "world!");
  size_t pos = 0;
  Frame frame;
  bool torn = false;
  ASSERT_TRUE(ReadFrame(buf, 0, &pos, &frame, &torn).ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(frame.type, FrameType::kWalCommit);
  EXPECT_EQ(frame.payload, "hello");
  EXPECT_EQ(frame.offset, 0u);
  ASSERT_TRUE(ReadFrame(buf, 0, &pos, &frame, &torn).ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(frame.type, FrameType::kFooter);
  EXPECT_EQ(frame.payload, "world!");
  EXPECT_EQ(pos, buf.size());
}

TEST(FormatTest, FrameTornTailVsMidFileCorruption) {
  std::string buf;
  AppendFrame(&buf, FrameType::kWalCommit, "hello");
  const size_t second = buf.size();
  AppendFrame(&buf, FrameType::kFooter, "world!");

  // A final frame cut short is a torn tail, not corruption.
  std::string cut = buf.substr(0, buf.size() - 3);
  size_t pos = second;
  Frame frame;
  bool torn = false;
  ASSERT_TRUE(ReadFrame(cut, 0, &pos, &frame, &torn).ok());
  EXPECT_TRUE(torn);

  // A checksum-bad final frame is also a torn tail (interrupted append).
  std::string bad_tail = buf;
  bad_tail.back() ^= 0x01;
  pos = second;
  torn = false;
  ASSERT_TRUE(ReadFrame(bad_tail, 0, &pos, &frame, &torn).ok());
  EXPECT_TRUE(torn);

  // A checksum-bad frame with data after it is DataLoss, with the offset.
  std::string bad_mid = buf;
  bad_mid[kFrameHeaderSize] ^= 0x01;  // first payload byte of frame one
  pos = 0;
  torn = false;
  Status s = ReadFrame(bad_mid, 0, &pos, &frame, &torn);
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("offset"), std::string::npos) << s.ToString();
}

TEST(FormatTest, ValueRoundtrip) {
  std::vector<Value> values;
  values.push_back(Value::Null());
  values.push_back(Value(int64_t{-7}));
  values.push_back(Value(3.5));
  values.push_back(Value("text"));
  values.push_back(Value(std::vector<int64_t>{1, 2, 3}));
  Encoder enc;
  for (const Value& v : values) EncodeValue(v, &enc);
  std::string data = enc.Take();
  Decoder dec(data);
  for (const Value& want : values) {
    auto got = DecodeValue(&dec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Value v = got.MoveValueOrDie();
    ASSERT_EQ(v.type(), want.type());
    switch (want.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        EXPECT_EQ(v.AsInt(), want.AsInt());
        break;
      case ValueType::kDouble:
        EXPECT_EQ(v.AsDouble(), want.AsDouble());
        break;
      case ValueType::kString:
        EXPECT_EQ(v.AsString(), want.AsString());
        break;
      case ValueType::kIntArray:
        EXPECT_EQ(v.AsIntArray(), want.AsIntArray());
        break;
    }
  }
  EXPECT_TRUE(dec.AtEnd());

  // Unknown type tag is DataLoss, not a crash.
  std::string junk(1, '\xFF');
  Decoder bad(junk);
  auto r = DecodeValue(&bad);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

TEST(FormatTest, CvdStateRoundtripPreservesCheckouts) {
  auto cvd = MakeCvdWithTwoVersions();
  auto state = cvd->ExportState().MoveValueOrDie();
  Encoder enc;
  EncodeCvdState(state, &enc);
  std::string data = enc.Take();
  Decoder dec(data);
  auto decoded = DecodeCvdState(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(dec.AtEnd());
  core::CvdState got = decoded.MoveValueOrDie();
  EXPECT_EQ(got.name, "t");
  ASSERT_EQ(got.metadata.size(), 2u);
  EXPECT_EQ(got.metadata[1].message, "v2");
  EXPECT_EQ(got.metadata[1].author, "tester");
  auto clone = core::Cvd::FromState(got).MoveValueOrDie();
  EXPECT_EQ(CheckoutCsv(clone.get(), {1}), CheckoutCsv(cvd.get(), {1}));
  EXPECT_EQ(CheckoutCsv(clone.get(), {2}), CheckoutCsv(cvd.get(), {2}));
}

TEST(FormatTest, CommitRecordRoundtripReplaysIdentically) {
  auto cvd = core::Cvd::Init("t", V1Table(), PkOptions()).MoveValueOrDie();
  auto pre = cvd->ExportState().MoveValueOrDie();
  core::CvdCommitRecord captured;
  cvd->set_commit_observer([&captured](const core::CvdCommitRecord& record) {
    captured = record;
    return Status::OK();
  });
  auto v2 = cvd->CommitTable(V2Table(), {1}, "v2", "tester");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  Encoder enc;
  EncodeCommitRecord(captured, &enc);
  std::string data = enc.Take();
  Decoder dec(data);
  auto decoded = DecodeCommitRecord(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(dec.AtEnd());
  core::CvdCommitRecord got = decoded.MoveValueOrDie();
  EXPECT_EQ(got.vid, captured.vid);
  EXPECT_EQ(got.parents, captured.parents);
  EXPECT_EQ(got.parent_weights, captured.parent_weights);
  EXPECT_EQ(got.rids, captured.rids);
  EXPECT_EQ(got.next_rid_after, captured.next_rid_after);
  EXPECT_EQ(got.new_records.size(), captured.new_records.size());
  EXPECT_EQ(got.metadata.message, "v2");

  // Replaying the decoded record against the pre-commit state reproduces
  // the post-commit checkout bytes exactly.
  auto replayed = core::Cvd::FromState(pre).MoveValueOrDie();
  ASSERT_TRUE(replayed->ApplyCommitRecord(got).ok());
  EXPECT_EQ(CheckoutCsv(replayed.get(), {2}), CheckoutCsv(cvd.get(), {2}));
}

TEST(FormatTest, V2RepositoryIsRefusedCleanly) {
  // Hand-build a format-v2 repository: a v2 snapshot holding the CVD and an
  // empty v2 WAL, both with the zero header word v2 writers put there. The
  // readers accept only kFormatVersion, so the header refuses the files
  // before any payload is decoded.
  const std::string dir = MakeTempDir();
  auto cvd = MakeCvdWithTwoVersions();
  auto state = cvd->ExportState().MoveValueOrDie();
  {
    Encoder header;
    header.PutU32(2);  // format version 2
    header.PutU32(0);
    header.PutU64(1);
    std::string data(kSnapshotMagic, 8);
    data.append(header.data());
    Encoder enc;
    EncodeCvdState(state, &enc);
    AppendFrame(&data, FrameType::kCvdState, enc.data());
    Encoder footer;
    footer.PutU32(1);
    AppendFrame(&data, FrameType::kFooter, footer.data());
    ASSERT_TRUE(WriteFileAtomic(dir + "/snapshot-1", data, true).ok());
  }
  {
    Encoder header;
    header.PutU32(2);
    header.PutU32(0);
    header.PutU64(1);
    std::string data(kWalMagic, 8);
    data.append(header.data());
    ASSERT_TRUE(WriteFileAtomic(dir + "/wal-1", data, true).ok());
  }
  ASSERT_TRUE(WriteFileAtomic(dir + "/CURRENT", "snapshot-1\n", true).ok());

  auto dir_contents = [&dir] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string& name : ListDir(dir).MoveValueOrDie()) {
      files.emplace_back(name,
                         ReadFileToString(dir + "/" + name).MoveValueOrDie());
    }
    return files;
  };
  const auto before = dir_contents();
  auto expect_refused = [](const Status& s, const std::string& file) {
    EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
    EXPECT_NE(s.message().find(file), std::string::npos) << s.ToString();
    EXPECT_NE(s.message().find("format version 2"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("no longer readable"), std::string::npos)
        << s.ToString();
  };

  auto fsck = Repository::Fsck(dir);
  ASSERT_FALSE(fsck.ok());
  expect_refused(fsck.status(), "snapshot-1");
  auto repo = Repository::Open(dir);
  ASSERT_FALSE(repo.ok());
  expect_refused(repo.status(), "snapshot-1");
  auto wal = ReadWal(dir + "/wal-1");
  ASSERT_FALSE(wal.ok());
  expect_refused(wal.status(), "wal-1");

  // Refusal is read-only: nothing was truncated, rewritten or created.
  EXPECT_EQ(dir_contents(), before);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

TEST_F(StorageTest, SnapshotRoundtrip) {
  auto cvd = MakeCvdWithTwoVersions();
  std::vector<core::CvdState> states;
  states.push_back(cvd->ExportState().MoveValueOrDie());
  const std::string path = dir_ + "/snapshot-9";
  ASSERT_TRUE(WriteSnapshot(path, 9, states).ok());
  auto read = ReadSnapshot(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  SnapshotContents contents = read.MoveValueOrDie();
  EXPECT_EQ(contents.seq, 9u);
  ASSERT_EQ(contents.cvds.size(), 1u);
  auto clone = core::Cvd::FromState(contents.cvds[0]).MoveValueOrDie();
  EXPECT_EQ(CheckoutCsv(clone.get(), {2}), CheckoutCsv(cvd.get(), {2}));
}

TEST_F(StorageTest, SnapshotCorruptionIsDataLossNeverCrash) {
  auto cvd = MakeCvdWithTwoVersions();
  std::vector<core::CvdState> states;
  states.push_back(cvd->ExportState().MoveValueOrDie());
  const std::string path = dir_ + "/snapshot-9";
  ASSERT_TRUE(WriteSnapshot(path, 9, states).ok());
  const std::string pristine = ReadFileToString(path).MoveValueOrDie();

  auto read_mutated = [&](std::string data) {
    ORPHEUS_CHECK_OK(WriteFileAtomic(path, data, /*sync=*/false));
    return ReadSnapshot(path).status();
  };
  auto flipped = [&](size_t i) {
    std::string data = pristine;
    data[i] ^= 0x01;
    return data;
  };

  // Bit-flipped magic.
  Status s = read_mutated(flipped(0));
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  // Unknown format version.
  EXPECT_TRUE(read_mutated(flipped(8)).IsDataLoss());
  // Truncated inside the header.
  EXPECT_TRUE(read_mutated(pristine.substr(0, 10)).IsDataLoss());
  // Truncated mid-frame.
  EXPECT_TRUE(read_mutated(pristine.substr(0, pristine.size() - 5)).IsDataLoss());
  // Footer frame sliced off entirely (truncation on a frame boundary).
  EXPECT_TRUE(
      read_mutated(pristine.substr(0, pristine.size() - kFrameHeaderSize - 4))
          .IsDataLoss());
  // Trailing garbage after the footer.
  EXPECT_TRUE(read_mutated(pristine + "xyz").IsDataLoss());
  // Bit flip inside a frame payload, with the offset reported.
  s = read_mutated(flipped(24 + kFrameHeaderSize + 3));
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("offset"), std::string::npos) << s.ToString();
  // The pristine bytes still read back fine.
  ORPHEUS_CHECK_OK(WriteFileAtomic(path, pristine, /*sync=*/false));
  EXPECT_TRUE(ReadSnapshot(path).ok());
}

// ---------------------------------------------------------------------------
// WAL files
// ---------------------------------------------------------------------------

TEST_F(StorageTest, WalAppendAndReadBack) {
  const std::string path = dir_ + "/wal-5";
  auto writer = WalWriter::Create(path, 5).MoveValueOrDie();
  auto cvd = core::Cvd::Init("t", V1Table(), PkOptions()).MoveValueOrDie();
  WalCreateRecord create{cvd->ExportState().MoveValueOrDie()};
  ASSERT_TRUE(writer.Append(WalRecord{create}).ok());
  ASSERT_TRUE(writer.Append(WalRecord{WalDropRecord{"t"}}).ok());
  ASSERT_TRUE(writer.Close().ok());

  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  WalContents contents = read.MoveValueOrDie();
  EXPECT_EQ(contents.seq, 5u);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<WalCreateRecord>(contents.records[0]));
  EXPECT_TRUE(std::holds_alternative<WalDropRecord>(contents.records[1]));
  EXPECT_EQ(std::get<WalDropRecord>(contents.records[1]).cvd, "t");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(contents.valid_bytes, size.MoveValueOrDie());
}

TEST_F(StorageTest, WalTornTailReportedWithValidPrefix) {
  const std::string path = dir_ + "/wal-5";
  auto writer = WalWriter::Create(path, 5).MoveValueOrDie();
  ASSERT_TRUE(writer.Append(WalRecord{WalDropRecord{"t"}}).ok());
  ASSERT_TRUE(writer.Close().ok());
  const std::string pristine = ReadFileToString(path).MoveValueOrDie();

  // Interrupted append: a few header bytes of a frame that never finished.
  ORPHEUS_CHECK_OK(
      WriteFileAtomic(path, pristine + std::string("\x40\x00\x00", 3),
                      /*sync=*/false));
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  WalContents contents = read.MoveValueOrDie();
  EXPECT_TRUE(contents.torn_tail);
  EXPECT_EQ(contents.valid_bytes, pristine.size());
  EXPECT_EQ(contents.records.size(), 1u);
}

TEST_F(StorageTest, WalMidFileCorruptionIsDataLoss) {
  const std::string path = dir_ + "/wal-5";
  auto writer = WalWriter::Create(path, 5).MoveValueOrDie();
  ASSERT_TRUE(writer.Append(WalRecord{WalDropRecord{"a"}}).ok());
  const uint64_t first_end = writer.offset();
  ASSERT_TRUE(writer.Append(WalRecord{WalDropRecord{"b"}}).ok());
  ASSERT_TRUE(writer.Close().ok());
  std::string data = ReadFileToString(path).MoveValueOrDie();
  data[first_end - 1] ^= 0x01;  // inside the first record, not the tail
  ORPHEUS_CHECK_OK(WriteFileAtomic(path, data, /*sync=*/false));
  auto read = ReadWal(path);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  EXPECT_NE(read.status().message().find(path), std::string::npos);
}

// ---------------------------------------------------------------------------
// Repository lifecycle
// ---------------------------------------------------------------------------

TEST_F(StorageTest, FreshInitLaysOutEpochFiles) {
  auto repo = Repository::Open(dir_).MoveValueOrDie();
  EXPECT_EQ(ReadFileToString(dir_ + "/CURRENT").MoveValueOrDie(),
            "snapshot-1\n");
  EXPECT_TRUE(FileExists(dir_ + "/snapshot-1"));
  EXPECT_TRUE(FileExists(dir_ + "/wal-1"));
  EXPECT_EQ(repo->stats().seq, 1u);
  EXPECT_TRUE(repo->TakeCvds().empty());
  EXPECT_FALSE(repo->degraded());
}

TEST_F(StorageTest, OpenRefusesOrphanEpochFilesWithoutCurrent) {
  // A directory with snapshot/WAL files but no CURRENT means the pointer
  // was lost; silently re-initializing would shadow recoverable data.
  ORPHEUS_CHECK_OK(WriteFileAtomic(dir_ + "/snapshot-3", "x", /*sync=*/false));
  auto repo = Repository::Open(dir_);
  ASSERT_FALSE(repo.ok());
  EXPECT_TRUE(repo.status().IsDataLoss()) << repo.status().ToString();
}

TEST_F(StorageTest, MalformedCurrentIsDataLoss) {
  {
    auto repo = Repository::Open(dir_).MoveValueOrDie();
  }
  ORPHEUS_CHECK_OK(
      WriteFileAtomic(dir_ + "/CURRENT", "not-a-pointer\n", /*sync=*/false));
  auto repo = Repository::Open(dir_);
  ASSERT_FALSE(repo.ok());
  EXPECT_TRUE(repo.status().IsDataLoss()) << repo.status().ToString();
}

TEST_F(StorageTest, ReopenReplaysWalBitIdentically) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));

  auto repo = Repository::Open(dir_).MoveValueOrDie();
  EXPECT_EQ(repo->stats().seq, 1u);
  EXPECT_EQ(repo->stats().wal_records, 2u);  // create + one commit
  EXPECT_FALSE(repo->stats().recovered_torn_tail);
  auto cvds = repo->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  core::Cvd* cvd = cvds[0].get();
  EXPECT_EQ(cvd->name(), "t");
  ASSERT_EQ(cvd->num_versions(), 2);
  EXPECT_EQ(CheckoutCsv(cvd, {1}), goldens.v1);
  EXPECT_EQ(CheckoutCsv(cvd, {2}), goldens.v2);

  // Recovery preserved next_rid and the logical clock: a post-recovery
  // commit produces exactly the checkout the pre-crash clone predicted.
  Repository* raw = repo.get();
  cvd->set_commit_observer([raw](const core::CvdCommitRecord& record) {
    return raw->LogCommit("t", record);
  });
  auto v3 = cvd->CommitTable(V3Table(), {2}, "v3", "tester");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(*v3, 3);
  EXPECT_EQ(CheckoutCsv(cvd, {3}), goldens.v3);

  std::vector<const core::Cvd*> ptrs = {cvd};
  ASSERT_TRUE(repo->Close(ptrs).ok());

  // Close checkpointed into a new epoch and removed the old files.
  EXPECT_EQ(ReadFileToString(dir_ + "/CURRENT").MoveValueOrDie(),
            "snapshot-2\n");
  EXPECT_FALSE(FileExists(dir_ + "/snapshot-1"));
  EXPECT_FALSE(FileExists(dir_ + "/wal-1"));

  auto repo2 = Repository::Open(dir_).MoveValueOrDie();
  EXPECT_EQ(repo2->stats().seq, 2u);
  EXPECT_EQ(repo2->stats().wal_records, 0u);
  auto cvds2 = repo2->TakeCvds();
  ASSERT_EQ(cvds2.size(), 1u);
  ASSERT_EQ(cvds2[0]->num_versions(), 3);
  EXPECT_EQ(CheckoutCsv(cvds2[0].get(), {1}), goldens.v1);
  EXPECT_EQ(CheckoutCsv(cvds2[0].get(), {2}), goldens.v2);
  EXPECT_EQ(CheckoutCsv(cvds2[0].get(), {3}), goldens.v3);
}

TEST_F(StorageTest, DropIsDurable) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));
  {
    auto repo = Repository::Open(dir_).MoveValueOrDie();
    auto cvds = repo->TakeCvds();
    ASSERT_EQ(cvds.size(), 1u);
    ASSERT_TRUE(repo->LogDrop("t").ok());
  }
  auto repo = Repository::Open(dir_).MoveValueOrDie();
  EXPECT_TRUE(repo->TakeCvds().empty());
}

TEST_F(StorageTest, TornWalTailIsTruncatedAndRepaired) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));
  const std::string wal = dir_ + "/wal-1";
  const std::string pristine = ReadFileToString(wal).MoveValueOrDie();
  ORPHEUS_CHECK_OK(
      WriteFileAtomic(wal, pristine + std::string("\x40\x00\x00\x00\x99", 5),
                      /*sync=*/false));

  auto repo = Repository::Open(dir_).MoveValueOrDie();
  EXPECT_TRUE(repo->stats().recovered_torn_tail);
  EXPECT_EQ(FileSize(wal).MoveValueOrDie(), pristine.size());
  auto cvds = repo->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  core::Cvd* cvd = cvds[0].get();
  EXPECT_EQ(CheckoutCsv(cvd, {1}), goldens.v1);
  EXPECT_EQ(CheckoutCsv(cvd, {2}), goldens.v2);

  // The repaired WAL accepts appends again.
  Repository* raw = repo.get();
  cvd->set_commit_observer([raw](const core::CvdCommitRecord& record) {
    return raw->LogCommit("t", record);
  });
  auto v3 = cvd->CommitTable(V3Table(), {2}, "v3", "tester");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(CheckoutCsv(cvd, {3}), goldens.v3);
}

TEST_F(StorageTest, FsckReportsCleanRepository) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));
  auto fsck = Repository::Fsck(dir_);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  std::string joined;
  for (const std::string& line : fsck.MoveValueOrDie()) {
    joined += line;
    joined += '\n';
  }
  EXPECT_NE(joined.find("snapshot-1"), std::string::npos) << joined;
  EXPECT_NE(joined.find("wal-1"), std::string::npos) << joined;
  EXPECT_NE(joined.find("t"), std::string::npos) << joined;

  auto missing = Repository::Fsck(dir_ + "/does-not-exist");
  EXPECT_FALSE(missing.ok());
}

// ---------------------------------------------------------------------------
// Exhaustive single-bit corruption sweeps: recovery must fail cleanly or
// succeed with intact data for every possible one-bit flip — never crash.
// ---------------------------------------------------------------------------

TEST_F(StorageTest, SnapshotByteFlipSweep) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));
  {
    // Checkpoint so the live snapshot actually carries the CVD.
    auto repo = Repository::Open(dir_).MoveValueOrDie();
    auto cvds = repo->TakeCvds();
    ASSERT_EQ(cvds.size(), 1u);
    std::vector<const core::Cvd*> ptrs = {cvds[0].get()};
    ASSERT_TRUE(repo->Close(ptrs).ok());
  }
  const std::string snap = dir_ + "/snapshot-2";
  const std::string pristine = ReadFileToString(snap).MoveValueOrDie();
  ASSERT_GT(pristine.size(), 24u);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] ^= 0x01;
    ASSERT_TRUE(WriteFileAtomic(snap, mutated, /*sync=*/false).ok());
    auto repo = Repository::Open(dir_);
    // Every byte is covered: the formerly-reserved word now holds the
    // header checksum, so even version/seq/checksum flips are caught.
    ASSERT_FALSE(repo.ok()) << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(repo.status().IsDataLoss())
        << "byte " << i << ": " << repo.status().ToString();
  }
  ORPHEUS_CHECK_OK(WriteFileAtomic(snap, pristine, /*sync=*/false));
  EXPECT_TRUE(Repository::Open(dir_).ok());
}

TEST_F(StorageTest, WalByteFlipSweep) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));
  const std::string wal = dir_ + "/wal-1";
  const std::string pristine = ReadFileToString(wal).MoveValueOrDie();
  ASSERT_GT(pristine.size(), 24u);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] ^= 0x01;
    ASSERT_TRUE(WriteFileAtomic(wal, mutated, /*sync=*/false).ok());
    auto repo = Repository::Open(dir_);
    if (!repo.ok()) {
      EXPECT_TRUE(repo.status().IsDataLoss())
          << "byte " << i << ": " << repo.status().ToString();
      continue;
    }
    // A flip in the final frame reads as a torn tail and is truncated
    // away; whatever survives must still be exactly v1 (and v2 when the
    // tail was intact). Committed data is never silently altered.
    auto cvds = repo.MoveValueOrDie()->TakeCvds();
    if (cvds.empty()) continue;  // create record itself truncated
    ASSERT_EQ(cvds.size(), 1u) << "byte " << i;
    core::Cvd* cvd = cvds[0].get();
    ASSERT_LE(cvd->num_versions(), 2) << "byte " << i;
    EXPECT_EQ(CheckoutCsv(cvd, {1}), goldens.v1) << "byte " << i;
    if (cvd->num_versions() == 2) {
      EXPECT_EQ(CheckoutCsv(cvd, {2}), goldens.v2) << "byte " << i;
    }
  }
  ORPHEUS_CHECK_OK(WriteFileAtomic(wal, pristine, /*sync=*/false));
  EXPECT_TRUE(Repository::Open(dir_).ok());
}

#if ORPHEUS_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// Fault injection: error returns
// ---------------------------------------------------------------------------

TEST_F(StorageTest, WalAppendFailureDegradesRepository) {
  auto repo = Repository::Open(dir_).MoveValueOrDie();
  auto cvd = core::Cvd::Init("t", V1Table(), PkOptions()).MoveValueOrDie();
  ASSERT_TRUE(repo->LogCreate(*cvd).ok());
  Repository* raw = repo.get();
  cvd->set_commit_observer([raw](const core::CvdCommitRecord& record) {
    return raw->LogCommit("t", record);
  });
  // Fail before the frame bytes reach the file, so the commit is durably
  // absent (a post-write sync failure may still leave replayable bytes in
  // the page cache — that case is covered by the crash matrix).
  failpoint::Arm("storage.wal.append.frame", failpoint::Action::kError);
  auto v2 = cvd->CommitTable(V2Table(), {1}, "v2");
  EXPECT_FALSE(v2.ok());
  EXPECT_TRUE(repo->degraded());
  failpoint::DisarmAll();
  // Log-before-apply: the failed WAL append must leave NO phantom version
  // in memory. The commit was planned but never applied, so the CVD still
  // has exactly v1 and a checkout of v2 is refused.
  EXPECT_EQ(cvd->num_versions(), 1);
  EXPECT_EQ(cvd->latest(), 1);
  {
    minidb::Database staging;
    EXPECT_FALSE(cvd->Checkout({2}, "phantom", &staging).ok());
  }
  // Degraded mode sticks: the WAL file position is unreliable, so even
  // healthy I/O must be refused until the repository is reopened.
  EXPECT_TRUE(repo->LogDrop("t").IsInternal());
  repo.reset();

  // On-disk state is a consistent v1-only repository: fsck is clean and
  // reopening agrees with memory.
  ASSERT_TRUE(Repository::Fsck(dir_).ok());
  auto reopened = Repository::Open(dir_).MoveValueOrDie();
  auto cvds = reopened->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  EXPECT_EQ(cvds[0]->num_versions(), 1);  // v2 was never acknowledged
  EXPECT_EQ(CheckoutCsv(cvds[0].get(), {1}), CheckoutCsv(cvd.get(), {1}));
}

TEST_F(StorageTest, FailedCheckpointKeepsOldEpochRecoverable) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));
  {
    auto repo = Repository::Open(dir_).MoveValueOrDie();
    auto cvds = repo->TakeCvds();
    ASSERT_EQ(cvds.size(), 1u);
    failpoint::Arm("storage.current.write", failpoint::Action::kError);
    std::vector<const core::Cvd*> ptrs = {cvds[0].get()};
    EXPECT_FALSE(repo->Checkpoint(ptrs).ok());
    failpoint::DisarmAll();
  }
  // CURRENT was never repointed: the old epoch recovers untouched, and the
  // half-written new epoch's files are inert orphans.
  ASSERT_TRUE(Repository::Fsck(dir_).ok());
  auto repo = Repository::Open(dir_).MoveValueOrDie();
  EXPECT_EQ(repo->stats().seq, 1u);
  auto cvds = repo->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  EXPECT_EQ(CheckoutCsv(cvds[0].get(), {1}), goldens.v1);
  EXPECT_EQ(CheckoutCsv(cvds[0].get(), {2}), goldens.v2);
}

// ---------------------------------------------------------------------------
// Fault injection: the crash matrix
// ---------------------------------------------------------------------------

/// What the forked child runs: reopen the repository, commit v3, and close
/// (which checkpoints). The armed failpoint _exit(134)s somewhere in the
/// middle; if everything unexpectedly succeeds that is fine too (the site's
/// nth hit may be past the end of the run). Plain exit codes instead of
/// gtest: the child must never run test machinery.
[[noreturn]] void ChildCommitAndCheckpoint(const std::string& dir) {
  auto repo_or = Repository::Open(dir);
  if (!repo_or.ok()) _exit(7);
  auto repo = repo_or.MoveValueOrDie();
  auto cvds = repo->TakeCvds();
  if (cvds.size() != 1) _exit(7);
  core::Cvd* cvd = cvds[0].get();
  Repository* raw = repo.get();
  cvd->set_commit_observer([raw](const core::CvdCommitRecord& record) {
    return raw->LogCommit("t", record);
  });
  auto v3 = cvd->CommitTable(V3Table(), {2}, "v3", "tester");
  if (!v3.ok()) _exit(7);
  std::vector<const core::Cvd*> ptrs = {cvd};
  if (!repo->Close(ptrs).ok()) _exit(7);
  _exit(0);
}

TEST_F(StorageTest, CrashMatrixRecoversAtEveryFailpoint) {
  struct Site {
    const char* name;
    int max_trigger;  // kill at the 1st..max_trigger'th hit of the site
  };
  static const Site kSites[] = {
      // Generic I/O sites (common/file_util.cc).
      {"io.open", 2},
      {"io.write", 3},
      {"io.sync", 3},
      {"io.close", 2},
      {"io.rename", 2},
      {"io.dirsync", 2},
      {"io.remove", 2},
      // Storage-layer protocol sites.
      {"storage.wal.append.frame", 1},
      {"storage.wal.append.sync", 1},
      {"storage.snapshot.frame", 1},
      {"storage.snapshot.sync", 1},
      {"storage.snapshot.rename", 1},
      {"storage.current.write", 1},
      {"storage.checkpoint.wal_create", 1},
      {"storage.checkpoint.cleanup", 1},
      {"storage.wal.create.header", 1},
      {"storage.wal.create.sync", 1},
  };

  for (const Site& site : kSites) {
    for (int nth = 1; nth <= site.max_trigger; ++nth) {
      SCOPED_TRACE(std::string(site.name) + " hit " + std::to_string(nth));
      const std::string dir = MakeTempDir();
      Goldens goldens;
      ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir, &goldens));

      pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        failpoint::Arm(site.name, failpoint::Action::kAbort, nth);
        ChildCommitAndCheckpoint(dir);  // never returns
      }
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      const int code = WEXITSTATUS(wstatus);
      // 134: the failpoint killed the child mid-operation. 0: the site was
      // hit fewer than `nth` times and the run completed.
      ASSERT_TRUE(code == 0 || code == 134) << "child exit code " << code;

      // Whatever instant the child died at, the directory must fsck clean
      // and reopen with all previously committed versions bit-identical.
      auto fsck = Repository::Fsck(dir);
      ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
      auto repo_or = Repository::Open(dir);
      ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
      auto repo = repo_or.MoveValueOrDie();
      auto cvds = repo->TakeCvds();
      ASSERT_EQ(cvds.size(), 1u);
      core::Cvd* cvd = cvds[0].get();
      ASSERT_GE(cvd->num_versions(), 2);
      EXPECT_EQ(CheckoutCsv(cvd, {1}), goldens.v1);
      EXPECT_EQ(CheckoutCsv(cvd, {2}), goldens.v2);
      // v3 survives iff its WAL append (or the checkpoint containing it)
      // became durable before the kill; when it did, it must be exactly
      // the commit the child was applying.
      if (cvd->num_versions() >= 3) {
        EXPECT_EQ(cvd->num_versions(), 3);
        EXPECT_EQ(CheckoutCsv(cvd, {3}), goldens.v3);
      }
      repo.reset();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
}

/// Torn-batch child: queue TWO commits without waiting (so they flush as
/// one group-commit batch), then arm the bespoke torn-batch site and call
/// WaitCommitDurable — the elected leader writes record 1 whole plus half
/// of record 2, fsyncs that torn prefix, and dies. Exit codes as above.
[[noreturn]] void ChildTornGroupCommitBatch(const std::string& dir) {
  auto repo_or = Repository::Open(dir);
  if (!repo_or.ok()) _exit(7);
  auto repo = repo_or.MoveValueOrDie();
  auto cvds = repo->TakeCvds();
  if (cvds.size() != 1) _exit(7);
  core::Cvd* cvd = cvds[0].get();
  Repository* raw = repo.get();
  std::vector<uint64_t> tickets;
  cvd->set_commit_observer(
      [raw, &tickets](const core::CvdCommitRecord& record) -> Status {
        auto t = raw->EnqueueCommit("t", record);
        if (!t.ok()) return t.status();
        tickets.push_back(t.ValueOrDie());
        return Status::OK();
      });
  if (!cvd->CommitTable(V3Table(), {2}, "v3", "tester").ok()) _exit(7);
  if (!cvd->CommitTable(MakeTable({{1, "a"}, {6, "f"}}), {3}, "v4", "tester")
           .ok()) {
    _exit(7);
  }
  if (tickets.size() != 2) _exit(7);
  failpoint::Arm("storage.wal.append_batch.torn", failpoint::Action::kAbort);
  ORPHEUS_IGNORE_ERROR(repo->WaitCommitDurable(tickets.back()));
  _exit(9);  // the torn-batch site must have fired during the leader flush
}

TEST_F(StorageTest, TornGroupCommitBatchRecoversAppliedPrefix) {
  Goldens goldens;
  ASSERT_NO_FATAL_FAILURE(BuildRepoWithTwoVersions(dir_, &goldens));

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ChildTornGroupCommitBatch(dir_);  // never returns
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 134) << "torn-batch site did not fire";

  // The tear landed BETWEEN records of one batch and the torn prefix was
  // fsynced: recovery must keep the applied prefix (v3, whose record is
  // whole) and truncate the half record — v4/v5 must not exist even as
  // phantoms, and the repository must be fully consistent.
  auto fsck = Repository::Fsck(dir_);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  auto repo_or = Repository::Open(dir_);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  auto repo = repo_or.MoveValueOrDie();
  EXPECT_FALSE(repo->degraded());
  auto cvds = repo->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  core::Cvd* cvd = cvds[0].get();
  EXPECT_EQ(cvd->num_versions(), 3);
  EXPECT_EQ(CheckoutCsv(cvd, {1}), goldens.v1);
  EXPECT_EQ(CheckoutCsv(cvd, {2}), goldens.v2);
  EXPECT_EQ(CheckoutCsv(cvd, {3}), goldens.v3);
  {
    minidb::Database staging;
    EXPECT_FALSE(cvd->Checkout({4}, "phantom", &staging).ok());
  }
  // The repaired WAL must accept new commits: the truncated tail left the
  // file position exactly after v3's record.
  Repository* raw = repo.get();
  cvd->set_commit_observer([raw](const core::CvdCommitRecord& record) {
    return raw->LogCommit("t", record);
  });
  auto v4 = cvd->CommitTable(MakeTable({{1, "a"}, {8, "h"}}), {3}, "v4-retry",
                             "tester");
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  EXPECT_EQ(cvd->num_versions(), 4);
}

// ---------------------------------------------------------------------------
// Group commit: the deadline-bounded durability wait
// ---------------------------------------------------------------------------

TEST_F(StorageTest, WaitCommitDurableForTimesOutBehindStalledLeader) {
  auto repo = Repository::Open(dir_).MoveValueOrDie();
  auto cvd = core::Cvd::Init("t", V1Table(), PkOptions()).MoveValueOrDie();
  ASSERT_TRUE(repo->LogCreate(*cvd).ok());
  Repository* raw = repo.get();
  std::vector<uint64_t> tickets;
  cvd->set_commit_observer(
      [raw, &tickets](const core::CvdCommitRecord& record) -> Status {
        auto t = raw->EnqueueCommit("t", record);
        if (!t.ok()) return t.status();
        tickets.push_back(t.ValueOrDie());
        return Status::OK();
      });
  ASSERT_TRUE(cvd->CommitTable(V2Table(), {1}, "v2", "tester").ok());
  ASSERT_TRUE(cvd->CommitTable(V3Table(), {2}, "v3", "tester").ok());
  ASSERT_EQ(tickets.size(), 2u);

  // Stall the leader's fsync: the follower's bounded wait must give up at
  // its deadline (leaving the commit in flight), not block behind the
  // leader indefinitely.
  failpoint::Arm("storage.wal.append.sync", failpoint::Action::kDelay,
                 /*trigger_at=*/1, /*once=*/true, /*probability=*/1.0,
                 /*delay_ms=*/800);
  Status leader_status;
  DedicatedThread leader("test-leader", [&] {
    leader_status = raw->WaitCommitDurable(tickets[0]);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status bounded =
      raw->WaitCommitDurableFor(tickets[1], Deadline::AfterMillis(100));
  EXPECT_TRUE(bounded.IsDeadlineExceeded()) << bounded.ToString();

  // The timed-out wait abandoned nothing: re-waiting on the SAME ticket
  // resolves once the leader's flush lands (both records were in its
  // batch), exactly like a network client retrying a parked commit.
  Status resolved =
      raw->WaitCommitDurableFor(tickets[1], Deadline::Infinite());
  EXPECT_TRUE(resolved.ok()) << resolved.ToString();
  leader.Join();
  EXPECT_TRUE(leader_status.ok()) << leader_status.ToString();
  EXPECT_FALSE(repo->degraded());

  // Durable means durable: a reopen replays both commits.
  repo.reset();
  auto reopened = Repository::Open(dir_).MoveValueOrDie();
  auto cvds = reopened->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  EXPECT_EQ(cvds[0]->num_versions(), 3);
}

#endif  // ORPHEUS_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// CLI integration: a session survives a process restart
// ---------------------------------------------------------------------------

class StorageCliTest : public StorageTest {
 protected:
  static std::string Ok(cli::CommandProcessor* p, const std::string& line) {
    auto r = p->Execute(line);
    EXPECT_TRUE(r.ok()) << "'" << line << "': " << r.status().ToString();
    return r.ok() ? *r : "";
  }

  static void SeedStagingTable(cli::CommandProcessor* p,
                               const std::string& name) {
    Table t(name,
            Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}));
    ASSERT_TRUE(t.InsertRow({Value(int64_t{1}), Value("a")}).ok());
    ASSERT_TRUE(t.InsertRow({Value(int64_t{2}), Value("b")}).ok());
    ASSERT_TRUE(p->staging()->AdoptTable(std::move(t)).ok());
  }
};

TEST_F(StorageCliTest, SessionSurvivesRestart) {
  std::string golden_v2;
  {
    cli::CommandProcessor session;
    Ok(&session, "open " + dir_);
    ASSERT_NO_FATAL_FAILURE(SeedStagingTable(&session, "stage"));
    Ok(&session, "init Data -t stage -k id");
    Ok(&session, "checkout Data -v 1 -t work");
    Table* work = session.staging()->GetTable("work");
    ASSERT_NE(work, nullptr);
    work->AppendRowUnchecked(
        {Value::Null(), Value(int64_t{3}), Value("c")});
    Ok(&session, "commit -t work -m \"add c\"");
    minidb::Database staging;
    ASSERT_TRUE(session.cvd("Data")->Checkout({2}, "golden", &staging).ok());
    golden_v2 = minidb::ToCsv(*staging.GetTable("golden"));
    Ok(&session, "close");
    // close releases the session CVDs along with the repository.
    EXPECT_EQ(session.cvd("Data"), nullptr);
  }
  {
    cli::CommandProcessor session;
    std::string opened = Ok(&session, "open " + dir_);
    EXPECT_NE(opened.find("1 CVD(s) recovered"), std::string::npos) << opened;
    EXPECT_NE(Ok(&session, "ls").find("Data"), std::string::npos);
    ASSERT_NE(session.cvd("Data"), nullptr);
    minidb::Database staging;
    ASSERT_TRUE(session.cvd("Data")->Checkout({2}, "again", &staging).ok());
    EXPECT_EQ(minidb::ToCsv(*staging.GetTable("again")), golden_v2);
    EXPECT_NE(Ok(&session, "fsck -d " + dir_).find("clean"),
              std::string::npos);
    Ok(&session, "close");
  }
}

TEST_F(StorageCliTest, LogOnlyCommandsRequireOpenRepository) {
  cli::CommandProcessor session;
  auto r = session.Execute("checkpoint");
  EXPECT_FALSE(r.ok());
  r = session.Execute("close");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace orpheus::storage
