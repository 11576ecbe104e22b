// Tests for the orpheusd network layer (DESIGN.md §14): wire codecs,
// handshake, the remote Session API, exactly-once commit retry, leases,
// graceful degradation, and the network chaos matrix — every protocol
// state killed at least once, with full version accounting afterwards.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/validation.h"
#include "core/cvd.h"
#include "core/types.h"
#include "core/validate.h"
#include "minidb/schema.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "session/session.h"
#include "storage/repository.h"

namespace orpheus::net {
namespace {

using core::VersionId;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "orpheus_net_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
  }
  return tmpl;
}

Table MakeSeedTable(const std::vector<std::pair<int64_t, std::string>>& rows) {
  Table t("seed",
          Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}));
  for (const auto& [id, name] : rows) {
    ORPHEUS_CHECK_OK(t.InsertRow({Value(id), Value(name)}));
  }
  return t;
}

std::unique_ptr<core::Cvd> MakeCvd() {
  core::Cvd::Options opts;
  opts.primary_key = {"id"};
  return core::Cvd::Init("t",
                         MakeSeedTable({{1, "alpha"}, {2, "beta"}}), opts)
      .MoveValueOrDie();
}

/// Checked-out staging tables carry (_rid, id, name).
void AddRow(Table* t, int64_t id, const std::string& name) {
  t->AppendRowUnchecked({Value::Null(), Value(id), Value(name)});
}

/// An in-memory server (no repository) over one seed CVD.
std::unique_ptr<SessionServer> StartMemoryServer(ServerOptions options) {
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(MakeCvd());
  auto server = SessionServer::Start(nullptr, std::move(cvds), options);
  ORPHEUS_CHECK_OK(server.status());
  return server.MoveValueOrDie();
}

ClientOptions FastClientOptions(uint64_t seed) {
  ClientOptions opts;
  opts.call_deadline_ms = 5000;
  opts.max_attempts = 10;
  opts.backoff_base_ms = 2;
  opts.backoff_cap_ms = 50;
  opts.jitter_seed = seed;
  return opts;
}

int NumVersions(Client* client) {
  auto cvds = client->Ls();
  ORPHEUS_CHECK_OK(cvds.status());
  EXPECT_EQ(cvds.ValueOrDie().size(), 1u);
  return cvds.ValueOrDie()[0].num_versions;
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { log::SetLevelForTest(log::Level::kError); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST_F(NetTest, HelloRoundtrip) {
  Hello hello;
  hello.magic = kNetMagic;
  hello.protocol_version = 7;
  hello.client_uuid = "client-42";
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().magic, kNetMagic);
  EXPECT_EQ(decoded.ValueOrDie().protocol_version, 7u);
  EXPECT_EQ(decoded.ValueOrDie().client_uuid, "client-42");
}

TEST_F(NetTest, HelloAckRoundtrip) {
  HelloAck ack;
  ack.protocol_version = 3;
  ack.server_id = "srv";
  ack.degraded = true;
  ack.code = static_cast<uint8_t>(StatusCode::kNotSupported);
  ack.message = "nope";
  auto decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().protocol_version, 3u);
  EXPECT_EQ(decoded.ValueOrDie().server_id, "srv");
  EXPECT_TRUE(decoded.ValueOrDie().degraded);
  EXPECT_EQ(decoded.ValueOrDie().code,
            static_cast<uint8_t>(StatusCode::kNotSupported));
  EXPECT_EQ(decoded.ValueOrDie().message, "nope");
}

TEST_F(NetTest, RequestRoundtripWithTable) {
  Request req;
  req.op = Op::kCommit;
  req.request_seq = 99;
  req.acked_seq = 42;
  req.sid = 7;
  req.deadline_ms = 1234;
  req.table_name = "w";
  req.message = "msg";
  req.author = "alice";
  Table staged("w", Schema({{"id", ValueType::kInt64},
                            {"name", ValueType::kString}}));
  ORPHEUS_CHECK_OK(staged.InsertRow({Value(int64_t{5}), Value("five")}));
  req.table = &staged;
  req.deleted = {2, 3, 40};

  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Request& out = decoded.ValueOrDie();
  EXPECT_EQ(out.op, Op::kCommit);
  EXPECT_EQ(out.request_seq, 99u);
  EXPECT_EQ(out.acked_seq, 42u);
  EXPECT_EQ(out.sid, 7u);
  EXPECT_EQ(out.deadline_ms, 1234);
  EXPECT_EQ(out.table_name, "w");
  EXPECT_EQ(out.message, "msg");
  EXPECT_EQ(out.author, "alice");
  ASSERT_NE(out.table, nullptr);
  EXPECT_EQ(out.table->num_rows(), 1u);
  EXPECT_EQ(out.table->GetValue(0, 1).ToString(), "five");
  EXPECT_EQ(out.deleted, (std::vector<core::RecordId>{2, 3, 40}));
}

TEST_F(NetTest, RequestRoundtripCheckout) {
  Request req;
  req.op = Op::kCheckout;
  req.request_seq = 3;
  req.sid = 1;
  req.vids = {1, 4, 9};
  req.table_name = "w";
  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().vids, (std::vector<VersionId>{1, 4, 9}));
}

TEST_F(NetTest, ResponseRoundtripCommitOutcome) {
  Response resp;
  resp.request_seq = 8;
  resp.op = Op::kCommit;
  resp.outcome.vid = 12;
  resp.outcome.merged_vid = 13;
  resp.outcome.reconciled_with = 11;
  resp.outcome.reconciled = true;
  session::MergeConflict conflict;
  conflict.key = "k";
  conflict.attribute = "name";
  conflict.base = "a";
  conflict.ours = "b";
  conflict.theirs = "c";
  resp.outcome.conflicts.push_back(conflict);

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Response& out = decoded.ValueOrDie();
  EXPECT_EQ(out.request_seq, 8u);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.outcome.vid, 12);
  EXPECT_EQ(out.outcome.merged_vid, 13);
  EXPECT_EQ(out.outcome.reconciled_with, 11);
  EXPECT_TRUE(out.outcome.reconciled);
  ASSERT_EQ(out.outcome.conflicts.size(), 1u);
  EXPECT_EQ(out.outcome.conflicts[0].attribute, "name");
  EXPECT_EQ(out.outcome.conflicts[0].theirs, "c");
}

TEST_F(NetTest, ResponseRoundtripError) {
  Response resp;
  resp.request_seq = 4;
  resp.op = Op::kCommit;
  resp.SetStatus(Status::Unavailable("busy"), /*transient=*/true);
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.ValueOrDie().ok());
  EXPECT_TRUE(decoded.ValueOrDie().retryable);
  Status s = decoded.ValueOrDie().ToStatus();
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(s.message(), "busy");
}

TEST_F(NetTest, ResponseRoundtripLs) {
  Response resp;
  resp.op = Op::kLs;
  CvdSummary summary;
  summary.name = "t";
  summary.num_versions = 4;
  summary.watermark = 4;
  summary.open_sessions = 2;
  summary.failed = true;
  resp.cvds.push_back(summary);
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.ValueOrDie().cvds.size(), 1u);
  EXPECT_EQ(decoded.ValueOrDie().cvds[0].name, "t");
  EXPECT_EQ(decoded.ValueOrDie().cvds[0].num_versions, 4);
  EXPECT_TRUE(decoded.ValueOrDie().cvds[0].failed);
}

TEST_F(NetTest, DecodeRejectsTruncatedPayload) {
  Request req;
  req.op = Op::kCommit;
  req.request_seq = 1;
  req.table_name = "w";
  std::string encoded = EncodeRequest(req);
  for (size_t cut : {size_t{0}, size_t{1}, encoded.size() / 2,
                     encoded.size() - 1}) {
    EXPECT_FALSE(DecodeRequest(encoded.substr(0, cut)).ok())
        << "decoded a request truncated to " << cut << " bytes";
  }
}

/// One column of every ValueType, a NULL in each, an empty string, and
/// both a plain (short, unsorted) and a packed (compressed) int array.
Table EveryTypeTable() {
  Table t("every", Schema({{"n", ValueType::kNull},
                           {"i", ValueType::kInt64},
                           {"d", ValueType::kDouble},
                           {"s", ValueType::kString},
                           {"a", ValueType::kIntArray}}));
  std::vector<int64_t> packed(40);
  for (size_t i = 0; i < packed.size(); ++i) packed[i] = 3 * i + 1;
  ORPHEUS_CHECK_OK(t.InsertRow({Value::Null(), Value(int64_t{-7}),
                                Value(2.5), Value(""),
                                Value(std::vector<int64_t>{9, 3, 5})}));
  ORPHEUS_CHECK_OK(t.InsertRow({Value::Null(), Value::Null(), Value::Null(),
                                Value::Null(), Value::Null()}));
  ORPHEUS_CHECK_OK(t.InsertRow({Value::Null(), Value(int64_t{1} << 62),
                                Value(-0.125), Value("hello"),
                                Value(packed)}));
  ORPHEUS_CHECK_OK(t.InsertRow({Value::Null(), Value(int64_t{0}),
                                Value(1e300), Value(std::string("a\0b", 3)),
                                Value(std::vector<int64_t>{})}));
  return t;
}

/// Cell-for-cell equality, including which cells are NULL.
void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_TRUE(a.schema() == b.schema())
      << a.schema().ToString() << " vs " << b.schema().ToString();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (uint32_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.column(c).IsNull(r), b.column(c).IsNull(r))
          << "row " << r << " column " << c;
      EXPECT_TRUE(a.GetValue(r, c) == b.GetValue(r, c))
          << "row " << r << " column " << c << ": "
          << a.GetValue(r, c).ToString() << " vs "
          << b.GetValue(r, c).ToString();
    }
  }
}

Result<Table> TableRoundTrip(const Table& table) {
  storage::Encoder enc;
  EncodeTable(table, &enc);
  storage::Decoder dec(enc.data());
  ORPHEUS_ASSIGN_OR_RETURN(Table out, DecodeTable(&dec));
  if (!dec.AtEnd()) return Status::Internal("trailing bytes after table");
  return out;
}

TEST_F(NetTest, TableCodecRoundTripsEveryType) {
  const Table table = EveryTypeTable();
  ASSERT_NE(table.column(4).GetRidSet(2), nullptr) << "packed cell expected";
  ASSERT_EQ(table.column(4).GetRidSet(0), nullptr) << "plain cell expected";
  auto decoded = TableRoundTrip(table);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameTable(table, decoded.ValueOrDie());
  EXPECT_NE(decoded.ValueOrDie().column(4).GetRidSet(2), nullptr);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_TRUE(decoded.ValueOrDie().column(c).IsNull(1)) << "column " << c;
  }

  Table empty("empty", table.schema());
  auto decoded_empty = TableRoundTrip(empty);
  ASSERT_TRUE(decoded_empty.ok()) << decoded_empty.status().ToString();
  ExpectSameTable(empty, decoded_empty.ValueOrDie());
}

std::string EncodedSelection(const core::RowSelection& sel,
                             std::string_view name) {
  storage::Encoder enc;
  EncodeSelection(sel, name, &enc);
  return enc.Take();
}

std::string EncodedTable(const Table& table) {
  storage::Encoder enc;
  EncodeTable(table, &enc);
  return enc.Take();
}

TEST_F(NetTest, SelectionCodecMatchesEncodedCopy) {
  Table table = EveryTypeTable();
  // NULL cells whose physical slots still hold values encode as zero slots.
  table.SetRow(2, minidb::Row(table.num_columns(), Value::Null()));
  core::RowSelection sel;
  sel.table = &table;
  sel.rows = {3, 1, 2, 0, 1};
  sel.cols = {4, 0, 3, 2, 1, 3};
  const Table copy = table.ProjectRows(sel.rows, sel.cols, "copy");
  EXPECT_EQ(EncodedSelection(sel, "copy"), EncodedTable(copy));
  // Without NULLs among the selected rows the numeric columns gather.
  sel.rows = {3, 0, 0};
  EXPECT_EQ(EncodedSelection(sel, "copy"),
            EncodedTable(table.ProjectRows(sel.rows, sel.cols, "copy")));
  sel.rows.clear();
  EXPECT_EQ(EncodedSelection(sel, "copy"),
            EncodedTable(table.ProjectRows(sel.rows, sel.cols, "copy")));
}

void SetCell(Table* table, uint32_t row, size_t col, Value value) {
  minidb::Row cells = table->GetRow(row);
  cells[col] = std::move(value);
  table->SetRow(row, cells);
}

/// A CVD history with NULLs, doubles and strings, and attributes added and
/// widened after records were stored: v1 is the seed; v2 edits, deletes
/// and adds rows of v1; v3 adds the attribute `note` to v1, set on new rows
/// only; v4 widens `count` of v3 from int64 to double and edits a row.
std::unique_ptr<core::Cvd> EvolvedCvd(core::DataModelType model) {
  Table seed("seed", Schema({{"id", ValueType::kInt64},
                             {"score", ValueType::kDouble},
                             {"name", ValueType::kString},
                             {"count", ValueType::kInt64}}));
  for (int64_t id = 1; id <= 40; ++id) {
    ORPHEUS_CHECK_OK(seed.InsertRow(
        {Value(id), id % 7 == 0 ? Value::Null() : Value(id * 0.5 - 3),
         id % 5 == 0 ? Value::Null() : Value("n" + std::to_string(id)),
         id % 6 == 0 ? Value::Null() : Value(id * 11)}));
  }
  core::Cvd::Options opts;
  opts.model = model;
  opts.primary_key = {"id"};
  auto cvd = core::Cvd::Init("t", seed, opts).MoveValueOrDie();
  auto commit = [&](const Table& t, VersionId parent) {
    ORPHEUS_CHECK_OK(cvd->CommitTable(t, {parent}, "edit").status());
  };

  Table v2 = cvd->Materialize({1}, "v2").MoveValueOrDie();
  for (uint32_t r = 0; r < v2.num_rows(); r += 4) {
    SetCell(&v2, r, 2, Value(-1.25 * r));
  }
  v2.DeleteRows({1, 9, 17});
  v2.AppendRowUnchecked({Value::Null(), Value(int64_t{41}), Value::Null(),
                         Value("fresh"), Value(int64_t{7})});
  commit(v2, 1);

  Table v3 = cvd->Materialize({1}, "v3").MoveValueOrDie();
  ORPHEUS_CHECK_OK(v3.AddColumn({"note", ValueType::kString}));
  for (uint32_t r = 0; r < 6; ++r) {
    SetCell(&v3, r, 5, Value("note" + std::to_string(r)));
  }
  v3.AppendRowUnchecked({Value::Null(), Value(int64_t{42}), Value(0.5),
                         Value::Null(), Value(int64_t{1}), Value("late")});
  commit(v3, 1);

  Table v4 = cvd->Materialize({3}, "v4").MoveValueOrDie();
  ORPHEUS_CHECK_OK(v4.WidenColumn(4, ValueType::kDouble));
  SetCell(&v4, 0, 4, Value(2.75));
  commit(v4, 3);
  return cvd;
}

class SelectionCodecTest
    : public ::testing::TestWithParam<core::DataModelType> {};

TEST_P(SelectionCodecTest, RepliesMatchEncodedMaterialize) {
  auto cvd = EvolvedCvd(GetParam());
  ASSERT_EQ(cvd->num_versions(), 4);
  const Schema& schema = cvd->backend()->data_schema();
  ASSERT_EQ(schema.num_columns(), 5u);
  EXPECT_EQ(schema.column(3).type, ValueType::kDouble);
  EXPECT_EQ(schema.column(4).name, "note");
  for (const std::vector<VersionId>& vids :
       std::vector<std::vector<VersionId>>{
           {1}, {2}, {3}, {4}, {2, 1}, {4, 2}, {3, 4}, {1, 4}}) {
    auto sel = cvd->Select(vids);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    const std::string gathered = EncodedSelection(*sel, "co");
    auto table = cvd->Materialize(vids, "co");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(gathered, EncodedTable(*table))
        << "versions " << vids[0] << (vids.size() > 1 ? ",..." : "");
    if (vids.size() > 1) continue;
    // Independently of Select: one row per member record, each holding the
    // record's payload at the current schema.
    storage::Decoder dec(gathered);
    auto decoded = DecodeTable(&dec);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto members = cvd->VersionRecords(vids[0]).MoveValueOrDie();
    ASSERT_EQ(decoded->num_rows(), members.size()) << "v" << vids[0];
    for (uint32_t r = 0; r < decoded->num_rows(); ++r) {
      const minidb::Row row = decoded->GetRow(r);
      const core::RecordId rid = row[0].AsInt();
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), rid));
      const minidb::Row payload =
          cvd->RecordPayload(rid, vids[0]).MoveValueOrDie();
      EXPECT_EQ(minidb::Row(row.begin() + 1, row.end()), payload)
          << "v" << vids[0] << " rid " << rid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, SelectionCodecTest,
    ::testing::Values(core::DataModelType::kATablePerVersion,
                      core::DataModelType::kCombinedTable,
                      core::DataModelType::kSplitByVlist,
                      core::DataModelType::kSplitByRlist,
                      core::DataModelType::kDeltaBased),
    [](const ::testing::TestParamInfo<core::DataModelType>& info) {
      std::string name = core::DataModelTypeName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_F(NetTest, DecodeTableBoundsClaimedRowCount) {
  // name "t", zero columns, then a row count: 13 bytes claiming 50M rows
  // (or 2^32 - 1) must not decode into a giant zero-width table.
  for (uint32_t nrows : {50000000u, 0xFFFFFFFFu}) {
    storage::Encoder enc;
    enc.PutString("t");
    enc.PutU32(0);
    enc.PutU32(nrows);
    ASSERT_EQ(enc.data().size(), 13u);
    storage::Decoder dec(enc.data());
    Timer timer;
    auto decoded = DecodeTable(&dec);
    EXPECT_LT(timer.ElapsedMillis(), 100.0);
    ASSERT_FALSE(decoded.ok()) << nrows << " rows accepted";
    EXPECT_TRUE(decoded.status().IsDataLoss())
        << decoded.status().ToString();
  }
  // One int64 column cannot hold more rows than its bytes allow.
  storage::Encoder enc;
  enc.PutString("t");
  enc.PutU32(1);
  enc.PutString("x");
  enc.PutU8(static_cast<uint8_t>(ValueType::kInt64));
  enc.PutU32(1000);
  enc.PutU8(static_cast<uint8_t>(ValueType::kInt64));
  enc.PutU8(0);
  for (int i = 0; i < 999; ++i) enc.PutI64(i);
  storage::Decoder dec(enc.data());
  auto decoded = DecodeTable(&dec);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

/// A decoded message either failed or carries a well-formed table: every
/// column as long as the table and typed as its schema says, every cell
/// readable and NULL exactly where its validity says.
void ExpectWellFormed(const Table* table) {
  if (table == nullptr) return;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    ASSERT_EQ(table->column(c).size(), table->num_rows());
    ASSERT_EQ(table->column(c).type(), table->schema().column(c).type);
    for (uint32_t r = 0; r < table->num_rows(); ++r) {
      EXPECT_EQ(table->GetValue(r, c).is_null(), table->column(c).IsNull(r));
    }
  }
}

/// Decode every truncation of `encoded` and every single-byte flip of its
/// bytes from `table_start` on: none may crash, hang or yield a malformed
/// table.
template <typename Decode>
void SweepCutsAndFlips(const std::string& encoded, size_t table_start,
                       Decode decode) {
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = decode(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "decoded a message cut to " << cut;
  }
  std::string mutated = encoded;
  for (size_t pos = table_start; pos < encoded.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      mutated[pos] = static_cast<char>(encoded[pos] ^ mask);
      auto decoded = decode(mutated);
      if (decoded.ok()) {
        ExpectWellFormed(decoded.ValueOrDie().decoded_table.get());
      }
      mutated[pos] = encoded[pos];
    }
  }
}

TEST_F(NetTest, DecodeSurvivesEveryCutAndFlipOfTableMessages) {
  const Table table = EveryTypeTable();
  storage::Encoder table_enc;
  EncodeTable(table, &table_enc);
  const size_t table_size = table_enc.data().size();

  // A v3 commit request: the changeset's deleted rids (raw and packed
  // lists), then the shipped table. The sweep flips every changeset byte.
  std::vector<core::RecordId> packed(300);
  for (size_t i = 0; i < packed.size(); ++i) packed[i] = 2 * i + 7;
  for (const std::vector<core::RecordId>& deleted :
       {std::vector<core::RecordId>{3, 9, 12}, packed}) {
    storage::Encoder deleted_enc;
    storage::EncodeRidList(deleted, &deleted_enc);
    Request req;
    req.op = Op::kCommit;
    req.request_seq = 5;
    req.sid = 2;
    req.table_name = "every";
    req.message = "m";
    req.deleted = deleted;
    req.table = &table;
    const std::string request = EncodeRequest(req);
    SweepCutsAndFlips(
        request, request.size() - table_size - deleted_enc.data().size(),
        [](std::string_view b) { return DecodeRequest(b); });
  }

  Response resp;
  resp.op = Op::kCheckout;
  resp.request_seq = 5;
  const std::string response = EncodeCheckoutResponse(
      resp, core::RowSelection::All(table), table.name());
  SweepCutsAndFlips(response, response.size() - table_size,
                    [](std::string_view b) { return DecodeResponse(b); });
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Send one Hello to a fresh server and return its HelloAck.
HelloAck HandshakeWith(const std::string& magic, uint32_t version,
                       const std::string& client_uuid) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  auto connected =
      Socket::Connect(server->address(), Deadline::AfterMillis(2000));
  ORPHEUS_CHECK_OK(connected.status());
  Socket sock = connected.MoveValueOrDie();
  Hello hello;
  hello.magic = magic;
  hello.protocol_version = version;
  hello.client_uuid = client_uuid;
  ORPHEUS_CHECK_OK(SendMessage(&sock, MsgType::kHello, EncodeHello(hello),
                               Deadline::AfterMillis(2000)));
  MsgType type;
  std::string payload;
  ORPHEUS_CHECK_OK(
      RecvMessage(&sock, &type, &payload, Deadline::AfterMillis(2000)));
  EXPECT_EQ(type, MsgType::kHelloAck);
  auto ack = DecodeHelloAck(payload);
  ORPHEUS_CHECK_OK(ack.status());
  return ack.MoveValueOrDie();
}

TEST_F(NetTest, HandshakeRejectsVersionMismatch) {
  const HelloAck ack = HandshakeWith(kNetMagic, 99, "future-client");
  EXPECT_EQ(ack.code, static_cast<uint8_t>(StatusCode::kNotSupported));
  EXPECT_NE(ack.message.find("version"), std::string::npos);
}

TEST_F(NetTest, HandshakeRefusesV1Client) {
  // v1 shipped tables row-major; a v1 peer must be refused, not misparsed.
  ASSERT_EQ(kProtocolVersion, 3u);
  const HelloAck ack = HandshakeWith(kNetMagic, 1, "v1-client");
  EXPECT_EQ(ack.code, static_cast<uint8_t>(StatusCode::kNotSupported));
  EXPECT_NE(ack.message.find("v1"), std::string::npos);
}

TEST_F(NetTest, HandshakeRefusesV2Client) {
  // v2 committed whole tables; its commit request would misparse as a
  // changeset, so a v2 peer is refused at the handshake.
  ASSERT_EQ(kProtocolVersion, 3u);
  const HelloAck ack = HandshakeWith(kNetMagic, 2, "v2-client");
  EXPECT_EQ(ack.code, static_cast<uint8_t>(StatusCode::kNotSupported));
  EXPECT_NE(ack.message.find("v2"), std::string::npos);
}

TEST_F(NetTest, HandshakeRejectsBadMagic) {
  const HelloAck ack = HandshakeWith("NOTORPH1", kProtocolVersion, "x");
  EXPECT_EQ(ack.code, static_cast<uint8_t>(StatusCode::kInvalidArgument));
}

// ---------------------------------------------------------------------------
// Basic remote session lifecycle
// ---------------------------------------------------------------------------

void RunLifecycle(const std::string& listen) {
  ServerOptions options;
  options.listen = listen;
  auto server = StartMemoryServer(options);

  auto client = Client::Connect(server->address(), FastClientOptions(1));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();
  EXPECT_FALSE(c->server_degraded());

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.ValueOrDie().watermark, 1);

  auto missing = c->Open("nope");
  EXPECT_TRUE(missing.status().IsNotFound());

  const uint64_t sid = opened.ValueOrDie().sid;
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table table = checked.MoveValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);

  AddRow(&table, 3, "gamma");
  auto outcome = c->Commit(sid, table, "add gamma", "tester");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome.ValueOrDie().vid, core::kInvalidVersion);
  EXPECT_TRUE(outcome.ValueOrDie().conflicts.empty());

  auto refreshed = c->Refresh(sid);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.ValueOrDie(), outcome.ValueOrDie().vid);

  // The committed version materializes with the new row.
  auto again = c->Checkout(sid, {outcome.ValueOrDie().vid}, "w2");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie().num_rows(), 3u);

  auto lease = c->Heartbeat(sid);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_GT(lease.ValueOrDie(), 0);

  EXPECT_EQ(NumVersions(c), 2);
  ORPHEUS_CHECK_OK(c->CloseSession(sid));
  ORPHEUS_CHECK_OK(c->CloseSession(sid));  // idempotent
  EXPECT_EQ(server->stats().sessions_open, 0u);
}

TEST_F(NetTest, LifecycleOverUnixSocket) {
  RunLifecycle("unix:" + MakeTempDir() + "/sock");
}

TEST_F(NetTest, LifecycleOverLoopbackTcp) { RunLifecycle("tcp:0"); }

/// A field of this process's /proc/self/status ("VmSize" in kB,
/// "Threads"), or -1 when it cannot be read.
int64_t ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::strtoll(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

TEST_F(NetTest, SequentialConnectionsDoNotAccumulateHandlers) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto cycle = [&] {
    auto client = Client::Connect(server->address(), FastClientOptions(1));
    ORPHEUS_CHECK_OK(client.status());
    EXPECT_EQ(NumVersions(client.ValueOrDie().get()), 1);
  };
  // Warm up allocator arenas and the thread-stack cache first.
  for (int i = 0; i < 20; ++i) cycle();
  const int64_t vm_kb = ProcStatus("VmSize");
  const int64_t threads = ProcStatus("Threads");
  ASSERT_GT(vm_kb, 0);
  ASSERT_GT(threads, 0);
  for (int i = 0; i < 500; ++i) cycle();
  // A handler that outlived its connection kept its ~8 MB stack mapped:
  // 500 of them would add ~4 GB. Joined, they add at most a one-off for
  // two handlers alive at once: a second cached stack and a 64 MB malloc
  // arena (~72 MB on glibc).
  EXPECT_LT(ProcStatus("VmSize") - vm_kb, 256 * 1024);
  EXPECT_LE(ProcStatus("Threads") - threads, 2);
  EXPECT_EQ(server->stats().connections, 520u);
}

TEST_F(NetTest, ListenerRejectsNonLoopbackTcp) {
  EXPECT_FALSE(Listener::Listen("tcp:8.8.8.8:1234").ok());
}

// ---------------------------------------------------------------------------
// Changeset commits (protocol v3)
// ---------------------------------------------------------------------------

/// A hand-driven peer: handshakes as `client_uuid`, then sends requests
/// exactly as given (no client-side diff), one response per request.
class RawPeer {
 public:
  RawPeer(const std::string& address, const std::string& client_uuid) {
    auto connected = Socket::Connect(address, Deadline::AfterMillis(2000));
    ORPHEUS_CHECK_OK(connected.status());
    sock_ = connected.MoveValueOrDie();
    Hello hello;
    hello.magic = kNetMagic;
    hello.client_uuid = client_uuid;
    ORPHEUS_CHECK_OK(SendMessage(&sock_, MsgType::kHello, EncodeHello(hello),
                                 Deadline::AfterMillis(2000)));
    MsgType type;
    std::string payload;
    ORPHEUS_CHECK_OK(
        RecvMessage(&sock_, &type, &payload, Deadline::AfterMillis(2000)));
    ORPHEUS_CHECK_OK(DecodeHelloAck(payload).status());
  }

  Response Call(Request* req) {
    req->request_seq = next_seq_++;
    ORPHEUS_CHECK_OK(SendMessage(&sock_, MsgType::kRequest,
                                 EncodeRequest(*req),
                                 Deadline::AfterMillis(5000)));
    MsgType type;
    std::string payload;
    ORPHEUS_CHECK_OK(
        RecvMessage(&sock_, &type, &payload, Deadline::AfterMillis(5000)));
    auto resp = DecodeResponse(payload);
    ORPHEUS_CHECK_OK(resp.status());
    return resp.MoveValueOrDie();
  }

 private:
  Socket sock_;
  uint64_t next_seq_ = 1;
};

// A changeset the checkout cannot back is refused with InvalidArgument:
// the server never trusts the client's diff beyond "these rows are
// unchanged", and a refused changeset leaves the checkout committable.
TEST_F(NetTest, HostileChangesetsAreRefused) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  RawPeer peer(server->address(), "hostile");

  Request open;
  open.op = Op::kOpen;
  open.cvd = "t";
  const uint64_t sid = peer.Call(&open).sid;
  Request checkout;
  checkout.op = Op::kCheckout;
  checkout.sid = sid;
  checkout.vids = {1};
  checkout.table_name = "w";
  Response checked = peer.Call(&checkout);
  ASSERT_TRUE(checked.ok()) << checked.message;
  const Table& base = *checked.decoded_table;
  ASSERT_EQ(base.num_rows(), 2u);
  const core::RecordId r0 = base.GetValue(0, 0).AsInt();
  const core::RecordId r1 = base.GetValue(1, 0).AsInt();

  Table no_rows = base.CopyRows({}, "w");
  Table narrow("w", Schema({{"_rid", ValueType::kInt64},
                            {"id", ValueType::kInt64}}));
  Table no_rid("w", Schema({{"id", ValueType::kInt64},
                            {"name", ValueType::kString}}));
  const struct {
    const char* what;
    std::vector<core::RecordId> deleted;
    const Table* rows;
  } kHostile[] = {
      {"deleted rid outside the checkout", {r0, 999}, &no_rows},
      {"unsorted deleted rids", {r1, r0}, &no_rows},
      {"repeated deleted rid", {r0, r0}, &no_rows},
      {"wrong-arity table while carrying", {r0}, &narrow},
      {"table without _rid while carrying", {}, &no_rid},
      {"no changeset", {}, nullptr},
  };
  for (const auto& hostile : kHostile) {
    SCOPED_TRACE(hostile.what);
    Request commit;
    commit.op = Op::kCommit;
    commit.sid = sid;
    commit.table_name = "w";
    commit.deleted = hostile.deleted;
    commit.table = hostile.rows;
    const Response refused = peer.Call(&commit);
    EXPECT_EQ(refused.code,
              static_cast<uint8_t>(StatusCode::kInvalidArgument))
        << refused.message;
    EXPECT_FALSE(refused.retryable);
  }

  // The checkout survived: deleting one row and keeping the other commits.
  Request commit;
  commit.op = Op::kCommit;
  commit.sid = sid;
  commit.table_name = "w";
  commit.deleted = {r1};
  commit.table = &no_rows;
  const Response ok = peer.Call(&commit);
  ASSERT_TRUE(ok.ok()) << ok.message;
  auto client = Client::Connect(server->address(), FastClientOptions(30));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(NumVersions(client.ValueOrDie().get()), 2);
  ValidationReport report;
  ORPHEUS_CHECK_OK(server->manager("t")->ReadCvd([&](const core::Cvd& cvd) {
    EXPECT_EQ(cvd.VersionRecords(2).ValueOrDie(),
              (std::vector<core::RecordId>{r0}));
    core::ValidateCvd(cvd, &report);
    return Status::OK();
  }));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// A checkout stays committable until its commit lands: a refused commit
// can be fixed and committed again; after a landed commit, a re-checkout
// (even one that fails) or a closed session, committing it is NotFound;
// and only the table the latest checkout of a name returned commits.
TEST_F(NetTest, ClientCheckoutsLiveUntilCommitted) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(31));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();
  const uint64_t sid = c->Open("t").ValueOrDie().sid;

  Table first = c->Checkout(sid, {1}, "w").MoveValueOrDie();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(c->Checkout(sid, {1}, "w").ok());
  Table w = c->Checkout(sid, {1}, "w").MoveValueOrDie();
  AddRow(&first, 3, "stale");
  EXPECT_TRUE(c->Commit(sid, first, "stale", "tester")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(c->Commit(sid, w.Clone("w"), "copy", "tester")
                  .status()
                  .IsInvalidArgument());
  AddRow(&w, 1, "duplicate key");
  auto refused = c->Commit(sid, w, "bad", "tester");
  EXPECT_TRUE(refused.status().IsConstraintViolation())
      << refused.status().ToString();
  w.DeleteRows({static_cast<uint32_t>(w.num_rows() - 1)});
  AddRow(&w, 3, "gamma");
  ASSERT_TRUE(c->Commit(sid, w, "fixed", "tester").ok());
  EXPECT_TRUE(c->Commit(sid, w, "again", "tester").status().IsNotFound());

  Table a = c->Checkout(sid, {1}, "a").MoveValueOrDie();
  Table b = c->Checkout(sid, {2}, "b").MoveValueOrDie();
  EXPECT_FALSE(c->Checkout(sid, {99}, "b").ok());
  EXPECT_TRUE(c->Commit(sid, b, "replaced", "tester").status().IsNotFound());
  ORPHEUS_CHECK_OK(c->CloseSession(sid));
  EXPECT_TRUE(c->Commit(sid, a, "closed", "tester").status().IsNotFound());
  EXPECT_EQ(NumVersions(c), 2);
}

// ---------------------------------------------------------------------------
// Exactly-once commit retry
// ---------------------------------------------------------------------------

// Requests dispatch in order open(1), checkout(2), commit(3): the drop
// sites below use those hit ordinals to kill the commit exchange exactly.

TEST_F(NetTest, LostCommitAckReplaysOriginalResult) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(2));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // Hit ordinals count from arming: open=1, checkout=2, commit=3. The
  // commit EXECUTES, then its ACK is lost: the retry must replay the
  // recorded verdict, not commit a second time.
  failpoint::Arm("net.server.drop_before_send", failpoint::Action::kError,
                 /*trigger_at=*/3, /*once=*/true);

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table table = checked.MoveValueOrDie();
  AddRow(&table, 3, "gamma");

  auto outcome = c->Commit(sid, table, "add gamma", "tester");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome.ValueOrDie().vid, core::kInvalidVersion);
  EXPECT_GE(c->stats().retries, 1u);

  SessionServer::Stats stats = server->stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_GE(stats.commits_replayed, 1u);
  EXPECT_EQ(NumVersions(c), 2);  // exactly one new version — no duplicate
}

TEST_F(NetTest, DroppedCommitRequestExecutesOnce) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // The commit request (hit 3: open=1, checkout=2) is read, then the
  // connection dies BEFORE dispatch: nothing executed, so the retry
  // performs the one and only commit.
  failpoint::Arm("net.server.drop_after_read", failpoint::Action::kError,
                 /*trigger_at=*/3, /*once=*/true);

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table table = checked.MoveValueOrDie();
  AddRow(&table, 4, "delta");

  auto outcome = c->Commit(sid, table, "add delta", "tester");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  SessionServer::Stats stats = server->stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(NumVersions(c), 2);
}

TEST_F(NetTest, RetriedOpenReturnsOriginalSid) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(4));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // Open's ACK is lost: the retry must get the SAME sid back rather than
  // leak a second server-side session.
  failpoint::Arm("net.server.drop_before_send", failpoint::Action::kError,
                 /*trigger_at=*/1, /*once=*/true);
  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(server->stats().sessions_open, 1u);
  // The replayed sid really works.
  auto checked = c->Checkout(opened.ValueOrDie().sid, {1}, "w");
  EXPECT_TRUE(checked.ok()) << checked.status().ToString();
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

TEST_F(NetTest, LeaseExpiryReleasesSession) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  options.lease_ms = 150;
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(5));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;

  // Go silent past the lease: the reaper must release the session.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  auto checked = c->Checkout(sid, {1}, "w");
  EXPECT_TRUE(checked.status().IsNotFound())
      << checked.status().ToString();
  SessionServer::Stats stats = server->stats();
  EXPECT_GE(stats.leases_expired, 1u);
  EXPECT_EQ(stats.sessions_open, 0u);

  // A fresh open starts over.
  auto reopened = c->Open("t");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NE(reopened.ValueOrDie().sid, sid);
}

TEST_F(NetTest, HeartbeatKeepsLeaseAlive) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  options.lease_ms = 400;
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(6));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;
  // 5 x 150ms > lease, but each heartbeat renews it.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto lease = c->Heartbeat(sid);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  }
  auto checked = c->Checkout(sid, {1}, "w");
  EXPECT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(server->stats().leases_expired, 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

TEST_F(NetTest, DegradedRepositoryServesReadOnly) {
  const std::string dir = MakeTempDir();
  auto repo = storage::Repository::Open(dir + "/repo");
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(MakeCvd());
  ORPHEUS_CHECK_OK(repo.ValueOrDie()->LogCreate(*cvds[0]));

  ServerOptions options;
  options.listen = "unix:" + dir + "/sock";
  auto started = SessionServer::Start(repo.ValueOrDie().get(),
                                      std::move(cvds), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  SessionServer* server = started.ValueOrDie().get();

  auto client = Client::Connect(server->address(), FastClientOptions(7));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();
  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;

  // A healthy commit works end to end (durable through the repository).
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table t1 = checked.MoveValueOrDie();
  AddRow(&t1, 3, "gamma");
  auto ok_outcome = c->Commit(sid, t1, "healthy", "tester");
  ASSERT_TRUE(ok_outcome.ok()) << ok_outcome.status().ToString();

  // Break the WAL: the in-flight commit fails and degrades the repository.
  failpoint::Arm("storage.wal.append.frame", failpoint::Action::kError);
  auto checked2 = c->Checkout(sid, {1}, "w2");
  ASSERT_TRUE(checked2.ok()) << checked2.status().ToString();
  Table t2 = checked2.MoveValueOrDie();
  AddRow(&t2, 4, "delta");
  auto failed = c->Commit(sid, t2, "doomed", "tester");
  EXPECT_FALSE(failed.ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(repo.ValueOrDie()->degraded());

  // Commits are now refused with a DEFINITIVE (non-retryable) verdict …
  const uint64_t retries_before = c->stats().retries;
  auto checked3 = c->Checkout(sid, {1}, "w3");
  ASSERT_TRUE(checked3.ok()) << checked3.status().ToString();
  Table t3 = checked3.MoveValueOrDie();
  AddRow(&t3, 5, "epsilon");
  auto refused = c->Commit(sid, t3, "refused", "tester");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_NE(refused.status().message().find("degraded"), std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(c->stats().retries, retries_before)
      << "client retried a non-retryable degraded verdict";

  // … while read-only checkouts keep being served,
  auto checked4 = c->Checkout(sid, {1}, "w4");
  EXPECT_TRUE(checked4.ok()) << checked4.status().ToString();
  // ls reports the failure,
  auto cvd_list = c->Ls();
  ASSERT_TRUE(cvd_list.ok()) << cvd_list.status().ToString();
  ASSERT_EQ(cvd_list.ValueOrDie().size(), 1u);
  EXPECT_TRUE(cvd_list.ValueOrDie()[0].failed);
  // and new connections learn of the degradation in the handshake.
  auto fresh = Client::Connect(server->address(), FastClientOptions(8));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh.ValueOrDie()->server_degraded());

  started.ValueOrDie()->Stop();
}

// A commit whose durability wait outlives the caller's deadline is PARKED,
// not lost: the client's retry under the original stamp resumes the wait
// and collects the one-and-only verdict. Slow disk simulated by delaying
// the WAL fsync 1500ms while client B calls with a 500ms budget.
TEST_F(NetTest, DurabilityTimeoutResumesNotRepeats) {
  const std::string dir = MakeTempDir();
  auto repo = storage::Repository::Open(dir + "/repo");
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(MakeCvd());
  ORPHEUS_CHECK_OK(repo.ValueOrDie()->LogCreate(*cvds[0]));

  ServerOptions options;
  options.listen = "unix:" + dir + "/sock";
  auto started = SessionServer::Start(repo.ValueOrDie().get(),
                                      std::move(cvds), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  SessionServer* server = started.ValueOrDie().get();

  // Client A: patient (5s). Client B: a 500ms budget that cannot cover
  // the stalled flush.
  auto client_a = Client::Connect(server->address(), FastClientOptions(20));
  ASSERT_TRUE(client_a.ok()) << client_a.status().ToString();
  ClientOptions bopts = FastClientOptions(21);
  bopts.call_deadline_ms = 500;
  auto client_b = Client::Connect(server->address(), bopts);
  ASSERT_TRUE(client_b.ok()) << client_b.status().ToString();
  Client* a = client_a.ValueOrDie().get();
  Client* b = client_b.ValueOrDie().get();

  auto opened_a = a->Open("t");
  ASSERT_TRUE(opened_a.ok()) << opened_a.status().ToString();
  auto opened_b = b->Open("t");
  ASSERT_TRUE(opened_b.ok()) << opened_b.status().ToString();
  const uint64_t sid_a = opened_a.ValueOrDie().sid;
  const uint64_t sid_b = opened_b.ValueOrDie().sid;

  auto checked_a = a->Checkout(sid_a, {1}, "w");
  ASSERT_TRUE(checked_a.ok()) << checked_a.status().ToString();
  Table ta = checked_a.MoveValueOrDie();
  AddRow(&ta, 10, "a-row");
  auto checked_b = b->Checkout(sid_b, {1}, "w");
  ASSERT_TRUE(checked_b.ok()) << checked_b.status().ToString();
  Table tb = checked_b.MoveValueOrDie();
  AddRow(&tb, 11, "b-row");

  // First WAL fsync after arming = A's group-commit leader flush.
  failpoint::Arm("storage.wal.append.sync", failpoint::Action::kDelay,
                 /*trigger_at=*/1, /*once=*/true, /*probability=*/1.0,
                 /*delay_ms=*/1500);
  Result<session::CommitOutcome> outcome_a =
      Status::Unavailable("commit A never ran");
  DedicatedThread committer_a("test-committer-a", [&] {
    outcome_a = a->Commit(sid_a, ta, "slow but durable", "alice");
  });
  // Let A become the leader and stall inside the delayed fsync, then
  // commit from B: its durability wait parks behind the leader and the
  // 500ms call budget expires first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto unknown = b->Commit(sid_b, tb, "parked", "bob");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsDeadlineExceeded() ||
              unknown.status().IsUnavailable())
      << unknown.status().ToString();

  committer_a.Join();
  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status().ToString();

  // B retries with the same staged table: the client reuses the original
  // stamp, the server resumes the PARKED wait (now instantly resolvable),
  // and exactly one new version exists for B — no duplicate commit.
  auto resumed = b->Commit(sid_b, tb, "parked", "bob");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  const auto& stats = server->stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_GE(stats.commits_resumed, 1u);
  const int expected_versions =
      1 + (1 + (outcome_a.ValueOrDie().reconciled ? 1 : 0)) +
      (1 + (resumed.ValueOrDie().reconciled ? 1 : 0));
  EXPECT_EQ(NumVersions(a), expected_versions);

  started.ValueOrDie()->Stop();
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST_F(NetTest, CallsNeverHangPastDeadline) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  ClientOptions copts = FastClientOptions(9);
  copts.call_deadline_ms = 300;
  copts.max_attempts = 100;  // the deadline, not the cap, must stop us
  auto client = Client::Connect(server->address(), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // Every server read now fails: no response will ever arrive.
  failpoint::Arm("net.server.recv", failpoint::Action::kError);
  Timer timer;
  auto opened = c->Open("t");
  const double elapsed_ms = timer.ElapsedMillis();
  EXPECT_FALSE(opened.ok());
  EXPECT_LT(elapsed_ms, 5000.0)
      << "call ran far past its 300ms deadline: " << elapsed_ms << "ms";
}

// ---------------------------------------------------------------------------
// The network chaos matrix
// ---------------------------------------------------------------------------

// Deterministic kill matrix: for every net.* failpoint site, inject one
// fault and drive a full open/checkout/commit cycle. Every cycle must
// converge to exactly one new version — transient faults are the client's
// problem, never the caller's.
TEST_F(NetTest, KillMatrixEverySiteOnce) {
  const struct {
    const char* site;
    bool fires_on_connect;  // arm BEFORE Client::Connect
  } kMatrix[] = {
      {"net.client.connect", true},
      {"net.server.accept", true},
      {"net.client.send", false},
      {"net.client.send.partial", false},
      {"net.client.recv", false},
      {"net.server.send", false},
      {"net.server.send.partial", false},
      {"net.server.recv", false},
      {"net.server.drop_after_read", false},
      {"net.server.drop_before_send", false},
  };

  int round = 0;
  for (const auto& entry : kMatrix) {
    SCOPED_TRACE(entry.site);
    ServerOptions options;
    options.listen = "unix:" + MakeTempDir() + "/sock";
    auto server = StartMemoryServer(options);
    ClientOptions copts = FastClientOptions(100 + round);

    std::unique_ptr<Client> client;
    if (entry.fires_on_connect) {
      failpoint::Arm(entry.site, failpoint::Action::kError,
                     /*trigger_at=*/1, /*once=*/true);
      auto c = Client::Connect(server->address(), copts);
      if (!c.ok()) c = Client::Connect(server->address(), copts);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      client = c.MoveValueOrDie();
    } else {
      auto c = Client::Connect(server->address(), copts);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      client = c.MoveValueOrDie();
      failpoint::Arm(entry.site, failpoint::Action::kError,
                     /*trigger_at=*/1, /*once=*/true);
    }

    auto opened = client->Open("t");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const uint64_t sid = opened.ValueOrDie().sid;
    auto checked = client->Checkout(sid, {1}, "w");
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    Table table = checked.MoveValueOrDie();
    AddRow(&table, 100 + round, "chaos");
    auto outcome = client->Commit(sid, table, "chaos commit", "tester");
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_NE(outcome.ValueOrDie().vid, core::kInvalidVersion);

    EXPECT_GE(failpoint::HitCount(entry.site), 1u)
        << "site never fired — the matrix entry tested nothing";
    EXPECT_EQ(NumVersions(client.get()), 2)
        << "fault produced a phantom or duplicate version";
    ORPHEUS_CHECK_OK(client->CloseSession(sid));
    failpoint::DisarmAll();
    server->Stop();
    ++round;
  }
}

// Probabilistic chaos hammer: 8 clients commit concurrently while every
// net.* site misbehaves at random (deterministically seeded). Afterwards:
// every client got a definitive result for every round, version accounting
// matches commits exactly (no phantoms, no duplicates), and the CVD passes
// the full invariant validator.
TEST_F(NetTest, ChaosHammerEightClients) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  failpoint::Reseed(12345);
  ORPHEUS_CHECK_OK(failpoint::ArmFromSpec(
      "net.server.recv=error:p0.05;net.server.send=error:p0.05;"
      "net.client.send=error:p0.05;net.client.recv=error:p0.05;"
      "net.server.drop_before_send=error:p0.03;"
      "net.server.drop_after_read=error:p0.03;"
      "net.server.send.partial=error:p0.02;"
      "net.client.send.partial=error:p0.02"));

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  struct ClientResult {
    std::vector<session::CommitOutcome> outcomes;
    std::vector<Status> definitive_errors;
    int unresolved = 0;
    Status fatal = Status::OK();
  };
  std::vector<ClientResult> results(kClients);

  ThreadPool pool(kClients);
  {
    ThreadPool::TaskGroup group(&pool);
    for (int i = 0; i < kClients; ++i) {
      group.Submit([&, i] {
        ClientResult& r = results[i];
        ClientOptions copts;
        copts.client_uuid = "chaos-" + std::to_string(i);
        copts.jitter_seed = 1000 + i;
        copts.call_deadline_ms = 8000;
        copts.max_attempts = 12;
        copts.backoff_base_ms = 2;
        copts.backoff_cap_ms = 100;
        auto connected = Client::Connect(server->address(), copts);
        for (int tries = 0; !connected.ok() && tries < 10; ++tries) {
          connected = Client::Connect(server->address(), copts);
        }
        if (!connected.ok()) {
          r.fatal = connected.status();
          return;
        }
        Client* c = connected.ValueOrDie().get();
        auto opened = c->Open("t");
        if (!opened.ok()) {
          r.fatal = opened.status();
          return;
        }
        const uint64_t sid = opened.ValueOrDie().sid;
        // DeadlineExceeded and Unavailable are "try again" answers (the
        // client keeps a timed-out commit's stamp, so retrying RESOLVES
        // it); anything else is a definitive verdict.
        auto unknown = [](const Status& s) {
          return s.IsDeadlineExceeded() || s.IsUnavailable();
        };
        for (int round = 0; round < kRounds; ++round) {
          const std::string table_name = "w" + std::to_string(round);
          Result<Table> checked = Status::Unavailable("not tried");
          for (int tries = 0; tries < 8; ++tries) {
            checked = c->Checkout(sid, {1}, table_name);
            if (checked.ok() || !unknown(checked.status())) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          if (!checked.ok()) {
            r.definitive_errors.push_back(checked.status());
            continue;
          }
          Table table = checked.MoveValueOrDie();
          // Disjoint key ranges: concurrent commits reconcile cleanly.
          AddRow(&table, 10000 + i * 100 + round, "c" + std::to_string(i));
          bool resolved = false;
          for (int tries = 0; tries < 8; ++tries) {
            auto outcome = c->Commit(sid, table, "chaos", "tester");
            if (outcome.ok()) {
              r.outcomes.push_back(outcome.MoveValueOrDie());
              resolved = true;
              break;
            }
            if (unknown(outcome.status())) {
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
              continue;
            }
            r.definitive_errors.push_back(outcome.status());
            resolved = true;
            break;
          }
          if (!resolved) ++r.unresolved;
        }
        ORPHEUS_IGNORE_ERROR(c->CloseSession(sid));
      });
    }
    group.Wait();
  }
  failpoint::DisarmAll();

  // Every client connected and resolved every round — confirmed result or
  // definitive error, never a dangling unknown.
  int total_commits = 0;
  int expected_versions = 1;  // the seed version
  std::set<VersionId> all_vids;
  for (int i = 0; i < kClients; ++i) {
    const ClientResult& r = results[i];
    ASSERT_TRUE(r.fatal.ok())
        << "client " << i << " never got going: " << r.fatal.ToString();
    EXPECT_EQ(r.unresolved, 0) << "client " << i
                               << " left a commit outcome unresolved";
    // With this fault mix every op resolves to success under retry;
    // a definitive error here would be a protocol-level bug.
    for (const Status& s : r.definitive_errors) {
      ADD_FAILURE() << "client " << i
                    << " got a definitive error: " << s.ToString();
    }
    for (const session::CommitOutcome& outcome : r.outcomes) {
      ++total_commits;
      ++expected_versions;
      EXPECT_TRUE(all_vids.insert(outcome.vid).second)
          << "duplicate version " << outcome.vid << " from client " << i;
      if (outcome.merged_vid != core::kInvalidVersion) {
        ++expected_versions;
        EXPECT_TRUE(all_vids.insert(outcome.merged_vid).second)
            << "duplicate merge version " << outcome.merged_vid;
      }
    }
  }
  EXPECT_GT(total_commits, 0) << "chaos swallowed every commit";

  // Version accounting: the CVD holds exactly the versions the confirmed
  // outcomes claim — no phantom from a killed connection, no duplicate
  // from a retried commit.
  auto audit = Client::Connect(server->address(), FastClientOptions(77));
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(NumVersions(audit.ValueOrDie().get()), expected_versions);

  // And the structure is fsck-clean.
  ValidationReport report;
  ORPHEUS_CHECK_OK(server->manager("t")->ReadCvd(
      [&report](const core::Cvd& cvd) {
        core::ValidateCvd(cvd, &report);
        return Status::OK();
      }));
  EXPECT_TRUE(report.ok()) << report.ToString();

  SessionServer::Stats stats = server->stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(total_commits));
}

}  // namespace
}  // namespace orpheus::net
