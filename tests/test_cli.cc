#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli/command_processor.h"
#include "common/string_util.h"
#include "core/access_control.h"
#include "core/cvd.h"
#include "minidb/csv.h"
#include "net/server.h"
#include "storage/repository.h"

namespace orpheus::cli {
namespace {

using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "orpheus_cli_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
  }
  return tmpl;
}

class CliTest : public ::testing::Test {
 protected:
  std::string Ok(const std::string& line) {
    auto r = processor_.Execute(line);
    EXPECT_TRUE(r.ok()) << "'" << line << "': " << r.status().ToString();
    return r.ok() ? *r : "";
  }
  Status Err(const std::string& line) {
    auto r = processor_.Execute(line);
    EXPECT_FALSE(r.ok()) << "'" << line << "' unexpectedly succeeded";
    return r.status();
  }

  void SeedStagingTable(const std::string& name) {
    Table t(name, Schema({{"city", ValueType::kString},
                          {"pop", ValueType::kInt64}}));
    ASSERT_TRUE(t.InsertRow({Value("springfield"), Value(int64_t{30000})})
                    .ok());
    ASSERT_TRUE(t.InsertRow({Value("shelbyville"), Value(int64_t{20000})})
                    .ok());
    ASSERT_TRUE(processor_.staging()->AdoptTable(std::move(t)).ok());
  }

  CommandProcessor processor_;
};

TEST_F(CliTest, UserLifecycle) {
  EXPECT_EQ(Ok("whoami"), "<anonymous>");
  Ok("create_user alice");
  EXPECT_TRUE(Err("create_user alice").IsAlreadyExists());
  EXPECT_TRUE(Err("config bob").IsNotFound());
  Ok("config alice");
  EXPECT_EQ(Ok("whoami"), "alice");
}

TEST_F(CliTest, InitFromStagingTable) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  EXPECT_NE(processor_.cvd("Cities"), nullptr);
  EXPECT_TRUE(Err("init Cities -t cities").IsAlreadyExists());
  EXPECT_TRUE(Err("init Other -t missing").IsNotFound());
  EXPECT_NE(Ok("ls").find("Cities"), std::string::npos);
}

TEST_F(CliTest, CheckoutCommitCycle) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("checkout Cities -v 1 -t work");
  Table* work = processor_.staging()->GetTable("work");
  ASSERT_NE(work, nullptr);
  // Edit and commit.
  auto row = work->GetRow(0);
  row[2] = Value(int64_t{31000});
  work->SetRow(0, row);
  std::string out = Ok("commit -t work -m \"census update\"");
  EXPECT_NE(out.find("version 2"), std::string::npos);
  // Staging table gone after commit.
  EXPECT_EQ(processor_.staging()->GetTable("work"), nullptr);
  // Metadata recorded.
  std::string log = Ok("log Cities");
  EXPECT_NE(log.find("census update"), std::string::npos);
}

TEST_F(CliTest, CommitRequiresCheckoutProvenance) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities");
  SeedStagingTable("rogue");
  EXPECT_TRUE(Err("commit -t rogue -m x").IsNotFound());
}

TEST_F(CliTest, AccessControlOnStagingTables) {
  SeedStagingTable("cities");
  Ok("create_user alice");
  Ok("create_user bob");
  Ok("config alice");
  Ok("init Cities -t cities -k city");
  Ok("checkout Cities -v 1 -t alices_work");
  Ok("config bob");
  // Bob cannot commit Alice's materialized table (Sec. 3.3.1).
  auto status = Err("commit -t alices_work -m steal");
  EXPECT_TRUE(status.IsInvalidArgument());
  Ok("config alice");
  Ok("commit -t alices_work -m mine");
}

TEST_F(CliTest, DiffCommand) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("checkout Cities -v 1 -t w");
  Table* w = processor_.staging()->GetTable("w");
  w->AppendRowUnchecked({Value::Null(), Value("ogdenville"),
                         Value(int64_t{5000})});
  Ok("commit -t w -m grow");
  std::string out = Ok("diff Cities -v 2,1");
  EXPECT_NE(out.find("ogdenville"), std::string::npos);
  EXPECT_TRUE(Err("diff Cities -v 1").IsInvalidArgument());
}

TEST_F(CliTest, RunSqlCommand) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  std::string out = Ok(
      "run \"SELECT city FROM VERSION 1 OF CVD Cities WHERE pop > 25000\"");
  EXPECT_NE(out.find("springfield"), std::string::npos);
  EXPECT_EQ(out.find("shelbyville"), std::string::npos);
  EXPECT_TRUE(Err("run \"SELECT * FROM VERSION 1 OF CVD Ghost\"")
                  .IsNotFound());
}

TEST_F(CliTest, CsvWorkflow) {
  // init from csv, checkout to csv, edit the file, commit it back.
  std::string dir = testing::TempDir();
  std::string data_path = dir + "/cli_cities.csv";
  {
    std::ofstream f(data_path);
    f << "city,pop\nspringfield,30000\nshelbyville,20000\n";
  }
  Ok("init Cities -f " + data_path + " -k city");
  std::string work_path = dir + "/cli_work.csv";
  Ok("checkout Cities -v 1 -f " + work_path);
  // The exported file carries the hidden _rid column.
  auto exported = minidb::ReadCsv(work_path, "w");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->schema().column(0).name, "_rid");
  // Append a record (empty rid) and commit with a schema file.
  {
    std::ofstream f(work_path, std::ios::app);
    f << ",ogdenville,5000\n";
  }
  std::string schema_path = dir + "/cli_schema.txt";
  {
    std::ofstream f(schema_path);
    f << "city:string\npop:int64\n";
  }
  std::string out = Ok("commit -f " + work_path + " -s " + schema_path +
                       " -m \"from csv\"");
  EXPECT_NE(out.find("version 2"), std::string::npos);
  // The new version contains three records; unchanged ones kept their rids.
  auto rids = processor_.cvd("Cities")->VersionRecords(2);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 3u);
  auto diff = processor_.cvd("Cities")->VDiff(2, 1);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 1u);
  std::remove(data_path.c_str());
  std::remove(work_path.c_str());
  std::remove(schema_path.c_str());
}

TEST_F(CliTest, DropAndUnknownCommands) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities");
  Ok("drop Cities");
  EXPECT_TRUE(Err("drop Cities").IsNotFound());
  EXPECT_TRUE(Err("frobnicate").IsInvalidArgument());
  EXPECT_EQ(Ok(""), "");
}

TEST_F(CliTest, OptimizeCommand) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  for (int i = 0; i < 5; ++i) {
    Ok(orpheus::StrFormat("checkout Cities -v %d -t w%d", i + 1, i));
    Table* w = processor_.staging()->GetTable(orpheus::StrFormat("w%d", i));
    w->AppendRowUnchecked({Value::Null(), Value(orpheus::StrFormat("town%d", i)),
                           Value(static_cast<int64_t>(100 + i))});
    Ok(orpheus::StrFormat("commit -t w%d -m grow%d", i, i));
  }
  std::string out = Ok("optimize Cities -g 2");
  EXPECT_NE(out.find("LyreSplit plan"), std::string::npos);
  // The factor parses strictly: finite, the whole token.
  for (const char* bad : {"0.5", "nan", "inf", "-inf", "3abc"}) {
    EXPECT_TRUE(Err(std::string("optimize Cities -g ") + bad)
                    .IsInvalidArgument())
        << bad;
  }
}

TEST_F(CliTest, InitFromMissingCsvNamesThePath) {
  Status s = Err("init Cities -f /no/such/dir/cities.csv");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(s.message().find("/no/such/dir/cities.csv"), std::string::npos)
      << s.ToString();
  // A missing schema file is reported with its own path, not the CSV's.
  Status schema = Err("init Towns -f /no/such/t.csv -s /no/such/schema.txt");
  EXPECT_TRUE(schema.IsNotFound()) << schema.ToString();
  EXPECT_NE(schema.message().find("/no/such/schema.txt"), std::string::npos)
      << schema.ToString();
}

TEST_F(CliTest, CommitFromMissingCsvNamesThePath) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  const std::string path = ::testing::TempDir() + "cli_commit_missing.csv";
  Ok("checkout Cities -v 1 -f " + path);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  // The checkout provenance still knows the file; the failure must come
  // from the CSV read and name the vanished path.
  Status s = Err("commit -f " + path + " -m x");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
}

// The session family's backends.
enum class Backend { kInProcess, kConnected };

/// The session family's tests, run on both backends: in-process sessions
/// over the processor's own CVDs, and a connection to an orpheusd server
/// on a unix socket.
class CliSessionTest : public CliTest,
                       public ::testing::WithParamInterface<Backend> {
 protected:
  bool connected() const { return GetParam() == Backend::kConnected; }

  /// Make CVD Cities (key city: springfield 30000, shelbyville 20000)
  /// reachable through the session family: init'ed in the processor
  /// in-process, served by a fresh server otherwise. With `dir`, its
  /// versions are durable in a repository there. `names` makes one such
  /// CVD per name.
  void SetUpCities(const std::string& dir = "",
                   const std::vector<std::string>& names = {"Cities"}) {
    SeedStagingTable("cities");
    if (!connected()) {
      if (!dir.empty()) Ok("open " + dir);
      for (const std::string& name : names) {
        Ok("init " + name + " -t cities -k city");
      }
      return;
    }
    if (!dir.empty()) {
      auto repo = storage::Repository::Open(dir);
      ASSERT_TRUE(repo.ok()) << repo.status().ToString();
      server_repo_ = repo.MoveValueOrDie();
    }
    core::Cvd::Options cvd_options;
    cvd_options.primary_key = {"city"};
    std::vector<std::unique_ptr<core::Cvd>> cvds;
    for (const std::string& name : names) {
      auto cvd = core::Cvd::Init(
          name, *processor_.staging()->GetTable("cities"), cvd_options);
      ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
      if (server_repo_ != nullptr) {
        ASSERT_TRUE(server_repo_->LogCreate(**cvd).ok());
      }
      cvds.push_back(cvd.MoveValueOrDie());
    }
    net::ServerOptions options;
    options.listen = "unix:" + MakeTempDir() + "/sock";
    auto server =
        net::SessionServer::Start(server_repo_.get(), std::move(cvds), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server.MoveValueOrDie();
    Ok("session connect " + server_->address());
  }

  /// Shut the server down and close its repository.
  void StopServer() {
    std::vector<std::unique_ptr<core::Cvd>> cvds = server_->ReleaseCvds();
    std::vector<const core::Cvd*> pointers;
    for (const auto& cvd : cvds) pointers.push_back(cvd.get());
    ASSERT_TRUE(server_repo_->Close(pointers).ok());
  }

  /// Overwrite row `row` of staging table `table` with (city, pop).
  void SetCity(const std::string& table, uint32_t row, const char* city,
               int64_t pop) {
    Table* t = processor_.staging()->GetTable(table);
    ASSERT_NE(t, nullptr) << table;
    t->SetRow(row, {t->GetRow(row)[0], Value(city), Value(pop)});
  }

  std::unique_ptr<storage::Repository> server_repo_;
  std::unique_ptr<net::SessionServer> server_;
};

TEST_P(CliSessionTest, SessionLifecycle) {
  SetUpCities();
  EXPECT_NE(Ok("session open Cities").find("opened session 1"),
            std::string::npos);
  if (!connected()) {
    // While the CVD has in-process sessions, the single-user commands
    // stand aside.
    Status plain = Err("checkout Cities -v 1 -t w");
    EXPECT_TRUE(plain.IsInvalidArgument()) << plain.ToString();
    EXPECT_NE(plain.message().find("open for concurrent use"),
              std::string::npos)
        << plain.ToString();
    EXPECT_TRUE(Err("drop Cities").IsInvalidArgument());
    EXPECT_NE(Ok("ls").find("session-managed"), std::string::npos);
  }
  EXPECT_NE(Ok("session open Cities").find("opened session 2"),
            std::string::npos);
  std::string out = Ok("session checkout 1 -v 1 -t w1");
  EXPECT_NE(out.find("(2 record(s))"), std::string::npos) << out;
  Ok("session checkout 2 -v 1 -t w2");

  // Disjoint edits of the staging area: session 1 grows springfield,
  // session 2 shelbyville.
  SetCity("w1", 0, "springfield", 31000);
  SetCity("w2", 1, "shelbyville", 21000);
  Ok("session commit 1 -t w1 -m grow1");
  std::string merged = Ok("session commit 2 -t w2 -m grow2");
  EXPECT_NE(merged.find("reconciled with concurrent version 2"),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("merge version 4"), std::string::npos) << merged;
  // A commit ships its staging table and drops it.
  EXPECT_EQ(processor_.staging()->GetTable("w1"), nullptr);
  EXPECT_EQ(processor_.staging()->GetTable("w2"), nullptr);

  out = Ok("session ls");
  EXPECT_NE(out.find("Cities  (4 version(s), watermark v4, 2 open session(s))"),
            std::string::npos)
      << out;
  out = Ok("session refresh 1");
  EXPECT_NE(out.find("session 1 now at watermark v4"), std::string::npos)
      << out;
  Ok("session close 1");
  Ok("session close 2");
  if (!connected()) {
    // The last close handed the CVD back, merge history intact.
    EXPECT_NE(Ok("session ls").find("no CVD has open sessions"),
              std::string::npos);
    Ok("checkout Cities -v 4 -t merged");
  } else {
    Ok("session open Cities");
    Ok("session checkout 3 -v 4 -t merged");
  }
  Table* m = processor_.staging()->GetTable("merged");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->num_rows(), 2u);
  EXPECT_EQ(m->GetValue(0, 2).AsInt(), 31000);
  EXPECT_EQ(m->GetValue(1, 2).AsInt(), 21000);
}

TEST_P(CliSessionTest, SessionConflictRendering) {
  SetUpCities();
  Ok("session open Cities");
  Ok("session open Cities");
  Ok("session checkout 1 -v 1 -t w1");
  Ok("session checkout 2 -v 1 -t w2");
  SetCity("w1", 0, "springfield", 111);
  SetCity("w2", 0, "springfield", 222);
  Ok("session commit 1 -t w1 -m first");
  std::string out = Ok("session commit 2 -t w2 -m second");
  EXPECT_NE(out.find("session 2 committed table w2 as version 3"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("CONFLICT with concurrent version 2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("divergent branch"), std::string::npos) << out;
  EXPECT_NE(out.find("key=springfield attribute=pop base=30000 ours=222 "
                     "theirs=111"),
            std::string::npos)
      << out;
  Ok("session close 1");
  Ok("session close 2");
}

TEST_P(CliSessionTest, SessionOpenGuards) {
  SetUpCities();
  EXPECT_TRUE(Err("session open Ghost").IsNotFound());
  if (!connected()) {
    // A pending staged checkout pins the CVD to this processor.
    Ok("checkout Cities -v 1 -t pending");
    Status staged = Err("session open Cities");
    EXPECT_TRUE(staged.IsInvalidArgument()) << staged.ToString();
    EXPECT_NE(staged.message().find("staged checkouts"), std::string::npos);
    Ok("commit -t pending -m flush");
    // Leases and connections belong to the connected backend.
    EXPECT_TRUE(Err("session heartbeat 1").IsInvalidArgument());
    EXPECT_TRUE(Err("session disconnect").IsInvalidArgument());
  }
  Ok("session open Cities");
  EXPECT_TRUE(Err("session checkout 9 -v 1 -t w").IsNotFound());
  EXPECT_TRUE(Err("session checkout bogus -v 1 -t w").IsInvalidArgument());
  Ok("session checkout 1 -v 1 -t w");
  EXPECT_TRUE(Err("session checkout 1 -v 1 -t w").IsAlreadyExists());
  EXPECT_TRUE(Err("session commit 1 -t nope -m x").IsNotFound());
  if (connected()) {
    EXPECT_NE(Ok("session heartbeat 1").find("lease renewed"),
              std::string::npos);
  }
  Ok("session close 1");
  if (connected()) {
    Ok("session disconnect");
    // In-process again, and this processor holds no CVD named Cities.
    EXPECT_TRUE(Err("session open Cities").IsNotFound());
  }
}

// Sids are global across CVDs: committing through one CVD's session a
// table checked out through another CVD's session is NotFound on both
// backends, and the message names the table, never the other session.
TEST_P(CliSessionTest, CommitOfATableCheckedOutElsewhereIsNotFound) {
  SetUpCities("", {"Cities", "Towns"});
  Ok("session open Cities");
  Ok("session open Towns");
  Ok("session checkout 1 -v 1 -t x");
  Status s = Err("session commit 2 -t x -m stray");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_TRUE(s.message().find("table x") != std::string::npos ||
              s.message().find("table \"x\"") != std::string::npos)
      << s.ToString();
  EXPECT_EQ(s.message().find("session 1"), std::string::npos)
      << s.ToString();
  // The checkout is intact: its own session commits it.
  Ok("session commit 1 -t x -m grow");
  Ok("session close 1");
  Ok("session close 2");
}

TEST_P(CliSessionTest, RepositoryLifecycleRefusedWhileSessionManaged) {
  const std::string dir = MakeTempDir();
  SetUpCities(dir);
  Ok("session open Cities");
  Ok("session checkout 1 -v 1 -t w");
  SetCity("w", 0, "springfield", 31000);
  Ok("session commit 1 -t w -m grow");
  if (!connected()) {
    for (const char* cmd : {"checkpoint", "close"}) {
      Status s = Err(cmd);
      EXPECT_TRUE(s.IsInvalidArgument()) << cmd << ": " << s.ToString();
      EXPECT_NE(s.message().find("session close"), std::string::npos)
          << s.ToString();
    }
  } else {
    // Connected sessions hold the server's CVDs, not this processor's, so
    // its own repository lifecycle goes on.
    Ok("open " + MakeTempDir());
    Ok("checkpoint");
    Ok("close");
  }
  Ok("session close 1");
  if (connected()) {
    StopServer();
  } else {
    Ok("close");
  }
  // Either way the commit is durable in the repository.
  EXPECT_NE(Ok("fsck -d " + dir).find("clean"), std::string::npos);
  Ok("open " + dir);
  EXPECT_NE(Ok("log Cities").find("version 2"), std::string::npos);
  Ok("close");
  EXPECT_EQ(processor_.exit_code(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CliSessionTest,
    ::testing::Values(Backend::kInProcess, Backend::kConnected),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(info.param == Backend::kInProcess ? "InProcess"
                                                           : "Connected");
    });

TEST_F(CliTest, FsckSetsCorruptExitCode) {
  const std::string dir = MakeTempDir();
  Ok("open " + dir);
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("close");
  EXPECT_NE(Ok("fsck -d " + dir).find("ok"), std::string::npos);
  EXPECT_EQ(processor_.exit_code(), 0);

  // Flip the active snapshot's format version byte: dual-read would
  // otherwise accept the neighbouring version, so the header checksum must
  // catch it.
  std::ifstream current(dir + "/CURRENT");
  std::string snapshot_name;
  ASSERT_TRUE(std::getline(current, snapshot_name));
  const std::string snapshot = dir + "/" + snapshot_name;
  std::fstream f(snapshot,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(8);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 1);
  f.seekp(8);
  f.write(&byte, 1);
  f.close();

  Status s = Err("fsck -d " + dir);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_EQ(processor_.exit_code(), CommandProcessor::kExitCorrupt);
  // The corrupt code is sticky and outranks plain errors.
  processor_.NoteError();
  EXPECT_EQ(processor_.exit_code(), CommandProcessor::kExitCorrupt);
}

TEST(AccessControllerTest, Basics) {
  core::AccessController ac;
  EXPECT_TRUE(ac.CreateUser("a").ok());
  EXPECT_TRUE(ac.CreateUser("").IsInvalidArgument());
  EXPECT_TRUE(ac.Login("a").ok());
  ac.GrantTable("t");
  EXPECT_TRUE(ac.CheckTableAccess("t").ok());
  EXPECT_TRUE(ac.CreateUser("b").ok());
  EXPECT_TRUE(ac.Login("b").ok());
  EXPECT_FALSE(ac.CheckTableAccess("t").ok());
  EXPECT_TRUE(ac.CheckTableAccess("untracked").ok());
  ac.RevokeTable("t");
  EXPECT_TRUE(ac.CheckTableAccess("t").ok());
  EXPECT_EQ(ac.Users().size(), 2u);
}

}  // namespace
}  // namespace orpheus::cli
