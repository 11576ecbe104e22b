#include "cli/command_processor.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/env.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/lyresplit.h"
#include "core/query.h"
#include "core/validate.h"
#include "minidb/csv.h"

namespace orpheus::cli {

using core::Cvd;
using core::VersionId;
using minidb::Table;

namespace {

// Shell-style tokenizer: whitespace-separated, quotes group.
Result<std::vector<std::string>> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_token = false;
  char quote = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quote != 0) {
      if (c == quote) {
        quote = 0;
      } else {
        cur += c;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      quote = c;
      in_token = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (in_token) {
        out.push_back(std::move(cur));
        cur.clear();
        in_token = false;
      }
      continue;
    }
    cur += c;
    in_token = true;
  }
  if (quote != 0) return Status::InvalidArgument("unterminated quote");
  if (in_token) out.push_back(std::move(cur));
  return out;
}

Result<std::vector<VersionId>> ParseVersionList(const std::string& spec) {
  std::vector<VersionId> vids;
  for (const auto& part : Split(spec, ',')) {
    char* end = nullptr;
    long v = std::strtol(part.c_str(), &end, 10);
    if (end != part.c_str() + part.size() || v <= 0) {
      return Status::InvalidArgument(
          StrFormat("bad version id '%s'", part.c_str()));
    }
    vids.push_back(static_cast<VersionId>(v));
  }
  if (vids.empty()) return Status::InvalidArgument("no versions given");
  return vids;
}

std::string RenderTable(const Table& t, size_t max_rows = 20) {
  std::ostringstream os;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c) os << " | ";
    os << t.schema().column(c).name;
  }
  os << "\n";
  for (uint32_t r = 0; r < t.num_rows() && r < max_rows; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c) os << " | ";
      os << t.GetValue(r, c).ToString();
    }
    os << "\n";
  }
  if (t.num_rows() > max_rows) {
    os << "... (" << t.num_rows() - max_rows << " more rows)\n";
  }
  return os.str();
}

/// One commit's verdict, as either session backend reports it.
std::string RenderCommit(unsigned long long sid, const std::string& table,
                         const session::CommitOutcome& outcome) {
  std::string out = StrFormat("session %llu committed table %s as version %d",
                              sid, table.c_str(), outcome.vid);
  if (outcome.reconciled) {
    out += StrFormat("\nreconciled with concurrent version %d into merge "
                     "version %d",
                     outcome.reconciled_with, outcome.merged_vid);
  } else if (!outcome.conflicts.empty()) {
    out += StrFormat("\nCONFLICT with concurrent version %d: %zu attribute "
                     "conflict(s); v%d left as a divergent branch",
                     outcome.reconciled_with, outcome.conflicts.size(),
                     outcome.vid);
    for (const session::MergeConflict& c : outcome.conflicts) {
      out += StrFormat("\n  key=%s attribute=%s base=%s ours=%s theirs=%s",
                       c.key.c_str(), c.attribute.c_str(), c.base.c_str(),
                       c.ours.c_str(), c.theirs.c_str());
    }
  }
  return out;
}

}  // namespace

Result<CommandProcessor::Args> CommandProcessor::ParseArgs(
    const std::string& line) {
  auto tokens = Tokenize(line);
  if (!tokens.ok()) return tokens.status();
  Args args;
  for (size_t i = 0; i < tokens->size(); ++i) {
    const std::string& tok = (*tokens)[i];
    if (tok.size() >= 2 && tok[0] == '-' && !std::isdigit(
                                                static_cast<unsigned char>(
                                                    tok[1]))) {
      std::string value;
      if (i + 1 < tokens->size()) {
        value = (*tokens)[++i];
      }
      args.flags[tok.substr(1)] = value;
    } else {
      args.positional.push_back(tok);
    }
  }
  return args;
}

Result<Cvd*> CommandProcessor::FindCvd(const std::string& name) {
  auto it = cvds_.find(name);
  if (it == cvds_.end()) {
    if (local_sessions_.managers().count(name) != 0) {
      return Status::InvalidArgument(StrFormat(
          "CVD %s is open for concurrent use; drive it with the session "
          "commands or `session close` its sessions first",
          name.c_str()));
    }
    return Status::NotFound(StrFormat("no CVD named %s", name.c_str()));
  }
  return it->second.get();
}

Result<Cvd*> CommandProcessor::CvdOfStagingTable(const std::string& table) {
  for (auto& [name, cvd] : cvds_) {
    (void)name;
    for (const auto& staged : cvd->StagedTables()) {
      if (staged == table) return cvd.get();
    }
  }
  return Status::NotFound(
      StrFormat("table %s was not checked out from any CVD", table.c_str()));
}

CommandProcessor::CommandProcessor()
    : local_sessions_(
          [this](const std::string& name) -> Result<LocalLoan> {
            ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, FindCvd(name));
            if (!cvd->StagedTables().empty()) {
              return Status::InvalidArgument(StrFormat(
                  "CVD %s has staged checkouts; commit them before "
                  "`session open`",
                  name.c_str()));
            }
            return LocalLoan{std::move(cvds_.extract(name).mapped()),
                             repo_.get()};
          },
          [this](std::unique_ptr<Cvd> cvd) {
            WireCommitObserver(cvd.get());
            cvds_[cvd->name()] = std::move(cvd);
          }) {}

Result<std::string> CommandProcessor::Execute(const std::string& line) {
  // `profile` wraps the rest of the line, which must reach the inner
  // Execute verbatim (quotes intact), so it is peeled off before
  // tokenization.
  std::string_view trimmed = Trim(line);
  if (trimmed.size() > 8 && ToLower(std::string(trimmed.substr(0, 8))) ==
                                "profile ") {
    return Profile(std::string(Trim(trimmed.substr(8))));
  }
  auto args_result = ParseArgs(line);
  if (!args_result.ok()) return args_result.status();
  Args args = args_result.MoveValueOrDie();
  if (args.positional.empty()) return std::string();
  std::string cmd = ToLower(args.positional[0]);
  args.positional.erase(args.positional.begin());

  if (cmd == "create_user") {
    if (args.positional.empty()) {
      return Status::InvalidArgument("usage: create_user <name>");
    }
    ORPHEUS_RETURN_NOT_OK(access_.CreateUser(args.positional[0]));
    return StrFormat("created user %s", args.positional[0].c_str());
  }
  if (cmd == "config") {
    if (args.positional.empty()) {
      return Status::InvalidArgument("usage: config <name>");
    }
    ORPHEUS_RETURN_NOT_OK(access_.Login(args.positional[0]));
    return StrFormat("logged in as %s", args.positional[0].c_str());
  }
  if (cmd == "whoami") {
    return access_.current_user().empty() ? std::string("<anonymous>")
                                          : access_.current_user();
  }
  if (cmd == "open") return OpenRepository(args);
  if (cmd == "checkpoint") return CheckpointRepository();
  if (cmd == "close") return CloseRepository();
  if (cmd == "init") return Init(args);
  if (cmd == "checkout") return Checkout(args);
  if (cmd == "commit") return Commit(args);
  if (cmd == "diff") return Diff(args);
  if (cmd == "ls") return Ls();
  if (cmd == "drop") return Drop(args);
  if (cmd == "log") return Log(args);
  if (cmd == "run") return RunSql(args);
  if (cmd == "optimize") return Optimize(args);
  if (cmd == "fsck") return Fsck(args);
  if (cmd == "session") return SessionCmd(args);
  if (cmd == "stats") return Stats(args);
  if (cmd == "trace") return Trace(args);
  if (cmd == "tables") {
    std::string out;
    for (const auto& name : staging_.ListTables()) {
      out += name;
      out += "\n";
    }
    return out;
  }
  return Status::InvalidArgument(StrFormat("unknown command '%s'",
                                           cmd.c_str()));
}

Result<std::string> CommandProcessor::Init(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: init <cvd> (-t table | -f csv)");
  }
  const std::string& name = args.positional[0];
  if (cvds_.count(name)) {
    return Status::AlreadyExists(StrFormat("CVD %s exists", name.c_str()));
  }

  Cvd::Options options;
  if (const std::string* pk = args.Flag("k")) {
    options.primary_key = Split(*pk, ',');
  }

  const Table* source = nullptr;
  Table loaded("", minidb::Schema());
  if (const std::string* table_name = args.Flag("t")) {
    source = staging_.GetTable(*table_name);
    if (source == nullptr) {
      return Status::NotFound(
          StrFormat("no staging table %s", table_name->c_str()));
    }
  } else if (const std::string* path = args.Flag("f")) {
    minidb::Schema schema;
    const minidb::Schema* schema_ptr = nullptr;
    if (const std::string* spec_path = args.Flag("s")) {
      std::ifstream in(*spec_path);
      if (!in) {
        return Status::NotFound(
            StrFormat("cannot open schema file %s", spec_path->c_str()));
      }
      std::stringstream buf;
      buf << in.rdbuf();
      auto parsed = minidb::ParseSchemaSpec(buf.str());
      if (!parsed.ok()) return parsed.status();
      schema = *parsed;
      schema_ptr = &schema;
    }
    auto table = minidb::ReadCsv(*path, name, schema_ptr);
    if (!table.ok()) return table.status();
    loaded = table.MoveValueOrDie();
    source = &loaded;
  } else {
    return Status::InvalidArgument("init needs -t <table> or -f <csv>");
  }

  auto cvd = Cvd::Init(name, *source, options);
  if (!cvd.ok()) return cvd.status();
  if (repo_ != nullptr) {
    // Durably log the creation before registering it in the session: if
    // the log write fails, the CVD never existed anywhere.
    ORPHEUS_RETURN_NOT_OK(repo_->LogCreate(**cvd));
  }
  WireCommitObserver(cvd->get());
  cvds_[name] = cvd.MoveValueOrDie();
  return StrFormat("initialized CVD %s with version 1 (%zu records)",
                   name.c_str(), static_cast<size_t>(source->num_rows()));
}

Result<std::string> CommandProcessor::Checkout(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument(
        "usage: checkout <cvd> -v <vids> (-t table | -f csv)");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  const std::string* vspec = args.Flag("v");
  if (vspec == nullptr) {
    return Status::InvalidArgument("checkout needs -v <version list>");
  }
  auto vids = ParseVersionList(*vspec);
  if (!vids.ok()) return vids.status();

  if (const std::string* table = args.Flag("t")) {
    ORPHEUS_RETURN_NOT_OK((*cvd)->Checkout(*vids, *table, &staging_));
    access_.GrantTable(*table);
    return StrFormat("checked out version(s) %s into table %s",
                     vspec->c_str(), table->c_str());
  }
  if (const std::string* path = args.Flag("f")) {
    // Materialize, export, and drop the transient table; remember the
    // file's provenance for the later commit.
    std::string tmp = "__csv_checkout__";
    ORPHEUS_RETURN_NOT_OK((*cvd)->Checkout(*vids, tmp, &staging_));
    Table* t = staging_.GetTable(tmp);
    Status written = minidb::WriteCsv(*t, *path);
    Status forgotten = (*cvd)->ForgetStaging(tmp);
    Status dropped = staging_.DropTable(tmp);
    ORPHEUS_RETURN_NOT_OK(written);
    ORPHEUS_RETURN_NOT_OK(forgotten);
    ORPHEUS_RETURN_NOT_OK(dropped);
    files_[*path] = FileInfo{args.positional[0], *vids};
    return StrFormat("checked out version(s) %s into %s", vspec->c_str(),
                     path->c_str());
  }
  return Status::InvalidArgument("checkout needs -t <table> or -f <csv>");
}

Result<std::string> CommandProcessor::Commit(const Args& args) {
  const std::string* msg = args.Flag("m");
  std::string message = msg ? *msg : "";

  if (const std::string* table = args.Flag("t")) {
    ORPHEUS_RETURN_NOT_OK(access_.CheckTableAccess(*table));
    auto cvd = CvdOfStagingTable(*table);
    if (!cvd.ok()) return cvd.status();
    auto vid = (*cvd)->Commit(*table, &staging_, message,
                              access_.current_user());
    if (!vid.ok()) return vid.status();
    access_.RevokeTable(*table);
    return StrFormat("committed table %s as version %d of CVD %s",
                     table->c_str(), *vid, (*cvd)->name().c_str());
  }
  if (const std::string* path = args.Flag("f")) {
    auto info = files_.find(*path);
    if (info == files_.end()) {
      return Status::NotFound(
          StrFormat("%s was not checked out from any CVD", path->c_str()));
    }
    auto cvd = FindCvd(info->second.cvd);
    if (!cvd.ok()) return cvd.status();
    minidb::Schema schema;
    const minidb::Schema* schema_ptr = nullptr;
    if (const std::string* spec_path = args.Flag("s")) {
      std::ifstream in(*spec_path);
      if (!in) {
        return Status::NotFound(
            StrFormat("cannot open schema file %s", spec_path->c_str()));
      }
      std::stringstream buf;
      buf << in.rdbuf();
      auto parsed = minidb::ParseSchemaSpec(buf.str());
      if (!parsed.ok()) return parsed.status();
      schema = *parsed;
      // The exported csv carries the hidden _rid column; prepend it when
      // the user's schema file describes only the data attributes.
      if (schema.FindColumn("_rid") < 0) {
        minidb::Schema with_rid;
        with_rid.AddColumn({"_rid", minidb::ValueType::kInt64});
        for (const auto& def : schema.columns()) with_rid.AddColumn(def);
        schema = with_rid;
      }
      schema_ptr = &schema;
    }
    auto table = minidb::ReadCsv(*path, *path, schema_ptr);
    if (!table.ok()) return table.status();
    auto vid = (*cvd)->CommitTable(*table, info->second.parents, message,
                                   access_.current_user());
    if (!vid.ok()) return vid.status();
    files_.erase(info);
    return StrFormat("committed %s as version %d of CVD %s", path->c_str(),
                     *vid, (*cvd)->name().c_str());
  }
  return Status::InvalidArgument("commit needs -t <table> or -f <csv>");
}

Result<std::string> CommandProcessor::Diff(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: diff <cvd> -v <v1>,<v2>");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  const std::string* vspec = args.Flag("v");
  if (vspec == nullptr) return Status::InvalidArgument("diff needs -v v1,v2");
  auto vids = ParseVersionList(*vspec);
  if (!vids.ok()) return vids.status();
  if (vids->size() != 2) {
    return Status::InvalidArgument("diff takes exactly two versions");
  }
  auto table = (*cvd)->Diff((*vids)[0], (*vids)[1]);
  if (!table.ok()) return table.status();
  return StrFormat("records in v%d but not v%d:\n", (*vids)[0], (*vids)[1]) +
         RenderTable(*table);
}

Result<std::string> CommandProcessor::Ls() const {
  std::string out;
  auto list = [&out](const Cvd& cvd, const char* note) {
    out += StrFormat("%s  (%d versions, %llu bytes%s)\n", cvd.name().c_str(),
                     cvd.num_versions(),
                     static_cast<unsigned long long>(cvd.StorageBytes()),
                     note);
  };
  for (const auto& [name, cvd] : cvds_) list(*cvd, "");
  for (const auto& [name, manager] : local_sessions_.managers()) {
    ORPHEUS_IGNORE_ERROR(manager->ReadCvd([&](const Cvd& cvd) {
      list(cvd, ", session-managed");
      return Status::OK();
    }));
  }
  return out.empty() ? "no CVDs\n" : out;
}

Result<std::string> CommandProcessor::Drop(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: drop <cvd>");
  }
  const std::string& name = args.positional[0];
  ORPHEUS_RETURN_NOT_OK(FindCvd(name).status());
  // Log before applying: if the drop record cannot be made durable, the
  // CVD stays (memory and disk agree either way).
  if (repo_ != nullptr) ORPHEUS_RETURN_NOT_OK(repo_->LogDrop(name));
  cvds_.erase(name);
  return StrFormat("dropped CVD %s", name.c_str());
}

Result<std::string> CommandProcessor::Log(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: log <cvd>");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  std::ostringstream os;
  for (auto it = (*cvd)->metadata().rbegin(); it != (*cvd)->metadata().rend();
       ++it) {
    os << "version " << it->vid;
    if (!it->parents.empty()) {
      os << " (parents:";
      for (auto p : it->parents) os << " " << p;
      os << ")";
    }
    os << "\n  author:  "
       << (it->author.empty() ? "<anonymous>" : it->author) << "\n  records: "
       << it->num_records << "\n  message: " << it->message << "\n";
  }
  return os.str();
}

Result<std::string> CommandProcessor::RunSql(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: run \"<sql>\"");
  }
  const std::string& sql = args.positional[0];
  // Route to the CVD named after the `CVD` keyword.
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  std::string cvd_name;
  for (size_t i = 0; i + 1 < tokens->size(); ++i) {
    if (ToLower((*tokens)[i]) == "cvd") {
      cvd_name = (*tokens)[i + 1];
      // strip trailing punctuation like ','
      while (!cvd_name.empty() &&
             (cvd_name.back() == ',' || cvd_name.back() == ';')) {
        cvd_name.pop_back();
      }
      break;
    }
  }
  if (cvd_name.empty()) {
    return Status::InvalidArgument("query must reference a CVD");
  }
  auto cvd = FindCvd(cvd_name);
  if (!cvd.ok()) return cvd.status();
  auto result = core::RunQuery(**cvd, sql);
  if (!result.ok()) return result.status();
  return RenderTable(*result, 50);
}

Result<std::string> CommandProcessor::Optimize(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: optimize <cvd> [-g factor]");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  double factor = 2.0;
  if (const std::string* g = args.Flag("g")) {
    factor = ParseDoubleStrict(*g).value_or(0.0);
    if (!std::isfinite(factor) || factor < 1.0) {
      return Status::InvalidArgument("-g must be a finite number >= 1");
    }
  }
  const auto& graph = (*cvd)->graph();
  // |R| estimate: records in the whole CVD (single partition union).
  auto single = core::ComputeTreeEstimatedCosts(
      graph, graph.ToTree(),
      core::Partitioning::SinglePartition(graph.num_versions()));
  uint64_t gamma = static_cast<uint64_t>(
      factor * static_cast<double>(single.storage));
  auto plan = core::LyreSplitForBudget(graph, gamma);
  return StrFormat(
      "LyreSplit plan: %d partitions (delta=%.3f), estimated storage %llu "
      "records (budget %llu), estimated avg checkout %.0f records (vs %.0f "
      "unpartitioned)",
      plan.partitioning.num_partitions, plan.delta,
      static_cast<unsigned long long>(plan.estimated.storage),
      static_cast<unsigned long long>(gamma), plan.estimated.checkout_avg,
      single.checkout_avg);
}

Result<std::string> CommandProcessor::Fsck(const Args& args) {
  if (const std::string* dir = args.Flag("d")) {
    // Offline check of an on-disk repository (works whether or not a
    // repository is open in this session — pure read). Corruption exits
    // with the distinct fsck code so scripts can tell it from a bad
    // invocation.
    auto lines = storage::Repository::Fsck(*dir);
    if (!lines.ok()) {
      NoteExit(kExitCorrupt);
      return lines.status();
    }
    std::string out =
        StrFormat("fsck %s: clean\n", dir->c_str());
    for (const std::string& line : *lines) {
      out += "  " + line + "\n";
    }
    return out;
  }
  ValidationReport report;
  int checked = 0;
  const auto& managers = local_sessions_.managers();
  auto check_managed = [&](const std::string& name) {
    ORPHEUS_IGNORE_ERROR(managers.at(name)->ReadCvd(
        [&report](const core::Cvd& cvd) {
          core::ValidateCvd(cvd, &report);
          return Status::OK();
        }));
    ++checked;
  };
  if (!args.positional.empty()) {
    const std::string& name = args.positional[0];
    if (managers.count(name) != 0) {
      check_managed(name);
    } else {
      auto cvd = FindCvd(name);
      if (!cvd.ok()) return cvd.status();
      core::ValidateCvd(**cvd, &report);
      ++checked;
    }
  } else {
    for (const auto& [name, cvd] : cvds_) {
      (void)name;
      core::ValidateCvd(*cvd, &report);
      ++checked;
    }
    for (const auto& [name, manager] : managers) {
      (void)manager;
      check_managed(name);
    }
    for (const auto& name : staging_.ListTables()) {
      const Table* table = staging_.GetTable(name);
      if (table != nullptr) table->ValidateIndexes(&report);
    }
  }
  std::string health;
  if (repo_ != nullptr && repo_->degraded()) {
    NoteExit(kExitCorrupt);
    health = StrFormat(
        "\nrepository %s is DEGRADED: a WAL append failed, commits are "
        "refused; close the process and reopen the repository to recover",
        repo_->dir().c_str());
  }
  if (report.ok()) {
    return StrFormat("fsck: %d CVD(s) checked, no violations found",
                     checked) +
           health;
  }
  NoteExit(kExitCorrupt);
  return StrFormat("fsck: %d violation(s) found\n%s",
                   static_cast<int>(report.num_violations()),
                   report.ToString().c_str()) +
         health;
}

Result<std::string> CommandProcessor::SessionCmd(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument(
        "usage: session connect|disconnect|open|checkout|commit|refresh|"
        "heartbeat|ls|close ...");
  }
  const std::string sub = ToLower(args.positional[0]);
  session::SessionApi* api = &local_sessions_;
  if (remote_ != nullptr) api = remote_.get();

  if (sub == "disconnect") {
    if (remote_ == nullptr) return Status::InvalidArgument("not connected");
    remote_.reset();
    return std::string("disconnected; sessions are in-process again");
  }
  if (sub == "ls") {
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<session::CvdSummary> cvds,
                             api->Ls());
    if (cvds.empty()) {
      return std::string(remote_ != nullptr ? "server has no CVDs\n"
                                            : "no CVD has open sessions\n");
    }
    std::string out;
    for (const session::CvdSummary& c : cvds) {
      out += StrFormat("%s  (%d version(s), watermark v%d, %d open "
                       "session(s)%s)\n",
                       c.name.c_str(), c.num_versions, c.watermark,
                       c.open_sessions, c.failed ? ", COMMITS REFUSED" : "");
    }
    return out;
  }
  if (args.positional.size() < 2) {
    return Status::InvalidArgument(StrFormat(
        "usage: session %s <%s> ...", sub.c_str(),
        sub == "connect" ? "address" : sub == "open" ? "cvd" : "sid"));
  }
  const std::string& target = args.positional[1];
  if (sub == "connect") {
    ORPHEUS_ASSIGN_OR_RETURN(remote_, net::Client::Connect(target));
    return StrFormat("connected to %s as %s%s", target.c_str(),
                     remote_->client_uuid().c_str(),
                     remote_->server_degraded()
                         ? " (server DEGRADED: read-only)"
                         : "");
  }
  if (sub == "open") {
    ORPHEUS_ASSIGN_OR_RETURN(session::SessionApi::OpenResult opened,
                             api->Open(target));
    return StrFormat("opened session %llu on CVD %s (snapshot watermark v%d)",
                     static_cast<unsigned long long>(opened.sid),
                     target.c_str(), opened.watermark);
  }

  // The remaining subcommands address one session by sid.
  char* end = nullptr;
  const unsigned long long sid = std::strtoull(target.c_str(), &end, 10);
  if (end != target.c_str() + target.size() || sid == 0) {
    return Status::InvalidArgument(
        StrFormat("bad session id '%s'", target.c_str()));
  }
  if (sub == "checkout") {
    const std::string* vspec = args.Flag("v");
    const std::string* table = args.Flag("t");
    if (vspec == nullptr || table == nullptr) {
      return Status::InvalidArgument(
          "usage: session checkout <sid> -v <vids> -t <table>");
    }
    auto vids = ParseVersionList(*vspec);
    if (!vids.ok()) return vids.status();
    if (staging_.HasTable(*table)) {
      return Status::AlreadyExists(
          StrFormat("staging table %s already exists", table->c_str()));
    }
    ORPHEUS_ASSIGN_OR_RETURN(Table fetched,
                             api->Checkout(sid, *vids, *table));
    const size_t rows = fetched.num_rows();
    ORPHEUS_RETURN_NOT_OK(staging_.AdoptTable(std::move(fetched)).status());
    return StrFormat("session %llu checked out version(s) %s into table %s "
                     "(%zu record(s))",
                     sid, vspec->c_str(), table->c_str(), rows);
  }
  if (sub == "commit") {
    const std::string* table = args.Flag("t");
    if (table == nullptr) {
      return Status::InvalidArgument(
          "usage: session commit <sid> -t <table> -m \"<msg>\"");
    }
    const Table* staged = staging_.GetTable(*table);
    if (staged == nullptr) {
      return Status::NotFound(
          StrFormat("no staging table named %s", table->c_str()));
    }
    const std::string* msg = args.Flag("m");
    ORPHEUS_ASSIGN_OR_RETURN(
        session::CommitOutcome outcome,
        api->Commit(sid, *staged, msg ? *msg : "", access_.current_user()));
    ORPHEUS_RETURN_NOT_OK(staging_.DropTable(*table));
    return RenderCommit(sid, *table, outcome);
  }
  if (sub == "refresh") {
    ORPHEUS_ASSIGN_OR_RETURN(VersionId watermark, api->Refresh(sid));
    return StrFormat("session %llu now at watermark v%d", sid, watermark);
  }
  if (sub == "heartbeat") {
    if (remote_ == nullptr) {
      return Status::InvalidArgument(
          "only a connected session holds a lease to renew (run `session "
          "connect <address>` first)");
    }
    ORPHEUS_ASSIGN_OR_RETURN(int64_t lease, remote_->Heartbeat(sid));
    return StrFormat("session %llu lease renewed (%lld ms)", sid,
                     static_cast<long long>(lease));
  }
  if (sub == "close") {
    ORPHEUS_RETURN_NOT_OK(api->CloseSession(sid));
    return StrFormat("session %llu closed", sid);
  }
  return Status::InvalidArgument(StrFormat(
      "unknown session subcommand '%s' (want "
      "connect|disconnect|open|checkout|commit|refresh|heartbeat|ls|close)",
      sub.c_str()));
}

Result<std::string> CommandProcessor::Stats(const Args& args) {
  auto& registry = MetricsRegistry::Global();
  bool as_json = false;
  bool reset = false;
  for (const std::string& arg : args.positional) {
    std::string a = ToLower(arg);
    if (a == "json") {
      as_json = true;
    } else if (a == "reset") {
      reset = true;
    } else {
      return Status::InvalidArgument(
          StrFormat("usage: stats [json] [reset] [-j <file>]; got '%s'",
                    arg.c_str()));
    }
  }
  std::string out;
  if (const std::string* path = args.Flag("j")) {
    ORPHEUS_RETURN_NOT_OK(
        WriteFileAtomic(*path, registry.ToJson(), /*sync=*/false));
    out = StrFormat("metrics written to %s", path->c_str());
  } else {
    out = as_json ? registry.ToJson() : registry.ToText();
    if (!as_json && repo_ != nullptr) {
      // Surface repository health with the human-readable stats (the JSON
      // form stays pure metrics for the bench schema checker).
      out = StrFormat("repository %s: %s\n", repo_->dir().c_str(),
                      repo_->degraded()
                          ? "DEGRADED (WAL append failed; reopen to recover)"
                          : "healthy") +
            out;
    }
  }
  if (reset) registry.Reset();
  return out;
}

Result<std::string> CommandProcessor::Trace(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument(
        "usage: trace start|stop|status|dump <file>");
  }
  const std::string sub = ToLower(args.positional[0]);
  if (sub == "start") {
    if (!MetricsEnabled()) {
      return Status::NotSupported(
          "tracing requires metrics (built with ORPHEUS_METRICS=ON and not "
          "disabled via the ORPHEUS_METRICS environment variable)");
    }
    trace::SetCurrentThreadName("main");
    trace::Clear();
    trace::Start();
    return std::string("tracing started (fresh buffers)");
  }
  if (sub == "stop") {
    trace::Stop();
    return StrFormat("tracing stopped (%zu event(s) buffered)",
                     trace::NumBufferedEvents());
  }
  if (sub == "status") {
    return StrFormat("tracing %s, %zu event(s) buffered, ring capacity %zu",
                     trace::IsActive() ? "active" : "inactive",
                     trace::NumBufferedEvents(), trace::RingCapacity());
  }
  if (sub == "dump") {
    if (args.positional.size() < 2) {
      return Status::InvalidArgument("usage: trace dump <file>");
    }
    const std::string& path = args.positional[1];
    ORPHEUS_RETURN_NOT_OK(
        WriteFileAtomic(path, trace::ToChromeJson(), /*sync=*/false));
    return StrFormat("trace written to %s (%zu event(s)); load it in "
                     "chrome://tracing or https://ui.perfetto.dev",
                     path.c_str(), trace::NumBufferedEvents());
  }
  return Status::InvalidArgument(
      StrFormat("unknown trace subcommand '%s' (want start|stop|status|dump)",
                sub.c_str()));
}

Result<std::string> CommandProcessor::Profile(const std::string& command) {
  if (command.empty()) {
    return Status::InvalidArgument("usage: profile <command...>");
  }
  if (!MetricsEnabled()) {
    return Status::NotSupported(
        "profiling requires metrics (built with ORPHEUS_METRICS=ON and not "
        "disabled via the ORPHEUS_METRICS environment variable)");
  }
  // Fresh recording covering exactly the wrapped command; any recording in
  // progress is restarted afterwards with its buffers cleared.
  const bool was_active = trace::IsActive();
  trace::SetCurrentThreadName("main");
  trace::Clear();
  trace::Start();
  auto result = Execute(command);
  if (!was_active) trace::Stop();
  if (!result.ok()) return result.status();
  std::string out = *result;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += StrFormat("--- profile: %s ---\n", command.c_str());
  out += trace::ProfileReport();
  return out;
}

Status CommandProcessor::RequireNoLocalSessions(const char* action) const {
  if (local_sessions_.managers().empty()) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "CVDs have open in-process sessions; `session close` them before %s",
      action));
}

void CommandProcessor::WireCommitObserver(Cvd* cvd) {
  const std::string name = cvd->name();
  cvd->set_commit_observer([this, name](const core::CvdCommitRecord& record) {
    if (repo_ == nullptr) return Status::OK();
    return repo_->LogCommit(name, record);
  });
}

std::vector<const Cvd*> CommandProcessor::CvdPointers() const {
  std::vector<const Cvd*> out;
  out.reserve(cvds_.size());
  for (const auto& [name, cvd] : cvds_) {
    (void)name;
    out.push_back(cvd.get());
  }
  return out;
}

Result<std::string> CommandProcessor::OpenRepository(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: open <dir>");
  }
  if (repo_ != nullptr) {
    return Status::InvalidArgument(StrFormat(
        "a repository is already open at %s (close it first)",
        repo_->dir().c_str()));
  }
  ORPHEUS_RETURN_NOT_OK(RequireNoLocalSessions("opening a repository"));
  auto repo = storage::Repository::Open(args.positional[0]);
  if (!repo.ok()) return repo.status();
  auto recovered = (*repo)->TakeCvds();
  for (const auto& cvd : recovered) {
    if (cvds_.count(cvd->name()) != 0) {
      return Status::AlreadyExists(StrFormat(
          "repository CVD %s collides with a CVD already in this session",
          cvd->name().c_str()));
    }
  }
  repo_ = repo.MoveValueOrDie();
  // CVDs created in the session before `open` become durable now: their
  // creation is logged as if they were initialized under the repository.
  for (const auto& [name, cvd] : cvds_) {
    (void)name;
    Status logged = repo_->LogCreate(*cvd);
    if (!logged.ok()) {
      repo_.reset();
      return logged;
    }
  }
  size_t num_recovered = recovered.size();
  for (auto& cvd : recovered) {
    std::string name = cvd->name();
    cvds_[std::move(name)] = std::move(cvd);
  }
  for (const auto& [name, cvd] : cvds_) {
    (void)name;
    WireCommitObserver(cvd.get());
  }
  const auto& stats = repo_->stats();
  return StrFormat(
      "opened repository %s (checkpoint %llu, %zu CVD(s) recovered, %llu WAL "
      "record(s) replayed%s, %s)",
      repo_->dir().c_str(), static_cast<unsigned long long>(stats.seq),
      num_recovered, static_cast<unsigned long long>(stats.wal_records),
      stats.recovered_torn_tail ? ", torn tail truncated" : "",
      repo_->degraded() ? "DEGRADED" : "healthy");
}

Result<std::string> CommandProcessor::CheckpointRepository() {
  if (repo_ == nullptr) {
    return Status::InvalidArgument("no repository open (use: open <dir>)");
  }
  // A checkpoint folds the passed-in CVDs into the new snapshot; CVDs
  // with open sessions live inside their managers, so checkpointing
  // without them would silently drop their history.
  ORPHEUS_RETURN_NOT_OK(RequireNoLocalSessions("checkpointing"));
  ORPHEUS_RETURN_NOT_OK(repo_->Checkpoint(CvdPointers()));
  return StrFormat("checkpoint %llu written to %s",
                   static_cast<unsigned long long>(repo_->stats().seq),
                   repo_->dir().c_str());
}

Result<std::string> CommandProcessor::CloseRepository() {
  if (repo_ == nullptr) {
    return Status::InvalidArgument("no repository open (use: open <dir>)");
  }
  ORPHEUS_RETURN_NOT_OK(RequireNoLocalSessions("closing the repository"));
  ORPHEUS_RETURN_NOT_OK(repo_->Close(CvdPointers()));
  std::string dir = repo_->dir();
  size_t released = cvds_.size();
  // The repository now holds the authoritative state; release the CVDs so
  // the session cannot diverge from disk unlogged.
  cvds_.clear();
  repo_.reset();
  return StrFormat("closed repository %s (%zu CVD(s) released)", dir.c_str(),
                   released);
}

}  // namespace orpheus::cli
