#ifndef ORPHEUS_CLI_COMMAND_PROCESSOR_H_
#define ORPHEUS_CLI_COMMAND_PROCESSOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/access_control.h"
#include "core/cvd.h"
#include "minidb/database.h"
#include "net/client.h"
#include "session/session_api.h"
#include "storage/repository.h"

namespace orpheus::cli {

/// The OrpheusDB command client (Sec. 3.3): parses git-style version
/// control commands and SQL, and executes them against an in-process
/// session. One processor is one user session holding the staging area
/// (materialized tables), the registered CVDs, and the access controller.
///
/// Supported commands:
///   create_user <name>              register a user
///   config <name>                   log in
///   whoami                          show the current user
///   init <cvd> -t <table> [-k a,b]  register a staging table as a CVD
///   init <cvd> -f <file.csv> [-s <schema.txt>] [-k a,b]
///   checkout <cvd> -v <v1[,v2...]> (-t <table> | -f <file.csv>)
///   commit -t <table> -m "<msg>"    commit a staging table
///   commit <cvd> -f <file.csv> [-s <schema.txt>] -m "<msg>"
///   diff <cvd> -v <v1>,<v2>         records in v1 but not v2
///   ls                              list CVDs
///   drop <cvd>                      remove a CVD
///   log <cvd>                       version metadata and graph
///   run "<sql>"                     versioned SQL (Sec. 3.3.2)
///   optimize <cvd> [-g <factor>]    run the partition optimizer (Ch. 5)
///   tables                          list staging tables
///   open <dir>                      open (or create) a durable repository:
///                                   recover its CVDs, then log every
///                                   init/commit/drop to its WAL
///   checkpoint                      fold the WAL into a fresh snapshot
///   close                           checkpoint, close the repository, and
///                                   release its CVDs from the session
///   fsck [cvd]                      check structural invariants; with no
///                                   argument checks every CVD and the
///                                   staging tables, reporting every
///                                   violation found
///   fsck -d <dir>                   offline check of an on-disk repository
///                                   (CURRENT, snapshot, WAL, recovered
///                                   CVD invariants) without opening it
///   stats [json] [reset] [-j file]  metrics snapshot (DESIGN.md §8):
///                                   plaintext by default, `json` for the
///                                   JSON form, `-j <file>` to write the
///                                   JSON to a file, `reset` to zero every
///                                   counter/histogram/span afterwards
///   trace start|stop|status         flight recorder (DESIGN.md §9):
///   trace dump <file>               record span begin/end events into the
///                                   per-thread ring buffers; dump writes
///                                   Chrome trace-event JSON loadable in
///                                   chrome://tracing or Perfetto
///   profile <command...>            run any single command under a fresh
///                                   trace and render its per-stage tree
///                                   (count, total, self, p95)
///
/// Session commands (DESIGN.md §13, §14) — one family over one
/// session::SessionApi. Sessions run in-process over this processor's CVDs
/// until `session connect` points the family at an orpheusd server
/// (start one with `orpheusd serve <dir>`), and again after `session
/// disconnect`. In-process, a CVD joins the session layer with its first
/// `session open` and comes back with its last `session close`; plain
/// checkout/commit/drop on it are refused meanwhile. A checkout lands in
/// the staging area; a commit ships it and drops it:
///   session connect <address>       connect (unix:<path> or tcp:<port>);
///                                   calls retry transient faults and the
///                                   server deduplicates commits
///   session disconnect              drop the connection
///   session open <cvd>              open a session (prints its sid)
///   session checkout <sid> -v <vids> -t <table>
///   session commit <sid> -t <table> -m "<msg>"
///                                   optimistic commit: reconciles against a
///                                   concurrent tip, or reports the conflict
///                                   set
///   session refresh <sid>           re-pin to the durable watermark
///   session heartbeat <sid>         renew a connected session's lease
///   session ls                      list CVDs with their watermark and
///                                   open sessions
///   session close <sid>             close the session
class CommandProcessor {
 public:
  CommandProcessor();

  /// Execute one command line; returns the text to display.
  Result<std::string> Execute(const std::string& line);

  /// Sticky process exit code for the CLI binary: 0 until a command
  /// reports something worse. `fsck` sets kExitCorrupt when it finds
  /// violations, on-disk corruption, or a degraded repository — distinct
  /// from kExitError so scripts can tell "bad invocation" from "bad data".
  static constexpr int kExitError = 1;
  static constexpr int kExitCorrupt = 2;
  int exit_code() const { return exit_code_; }
  void NoteError() { NoteExit(kExitError); }

  /// Accessors for tests.
  minidb::Database* staging() { return &staging_; }
  core::Cvd* cvd(const std::string& name) {
    auto it = cvds_.find(name);
    return it == cvds_.end() ? nullptr : it->second.get();
  }

 private:
  struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;  // -x value

    const std::string* Flag(const std::string& name) const {
      auto it = flags.find(name);
      return it == flags.end() ? nullptr : &it->second;
    }
  };

  static Result<Args> ParseArgs(const std::string& line);

  Result<std::string> Init(const Args& args);
  Result<std::string> Checkout(const Args& args);
  Result<std::string> Commit(const Args& args);
  Result<std::string> Diff(const Args& args);
  Result<std::string> Ls() const;
  Result<std::string> Drop(const Args& args);
  Result<std::string> Log(const Args& args);
  Result<std::string> RunSql(const Args& args);
  Result<std::string> Optimize(const Args& args);
  Result<std::string> Fsck(const Args& args);
  Result<std::string> SessionCmd(const Args& args);
  Result<std::string> Stats(const Args& args);
  Result<std::string> Trace(const Args& args);
  Result<std::string> Profile(const std::string& command);
  Result<std::string> OpenRepository(const Args& args);
  Result<std::string> CheckpointRepository();
  Result<std::string> CloseRepository();

  Result<core::Cvd*> FindCvd(const std::string& name);
  /// The CVD that owns staging table `table`, or an error.
  Result<core::Cvd*> CvdOfStagingTable(const std::string& table);

  /// Route the CVD's future commits into the repository's WAL. Safe to
  /// call whether or not a repository is open: the observer checks at
  /// commit time, so it survives close/reopen.
  void WireCommitObserver(core::Cvd* cvd);
  std::vector<const core::Cvd*> CvdPointers() const;

  /// InvalidArgument naming `action` while CVDs have in-process sessions.
  Status RequireNoLocalSessions(const char* action) const;

  void NoteExit(int code) {
    if (code > exit_code_) exit_code_ = code;
  }

  minidb::Database staging_;
  std::map<std::string, std::unique_ptr<core::Cvd>> cvds_;
  std::unique_ptr<storage::Repository> repo_;
  core::AccessController access_;
  // The session family's backends: in-process sessions over CVDs lent
  // from cvds_, and the orpheusd client while `session connect`ed.
  using LocalLoan = session::InProcessSessions::Loan;
  session::InProcessSessions local_sessions_;
  std::unique_ptr<net::Client> remote_;
  int exit_code_ = 0;
  // CSV checkout provenance: file path -> (cvd name, parent versions).
  struct FileInfo {
    std::string cvd;
    std::vector<core::VersionId> parents;
  };
  std::map<std::string, FileInfo> files_;
};

}  // namespace orpheus::cli

#endif  // ORPHEUS_CLI_COMMAND_PROCESSOR_H_
