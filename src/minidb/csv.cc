#include "minidb/csv.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/env.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace orpheus::minidb {

namespace {

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteCell(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Split one CSV record honoring quotes. `pos` advances past the record
/// (including the terminator: \n, \r\n, or a lone \r). `line` is the
/// 1-based physical line where the record starts; it advances past every
/// newline consumed, including newlines embedded in quoted cells. A quote
/// still open at end of input is an error (the file was truncated or the
/// quoting is broken) rather than a silently shortened dataset.
Result<std::vector<std::string>> ParseRecord(const std::string& text,
                                             size_t* pos, size_t* line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  size_t quote_line = 0;
  size_t quote_col = 0;
  size_t i = *pos;
  size_t col = 1;  // 1-based column on the current physical line
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          cur += '"';
          ++i;
          ++col;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
        if (c == '\n') {
          ++*line;
          col = 0;  // the ++col below makes the next char column 1
        }
      }
    } else if (c == '"') {
      in_quotes = true;
      quote_line = *line;
      quote_col = col;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
      ++i;
      ++*line;
      break;
    } else {
      cur += c;
    }
    ++i;
    ++col;
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        StrFormat("unterminated quoted field: quote opened at line %zu, "
                  "column %zu is still open at end of input",
                  quote_line, quote_col));
  }
  fields.push_back(std::move(cur));
  *pos = i;
  return fields;
}

Result<Value> ParseCell(const std::string& text, ValueType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      std::optional<int64_t> v = ParseIntStrict(text);
      if (!v) {
        return Status::InvalidArgument(
            StrFormat("bad int64 cell '%s'", text.c_str()));
      }
      return Value(*v);
    }
    case ValueType::kDouble: {
      std::optional<double> v = ParseDoubleStrict(text);
      if (!v) {
        return Status::InvalidArgument(
            StrFormat("bad double cell '%s'", text.c_str()));
      }
      return Value(*v);
    }
    case ValueType::kString:
      return Value(text);
    default:
      return Status::NotSupported("csv supports int64/double/string");
  }
}

}  // namespace

std::string ToCsv(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c) out += ',';
    out += QuoteCell(table.schema().column(c).name);
  }
  out += '\n';
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c) out += ',';
      Value v = table.GetValue(r, c);
      if (!v.is_null()) out += QuoteCell(v.ToString());
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  // Temp-file + atomic rename: a failed or interrupted export never leaves
  // a truncated CSV under the requested name. Durability (fsync) is left
  // to the OS — the export is reproducible from the CVD.
  return WriteFileAtomic(path, ToCsv(table), /*sync=*/false);
}

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  Schema schema;
  for (const auto& raw_line : Split(spec, '\n')) {
    for (const auto& raw : Split(raw_line, ',')) {
      std::string entry(Trim(raw));
      if (entry.empty() || entry[0] == '#') continue;
      auto parts = Split(entry, ':');
      if (parts.size() != 2) {
        return Status::InvalidArgument(
            StrFormat("bad schema entry '%s' (want name:type)",
                      entry.c_str()));
      }
      std::string name(Trim(parts[0]));
      std::string type = ToLower(std::string(Trim(parts[1])));
      ValueType vt;
      if (type == "int" || type == "int64" || type == "integer") {
        vt = ValueType::kInt64;
      } else if (type == "double" || type == "decimal" || type == "float") {
        vt = ValueType::kDouble;
      } else if (type == "string" || type == "text" || type == "varchar") {
        vt = ValueType::kString;
      } else {
        return Status::InvalidArgument(
            StrFormat("unknown type '%s'", type.c_str()));
      }
      schema.AddColumn({name, vt});
    }
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("empty schema spec");
  }
  return schema;
}

Result<Table> ParseCsv(const std::string& text, const std::string& table_name,
                       const Schema* schema) {
  size_t pos = 0;
  size_t line = 1;
  if (text.empty()) return Status::InvalidArgument("empty csv");
  auto header_or = ParseRecord(text, &pos, &line);
  if (!header_or.ok()) return header_or.status();
  std::vector<std::string> header = header_or.MoveValueOrDie();

  // Collect raw records first (needed for type inference).
  std::vector<std::vector<std::string>> records;
  while (pos < text.size()) {
    const size_t record_line = line;
    auto rec_or = ParseRecord(text, &pos, &line);
    if (!rec_or.ok()) return rec_or.status();
    auto rec = rec_or.MoveValueOrDie();
    if (rec.size() == 1 && rec[0].empty()) continue;  // blank line
    if (rec.size() != header.size()) {
      return Status::InvalidArgument(
          StrFormat("row at line %zu has %zu fields, header has %zu",
                    record_line, rec.size(), header.size()));
    }
    records.push_back(std::move(rec));
  }

  Schema resolved;
  if (schema != nullptr) {
    resolved = *schema;
    if (resolved.num_columns() != header.size()) {
      return Status::InvalidArgument("schema arity != csv header arity");
    }
  } else {
    // Infer each column: int64 if all non-empty cells parse as ints, else
    // double, else string.
    for (size_t c = 0; c < header.size(); ++c) {
      bool all_int = true;
      bool all_double = true;
      for (const auto& rec : records) {
        if (rec[c].empty()) continue;
        // The strict parsers of ParseCell, so a column is never inferred as
        // a type its cells then fail (or change value) under: an integer
        // overflowing int64 is not "int", it widens to double (or string).
        if (!ParseIntStrict(rec[c])) all_int = false;
        if (!ParseDoubleStrict(rec[c])) all_double = false;
      }
      ValueType vt = all_int ? ValueType::kInt64
                     : all_double ? ValueType::kDouble
                                  : ValueType::kString;
      resolved.AddColumn({header[c], vt});
    }
  }

  Table table(table_name, resolved);
  for (const auto& rec : records) {
    Row row;
    row.reserve(rec.size());
    for (size_t c = 0; c < rec.size(); ++c) {
      auto v = ParseCell(rec[c], resolved.column(c).type);
      if (!v.ok()) return v.status();
      row.push_back(*v);
    }
    table.AppendRowUnchecked(row);
  }
  return table;
}

Result<Table> ReadCsv(const std::string& path, const std::string& table_name,
                      const Schema* schema) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open %s: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str(), table_name, schema);
}

}  // namespace orpheus::minidb
