#include "store/csv_import.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "rel/column_batch.h"

namespace gus {

namespace {

/// Type-inference lattice position: int64 <= float64 <= string.
enum class InferredType { kInt64 = 0, kFloat64 = 1, kString = 2 };

InferredType Widen(InferredType a, InferredType b) {
  return a >= b ? a : b;
}

/// Strictest type the text parses as. Whole-field parses only — "12abc"
/// is a string, not 12.
InferredType ClassifyField(const std::string& s) {
  if (s.empty()) return InferredType::kString;
  errno = 0;
  char* end = nullptr;
  const long long i = std::strtoll(s.c_str(), &end, 10);
  if (errno == 0 && end == s.c_str() + s.size()) {
    (void)i;
    return InferredType::kInt64;
  }
  errno = 0;
  end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (errno == 0 && end == s.c_str() + s.size()) {
    (void)d;
    return InferredType::kFloat64;
  }
  return InferredType::kString;
}

/// Parses `s` as the type of `col` and appends it there.
Status AppendField(const std::string& s, ColumnData* col) {
  switch (col->type) {
    case ValueType::kInt64: {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(s.c_str(), &end, 10);
      if (errno != 0 || end != s.c_str() + s.size() || s.empty()) {
        return Status::InvalidArgument("CSV field '" + s +
                                       "' is not an int64");
      }
      col->i64.push_back(static_cast<int64_t>(v));
      return Status::OK();
    }
    case ValueType::kFloat64: {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (errno != 0 || end != s.c_str() + s.size() || s.empty()) {
        return Status::InvalidArgument("CSV field '" + s +
                                       "' is not a float64");
      }
      col->f64.push_back(v);
      return Status::OK();
    }
    case ValueType::kString:
      col->codes.push_back(col->MutableDict()->Intern(s));
      return Status::OK();
  }
  return Status::Internal("unhandled ValueType");
}

Result<ValueType> NamedType(const std::string& name) {
  if (name == "int64") return ValueType::kInt64;
  if (name == "float64") return ValueType::kFloat64;
  if (name == "string") return ValueType::kString;
  return Status::InvalidArgument("unknown column type '" + name +
                                 "' (want int64|float64|string)");
}

/// Splits `text` into lines, tolerating \r\n and a missing final newline;
/// blank lines are dropped.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    size_t end = nl;
    if (end > pos && text[end - 1] == '\r') --end;
    if (end > pos) lines.push_back(text.substr(pos, end - pos));
    pos = nl + 1;
  }
  return lines;
}

}  // namespace

Result<std::vector<std::string>> SplitCsvRecord(const std::string& line,
                                                char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  if (quoted) {
    return Status::InvalidArgument("unterminated quote in CSV record: " +
                                   line);
  }
  fields.push_back(std::move(field));
  return fields;
}

Result<Relation> ImportCsvText(const std::string& name,
                               const std::string& text,
                               const CsvImportOptions& options) {
  const std::vector<std::string> lines = SplitLines(text);
  if (lines.empty()) {
    return Status::InvalidArgument("CSV input for '" + name + "' is empty");
  }

  size_t first_data = 0;
  std::vector<std::string> names;
  GUS_ASSIGN_OR_RETURN(std::vector<std::string> head,
                       SplitCsvRecord(lines[0], options.delimiter));
  const size_t num_cols = head.size();
  if (options.has_header) {
    names = std::move(head);
    first_data = 1;
  } else {
    for (size_t i = 0; i < num_cols; ++i) {
      names.push_back("c" + std::to_string(i));
    }
  }

  // Split all records once; column counts must agree everywhere.
  std::vector<std::vector<std::string>> records;
  records.reserve(lines.size() - first_data);
  for (size_t i = first_data; i < lines.size(); ++i) {
    GUS_ASSIGN_OR_RETURN(std::vector<std::string> rec,
                         SplitCsvRecord(lines[i], options.delimiter));
    if (rec.size() != num_cols) {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(i + 1) + " has " +
          std::to_string(rec.size()) + " fields, want " +
          std::to_string(num_cols));
    }
    records.push_back(std::move(rec));
  }

  // Column types: pinned, or inferred by widening across all rows.
  std::vector<ValueType> types(num_cols, ValueType::kInt64);
  if (!options.column_types.empty()) {
    if (options.column_types.size() != num_cols) {
      return Status::InvalidArgument(
          "column_types has " + std::to_string(options.column_types.size()) +
          " entries, CSV has " + std::to_string(num_cols) + " columns");
    }
    for (size_t c = 0; c < num_cols; ++c) {
      GUS_ASSIGN_OR_RETURN(types[c], NamedType(options.column_types[c]));
    }
  } else {
    std::vector<InferredType> inferred(num_cols, InferredType::kInt64);
    for (const auto& rec : records) {
      for (size_t c = 0; c < num_cols; ++c) {
        inferred[c] = Widen(inferred[c], ClassifyField(rec[c]));
      }
    }
    for (size_t c = 0; c < num_cols; ++c) {
      types[c] = inferred[c] == InferredType::kInt64 ? ValueType::kInt64
                 : inferred[c] == InferredType::kFloat64
                     ? ValueType::kFloat64
                     : ValueType::kString;
    }
  }

  std::vector<Column> columns;
  columns.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    columns.push_back(Column{names[c], types[c]});
  }

  std::vector<ColumnData> data(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    data[c].type = types[c];
    data[c].Reserve(static_cast<int64_t>(records.size()));
  }
  for (const auto& rec : records) {
    for (size_t c = 0; c < num_cols; ++c) {
      GUS_RETURN_NOT_OK(AppendField(rec[c], &data[c]));
    }
  }

  return Relation::MakeBaseFromColumns(name, Schema(std::move(columns)),
                                       std::move(data));
}

Result<Relation> ImportCsvFile(const std::string& name,
                               const std::string& path,
                               const CsvImportOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open CSV file: " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::Internal("error reading CSV file: " + path);
  return ImportCsvText(name, text, options);
}

}  // namespace gus
