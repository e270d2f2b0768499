#include "est/serialize.h"

#include <cinttypes>
#include <istream>
#include <ostream>
#include <sstream>

namespace gus {

namespace {

constexpr char kMagic[] = "gus-sbox-v1";

/// Reads the next non-comment, non-empty line.
bool NextLine(std::istream* in, std::string* line) {
  while (std::getline(*in, *line)) {
    const size_t start = line->find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if ((*line)[start] == '#') continue;
    return true;
  }
  return false;
}

Status WriteSboxInput(std::ostream* out, const GusParams& gus,
                      const SampleView& view) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("view / GUS schema mismatch");
  }
  *out << kMagic << "\n";
  *out << "schema";
  for (const auto& rel : gus.schema().relations()) *out << " " << rel;
  *out << "\n";
  std::ostringstream num;
  num.precision(17);
  num << gus.a();
  *out << "a " << num.str() << "\n";
  for (SubsetMask m = 0; m < gus.schema().num_subsets(); ++m) {
    std::ostringstream bnum;
    bnum.precision(17);
    bnum << gus.b(m);
    *out << "b " << m << " " << bnum.str() << "\n";
  }
  *out << "rows " << view.num_rows() << "\n";
  for (int64_t i = 0; i < view.num_rows(); ++i) {
    for (int d = 0; d < gus.schema().arity(); ++d) {
      *out << view.lineage[d][i] << " ";
    }
    std::ostringstream fnum;
    fnum.precision(17);
    fnum << view.f[i];
    *out << fnum.str() << "\n";
  }
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

}  // namespace

Result<std::string> SboxInputToString(const GusParams& gus,
                                      const SampleView& view) {
  std::ostringstream out;
  GUS_RETURN_NOT_OK(WriteSboxInput(&out, gus, view));
  return out.str();
}

Result<SboxInput> ReadSboxInput(std::istream* in) {
  std::string line;
  if (!NextLine(in, &line) || line.find(kMagic) == std::string::npos) {
    return Status::InvalidArgument(
        "not a gus-sbox-v1 file (missing magic line)");
  }
  // schema
  if (!NextLine(in, &line)) return Status::InvalidArgument("missing schema");
  std::istringstream schema_line(line);
  std::string token;
  schema_line >> token;
  if (token != "schema") {
    return Status::InvalidArgument("expected 'schema', got '" + token + "'");
  }
  std::vector<std::string> rels;
  while (schema_line >> token) rels.push_back(token);
  GUS_ASSIGN_OR_RETURN(LineageSchema schema, LineageSchema::Make(rels));

  // a
  if (!NextLine(in, &line)) return Status::InvalidArgument("missing a");
  std::istringstream a_line(line);
  double a = -1.0;
  a_line >> token >> a;
  if (token != "a" || a_line.fail()) {
    return Status::InvalidArgument("malformed 'a' line: " + line);
  }

  // b table
  std::vector<double> b(schema.num_subsets(), -1.0);
  for (size_t k = 0; k < schema.num_subsets(); ++k) {
    if (!NextLine(in, &line)) {
      return Status::InvalidArgument("truncated b table");
    }
    std::istringstream b_line(line);
    uint64_t mask = 0;
    double value = -1.0;
    b_line >> token >> mask >> value;
    if (token != "b" || b_line.fail() || mask >= b.size()) {
      return Status::InvalidArgument("malformed 'b' line: " + line);
    }
    b[mask] = value;
  }
  for (double v : b) {
    if (v < 0.0) {
      return Status::InvalidArgument("b table has missing entries");
    }
  }
  GUS_ASSIGN_OR_RETURN(GusParams gus, GusParams::Make(schema, a, b));

  // rows
  if (!NextLine(in, &line)) return Status::InvalidArgument("missing rows");
  std::istringstream rows_line(line);
  int64_t rows = -1;
  rows_line >> token >> rows;
  if (token != "rows" || rows_line.fail() || rows < 0) {
    return Status::InvalidArgument("malformed 'rows' line: " + line);
  }
  SampleView view;
  view.schema = schema;
  view.lineage.assign(schema.arity(), {});
  view.f.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    if (!NextLine(in, &line)) {
      return Status::InvalidArgument("truncated data section");
    }
    std::istringstream data_line(line);
    for (int d = 0; d < schema.arity(); ++d) {
      uint64_t id = 0;
      data_line >> id;
      if (data_line.fail()) {
        return Status::InvalidArgument("malformed data line: " + line);
      }
      view.lineage[d].push_back(id);
    }
    double f = 0.0;
    data_line >> f;
    if (data_line.fail()) {
      return Status::InvalidArgument("malformed data line: " + line);
    }
    view.f.push_back(f);
  }
  return SboxInput{std::move(gus), std::move(view)};
}

Result<SboxInput> SboxInputFromString(const std::string& text) {
  std::istringstream in(text);
  return ReadSboxInput(&in);
}

}  // namespace gus
