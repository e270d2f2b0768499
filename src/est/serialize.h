// Text serialization of SBox inputs — the paper's "estimator as an external
// tool" integration mode (Section 6): a database only needs to dump the top
// GUS parameters plus the (lineage, f) stream, and a separate process can
// produce estimates and confidence intervals.
//
// Format (line oriented, '#' comments allowed):
//
//   gus-sbox-v1
//   schema <rel_1> ... <rel_n>
//   a <value>
//   b <mask> <value>          # one line per subset mask, all 2^n present
//   rows <m>
//   <id_1> ... <id_n> <f>     # m data lines
//
// Masks are decimal over the schema ordering (bit i = relation i).

#ifndef GUS_EST_SERIALIZE_H_
#define GUS_EST_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "algebra/gus_params.h"
#include "est/sample_view.h"
#include "util/status.h"

namespace gus {

/// A deserialized SBox input.
struct SboxInput {
  GusParams gus;
  SampleView view;
};

/// Serializes the (gus, view) pair; the view's schema must match the GUS's.
Result<std::string> SboxInputToString(const GusParams& gus,
                                      const SampleView& view);

/// Parses a serialized input; validates header, table completeness, row
/// counts and parameter ranges.
Result<SboxInput> ReadSboxInput(std::istream* in);

/// Parses from a string (convenience over ReadSboxInput).
Result<SboxInput> SboxInputFromString(const std::string& text);

}  // namespace gus

#endif  // GUS_EST_SERIALIZE_H_
