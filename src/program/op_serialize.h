/// \file op_serialize.h
/// \brief Text serialization of GOOD operations and programs.
///
/// The paper's operations are drawn graphically; this format is their
/// storable textual counterpart (complementing the builder API and the
/// DOT exporter). Example:
///
/// \code
/// na {
///   pattern {
///     node n0 Info;
///     node n1 Date = "Jan 14, 1990";
///     edge n0 created n1;
///   }
///   label Rock;
///   edge tagged-to n0;
/// }
/// ea { pattern { ... } add n0 data-creation n1 functional; }
/// nd { pattern { ... } delete n0; }
/// ed { pattern { ... } remove n0 modified n1; }
/// ab { pattern { ... } node n0; label Same-Info;
///      member contains; group links-to; }
/// call { pattern { ... } method Update; arg parameter n1;
///        receiver n0; }
/// \endcode
///
/// Section 4.1 match filters and external functions are C++ closures
/// and cannot be serialized; writing an operation that carries one
/// returns Unimplemented.

#ifndef GOOD_PROGRAM_OP_SERIALIZE_H_
#define GOOD_PROGRAM_OP_SERIALIZE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/instance.h"
#include "method/method.h"
#include "program/program.h"
#include "program/text.h"
#include "schema/scheme.h"

namespace good::program {

/// Serializes one operation.
Result<std::string> WriteOperation(const schema::Scheme& scheme,
                                   const method::Operation& op);

/// Parses one operation. Pattern node labels must exist in `scheme`
/// (pre-extend a scratch copy for operations whose patterns reference
/// labels earlier operations introduce).
Result<method::Operation> ParseOperation(const schema::Scheme& scheme,
                                         const std::string& text);

/// Serializes an operation sequence.
Result<std::string> WriteOperations(const schema::Scheme& scheme,
                                    const std::vector<method::Operation>& ops);

/// Parses an operation sequence.
Result<std::vector<method::Operation>> ParseOperations(
    const schema::Scheme& scheme, const std::string& text);

/// Serializes a pattern as a standalone "pattern { ... }" block — the
/// exact block the operation formats embed — for messages that ship a
/// bare pattern (the server protocol's match/count commands).
std::string WritePattern(const schema::Scheme& scheme,
                         const pattern::Pattern& pattern);

/// Parses a standalone "pattern { ... }" block over `scheme`.
Result<pattern::Pattern> ParsePattern(const schema::Scheme& scheme,
                                      const std::string& text);

/// \brief An operation plus the file-local names of its pattern nodes —
/// needed by formats that reference pattern nodes after the operation
/// block (method head bindings in method_serialize.h).
struct ParsedOperation {
  method::Operation op;
  std::map<std::string, graph::NodeId> pattern_names;
};

/// Parses one operation from a token cursor, exposing the name map.
Result<ParsedOperation> ParseOperationNamed(const schema::Scheme& scheme,
                                            text::Cursor* cursor);

/// \brief Streams operations out of a program text one at a time.
///
/// ParseOperations resolves every operation against one fixed scheme,
/// so a program whose later patterns mention labels introduced by its
/// earlier operations needs the scheme pre-extended by hand. The
/// streaming reader removes that restriction: each Next() call takes
/// the *current* scheme, so a caller that executes (or otherwise
/// extends the scheme with) each operation before parsing the next one
/// can consume such programs directly — the pattern used by the storage
/// engine's log replay and by incremental program loading.
///
/// \code
/// GOOD_ASSIGN_OR_RETURN(auto reader, OperationReader::Open(text));
/// while (!reader.AtEnd()) {
///   GOOD_ASSIGN_OR_RETURN(auto op, reader.Next(scheme));
///   GOOD_RETURN_NOT_OK(executor.Execute(op, &scheme, &instance));
/// }
/// \endcode
class OperationReader {
 public:
  /// Tokenizes `text`; InvalidArgument on lexical errors.
  static Result<OperationReader> Open(std::string_view text);

  bool AtEnd() const { return cursor_.AtEnd(); }

  /// Parses the next operation against `scheme`.
  Result<method::Operation> Next(const schema::Scheme& scheme);

 private:
  explicit OperationReader(text::Cursor cursor)
      : cursor_(std::move(cursor)) {}

  text::Cursor cursor_;
};

/// \brief Accumulates operations into a growing program text — the
/// writing counterpart of OperationReader. Each Append serializes
/// against the scheme as it stands, so interleaving Append with
/// execution records a scheme-evolving program faithfully.
class OperationWriter {
 public:
  /// Serializes `op` against `scheme` and appends it to the text.
  Status Append(const schema::Scheme& scheme, const method::Operation& op);

  size_t ops_written() const { return ops_written_; }
  const std::string& text() const { return text_; }
  std::string Take() { return std::move(text_); }

 private:
  std::string text_;
  size_t ops_written_ = 0;
};

}  // namespace good::program

#endif  // GOOD_PROGRAM_OP_SERIALIZE_H_
