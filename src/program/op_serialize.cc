#include "program/op_serialize.h"

#include <map>
#include <sstream>

#include "program/serialize.h"
#include "program/text.h"

namespace good::program {

using graph::NodeId;
using method::MethodCallOp;
using method::Operation;
using pattern::Pattern;
using schema::Scheme;
using text::Cursor;

namespace {

std::string Name(Symbol symbol) { return text::WriteName(SymName(symbol)); }
std::string Node(NodeId node) {
  // Built with append rather than `"n" + std::to_string(...)`: the
  // operator+ form trips a GCC 12 -Werror=restrict false positive in
  // optimized builds.
  std::string s("n");
  s.append(std::to_string(node.id));
  return s;
}

Status RequireNoFilter(const ops::PatternOperation& op) {
  if (op.filter()) {
    return Status::Unimplemented(
        "operations carrying C++ match filters cannot be serialized");
  }
  return Status::OK();
}

std::string WritePatternBlock(const Scheme& scheme, const Pattern& p) {
  std::ostringstream os;
  os << "  pattern {\n";
  std::istringstream body(WriteInstance(scheme, p));
  std::string line;
  std::getline(body, line);  // Drop "instance {".
  while (std::getline(body, line)) {
    if (line == "}") break;
    os << "  " << line << "\n";
  }
  os << "  }\n";
  return os.str();
}

struct OpWriter {
  const Scheme& scheme;

  Result<std::string> operator()(const ops::NodeAddition& op) const {
    GOOD_RETURN_NOT_OK(RequireNoFilter(op));
    std::ostringstream os;
    os << "na {\n" << WritePatternBlock(scheme, op.source_pattern());
    os << "  label " << Name(op.new_label()) << ";\n";
    for (const auto& [edge, node] : op.edges()) {
      os << "  edge " << Name(edge) << " " << Node(node) << ";\n";
    }
    os << "}\n";
    return os.str();
  }

  Result<std::string> operator()(const ops::EdgeAddition& op) const {
    GOOD_RETURN_NOT_OK(RequireNoFilter(op));
    std::ostringstream os;
    os << "ea {\n" << WritePatternBlock(scheme, op.source_pattern());
    for (const ops::EdgeSpec& spec : op.edges()) {
      os << "  add " << Node(spec.source) << " " << Name(spec.label) << " "
         << Node(spec.target)
         << (spec.functional ? " functional" : " multivalued") << ";\n";
    }
    os << "}\n";
    return os.str();
  }

  Result<std::string> operator()(const ops::NodeDeletion& op) const {
    GOOD_RETURN_NOT_OK(RequireNoFilter(op));
    std::ostringstream os;
    os << "nd {\n" << WritePatternBlock(scheme, op.source_pattern());
    os << "  delete " << Node(op.target()) << ";\n}\n";
    return os.str();
  }

  Result<std::string> operator()(const ops::EdgeDeletion& op) const {
    GOOD_RETURN_NOT_OK(RequireNoFilter(op));
    std::ostringstream os;
    os << "ed {\n" << WritePatternBlock(scheme, op.source_pattern());
    for (const ops::EdgeRef& ref : op.edges()) {
      os << "  remove " << Node(ref.source) << " " << Name(ref.label) << " "
         << Node(ref.target) << ";\n";
    }
    os << "}\n";
    return os.str();
  }

  Result<std::string> operator()(const ops::Abstraction& op) const {
    GOOD_RETURN_NOT_OK(RequireNoFilter(op));
    std::ostringstream os;
    os << "ab {\n" << WritePatternBlock(scheme, op.source_pattern());
    os << "  node " << Node(op.node()) << ";\n";
    os << "  label " << Name(op.set_label()) << ";\n";
    os << "  member " << Name(op.member_edge()) << ";\n";
    os << "  group " << Name(op.grouping_edge()) << ";\n}\n";
    return os.str();
  }

  Result<std::string> operator()(const ops::ComputedEdgeAddition& op) const {
    (void)op;
    return Status::Unimplemented(
        "computed edge additions carry C++ external functions and cannot "
        "be serialized");
  }

  Result<std::string> operator()(const MethodCallOp& op) const {
    if (op.filter) {
      return Status::Unimplemented(
          "method calls carrying C++ match filters cannot be serialized");
    }
    std::ostringstream os;
    os << "call {\n" << WritePatternBlock(scheme, op.pattern);
    os << "  method " << text::WriteName(op.method_name) << ";\n";
    for (const auto& [param, node] : op.args) {
      os << "  arg " << Name(param) << " " << Node(node) << ";\n";
    }
    os << "  receiver " << Node(op.receiver) << ";\n}\n";
    return os.str();
  }
};

/// Re-serializes the pattern block for parsing: collects the raw token
/// text between "pattern {" and its matching "}".
Result<NamedInstance> ParsePatternBlock(const Scheme& scheme,
                                        Cursor* cursor) {
  GOOD_RETURN_NOT_OK(cursor->Expect("pattern"));
  GOOD_RETURN_NOT_OK(cursor->Expect("{"));
  // Reconstruct an "instance { ... }" text for the instance parser.
  std::string body = "instance {\n";
  int depth = 1;
  while (!cursor->AtEnd() && depth > 0) {
    const text::Token& token = cursor->Peek();
    if (!token.quoted && token.text == "{") ++depth;
    if (!token.quoted && token.text == "}") {
      --depth;
      if (depth == 0) {
        cursor->Next();
        break;
      }
    }
    body += token.quoted ? text::Quote(token.text) : token.text;
    body += " ";
    cursor->Next();
  }
  body += "}";
  return ParseInstanceNamed(scheme, body);
}

Result<NodeId> ResolveNode(const NamedInstance& parsed,
                           const std::string& name) {
  auto it = parsed.names.find(name);
  if (it == parsed.names.end()) {
    return Status::InvalidArgument("unknown pattern node '" + name + "'");
  }
  return it->second;
}

Result<ParsedOperation> ParseOneOperationNamed(const Scheme& scheme,
                                               Cursor* cursor) {
  GOOD_ASSIGN_OR_RETURN(std::string kind, cursor->Word());
  GOOD_RETURN_NOT_OK(cursor->Expect("{"));
  GOOD_ASSIGN_OR_RETURN(NamedInstance parsed,
                        ParsePatternBlock(scheme, cursor));

  if (kind == "na") {
    Symbol label{};
    bool have_label = false;
    std::vector<std::pair<Symbol, NodeId>> edges;
    while (!cursor->TryConsume("}")) {
      GOOD_ASSIGN_OR_RETURN(std::string stmt, cursor->Word());
      if (stmt == "label") {
        GOOD_ASSIGN_OR_RETURN(std::string name, cursor->Word());
        label = Sym(name);
        have_label = true;
      } else if (stmt == "edge") {
        GOOD_ASSIGN_OR_RETURN(std::string edge, cursor->Word());
        GOOD_ASSIGN_OR_RETURN(std::string node, cursor->Word());
        GOOD_ASSIGN_OR_RETURN(NodeId target, ResolveNode(parsed, node));
        edges.emplace_back(Sym(edge), target);
      } else {
        return Status::InvalidArgument("unknown na statement '" + stmt +
                                       "'");
      }
      GOOD_RETURN_NOT_OK(cursor->Expect(";"));
    }
    if (!have_label) {
      return Status::InvalidArgument("na needs a label statement");
    }
    return ParsedOperation{Operation(ops::NodeAddition(
                               std::move(parsed.instance), label,
                               std::move(edges))),
                           std::move(parsed.names)};
  }
  if (kind == "ea") {
    std::vector<ops::EdgeSpec> edges;
    while (!cursor->TryConsume("}")) {
      GOOD_RETURN_NOT_OK(cursor->Expect("add"));
      GOOD_ASSIGN_OR_RETURN(std::string src, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(std::string edge, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(std::string tgt, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(std::string mode, cursor->Word());
      if (mode != "functional" && mode != "multivalued") {
        return Status::InvalidArgument("bad edge mode '" + mode + "'");
      }
      GOOD_ASSIGN_OR_RETURN(NodeId source, ResolveNode(parsed, src));
      GOOD_ASSIGN_OR_RETURN(NodeId target, ResolveNode(parsed, tgt));
      edges.push_back(ops::EdgeSpec{source, Sym(edge), target,
                                    mode == "functional"});
      GOOD_RETURN_NOT_OK(cursor->Expect(";"));
    }
    return ParsedOperation{
        Operation(
            ops::EdgeAddition(std::move(parsed.instance), std::move(edges))),
        std::move(parsed.names)};
  }
  if (kind == "nd") {
    GOOD_RETURN_NOT_OK(cursor->Expect("delete"));
    GOOD_ASSIGN_OR_RETURN(std::string node, cursor->Word());
    GOOD_ASSIGN_OR_RETURN(NodeId target, ResolveNode(parsed, node));
    GOOD_RETURN_NOT_OK(cursor->Expect(";"));
    GOOD_RETURN_NOT_OK(cursor->Expect("}"));
    return ParsedOperation{
        Operation(ops::NodeDeletion(std::move(parsed.instance), target)),
        std::move(parsed.names)};
  }
  if (kind == "ed") {
    std::vector<ops::EdgeRef> edges;
    while (!cursor->TryConsume("}")) {
      GOOD_RETURN_NOT_OK(cursor->Expect("remove"));
      GOOD_ASSIGN_OR_RETURN(std::string src, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(std::string edge, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(std::string tgt, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(NodeId source, ResolveNode(parsed, src));
      GOOD_ASSIGN_OR_RETURN(NodeId target, ResolveNode(parsed, tgt));
      edges.push_back(ops::EdgeRef{source, Sym(edge), target});
      GOOD_RETURN_NOT_OK(cursor->Expect(";"));
    }
    return ParsedOperation{
        Operation(
            ops::EdgeDeletion(std::move(parsed.instance), std::move(edges))),
        std::move(parsed.names)};
  }
  if (kind == "ab") {
    NodeId node{};
    Symbol label{}, member{}, group{};
    bool have_node = false, have_label = false, have_member = false,
         have_group = false;
    while (!cursor->TryConsume("}")) {
      GOOD_ASSIGN_OR_RETURN(std::string stmt, cursor->Word());
      GOOD_ASSIGN_OR_RETURN(std::string value, cursor->Word());
      if (stmt == "node") {
        GOOD_ASSIGN_OR_RETURN(node, ResolveNode(parsed, value));
        have_node = true;
      } else if (stmt == "label") {
        label = Sym(value);
        have_label = true;
      } else if (stmt == "member") {
        member = Sym(value);
        have_member = true;
      } else if (stmt == "group") {
        group = Sym(value);
        have_group = true;
      } else {
        return Status::InvalidArgument("unknown ab statement '" + stmt +
                                       "'");
      }
      GOOD_RETURN_NOT_OK(cursor->Expect(";"));
    }
    if (!have_node || !have_label || !have_member || !have_group) {
      return Status::InvalidArgument(
          "ab needs node, label, member and group statements");
    }
    return ParsedOperation{
        Operation(ops::Abstraction(std::move(parsed.instance), node, label,
                                   member, group)),
        std::move(parsed.names)};
  }
  if (kind == "call") {
    MethodCallOp call;
    bool have_method = false, have_receiver = false;
    while (!cursor->TryConsume("}")) {
      GOOD_ASSIGN_OR_RETURN(std::string stmt, cursor->Word());
      if (stmt == "method") {
        GOOD_ASSIGN_OR_RETURN(call.method_name, cursor->Word());
        have_method = true;
      } else if (stmt == "arg") {
        GOOD_ASSIGN_OR_RETURN(std::string param, cursor->Word());
        GOOD_ASSIGN_OR_RETURN(std::string node, cursor->Word());
        GOOD_ASSIGN_OR_RETURN(NodeId target, ResolveNode(parsed, node));
        call.args[Sym(param)] = target;
      } else if (stmt == "receiver") {
        GOOD_ASSIGN_OR_RETURN(std::string node, cursor->Word());
        GOOD_ASSIGN_OR_RETURN(call.receiver, ResolveNode(parsed, node));
        have_receiver = true;
      } else {
        return Status::InvalidArgument("unknown call statement '" + stmt +
                                       "'");
      }
      GOOD_RETURN_NOT_OK(cursor->Expect(";"));
    }
    if (!have_method || !have_receiver) {
      return Status::InvalidArgument(
          "call needs method and receiver statements");
    }
    call.pattern = std::move(parsed.instance);
    return ParsedOperation{Operation(std::move(call)),
                           std::move(parsed.names)};
  }
  return Status::InvalidArgument("unknown operation kind '" + kind + "'");
}

}  // namespace

Result<std::string> WriteOperation(const Scheme& scheme,
                                   const Operation& op) {
  return std::visit(OpWriter{scheme}, op);
}

Result<ParsedOperation> ParseOperationNamed(const Scheme& scheme,
                                            Cursor* cursor) {
  return ParseOneOperationNamed(scheme, cursor);
}

Result<Operation> ParseOperation(const Scheme& scheme,
                                 const std::string& input) {
  GOOD_ASSIGN_OR_RETURN(auto tokens, text::Tokenize(input));
  Cursor cursor(std::move(tokens));
  GOOD_ASSIGN_OR_RETURN(ParsedOperation parsed,
                        ParseOneOperationNamed(scheme, &cursor));
  return std::move(parsed.op);
}

Result<std::string> WriteOperations(const Scheme& scheme,
                                    const std::vector<Operation>& ops) {
  OperationWriter writer;
  for (const Operation& op : ops) {
    GOOD_RETURN_NOT_OK(writer.Append(scheme, op));
  }
  return writer.Take();
}

Result<std::vector<Operation>> ParseOperations(const Scheme& scheme,
                                               const std::string& input) {
  GOOD_ASSIGN_OR_RETURN(OperationReader reader, OperationReader::Open(input));
  std::vector<Operation> out;
  while (!reader.AtEnd()) {
    GOOD_ASSIGN_OR_RETURN(Operation op, reader.Next(scheme));
    out.push_back(std::move(op));
  }
  return out;
}

Result<OperationReader> OperationReader::Open(std::string_view input) {
  GOOD_ASSIGN_OR_RETURN(auto tokens, text::Tokenize(input));
  return OperationReader(Cursor(std::move(tokens)));
}

Result<Operation> OperationReader::Next(const Scheme& scheme) {
  if (cursor_.AtEnd()) {
    return Status::OutOfRange("no operations left in the program text");
  }
  GOOD_ASSIGN_OR_RETURN(ParsedOperation parsed,
                        ParseOneOperationNamed(scheme, &cursor_));
  return std::move(parsed.op);
}

Status OperationWriter::Append(const Scheme& scheme, const Operation& op) {
  GOOD_ASSIGN_OR_RETURN(std::string one, WriteOperation(scheme, op));
  text_ += one;
  ++ops_written_;
  return Status::OK();
}

std::string WritePattern(const Scheme& scheme, const Pattern& pattern) {
  return WritePatternBlock(scheme, pattern);
}

Result<Pattern> ParsePattern(const Scheme& scheme, const std::string& input) {
  GOOD_ASSIGN_OR_RETURN(auto tokens, text::Tokenize(input));
  Cursor cursor(std::move(tokens));
  GOOD_ASSIGN_OR_RETURN(NamedInstance parsed,
                        ParsePatternBlock(scheme, &cursor));
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after pattern block");
  }
  return std::move(parsed.instance);
}

}  // namespace good::program
