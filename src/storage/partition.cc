#include "storage/partition.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/interner.h"
#include "program/serialize.h"
#include "program/text.h"
#include "storage/crc32.h"
#include "storage/wal.h"

namespace good::storage {

namespace {

using program::text::Cursor;
using program::text::Quote;
using program::text::Tokenize;
using program::text::WriteName;

Result<uint64_t> ParseU64(const std::string& word) {
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(word.data(), word.data() + word.size(), v);
  if (ec != std::errc() || ptr != word.data() + word.size()) {
    return Status::InvalidArgument("bad number '" + word + "' in manifest");
  }
  return v;
}

/// Reads `keyword <u64>` from the cursor.
Result<uint64_t> ExpectNumber(Cursor* cursor, const std::string& keyword) {
  GOOD_RETURN_NOT_OK(cursor->Expect(keyword));
  GOOD_ASSIGN_OR_RETURN(std::string word, cursor->Word());
  return ParseU64(word);
}

/// Parses a partition node name ("n<id>") back to the id it encodes.
Result<uint32_t> ParseNodeName(const std::string& name) {
  if (name.size() < 2 || name[0] != 'n') {
    return Status::DataLoss("malformed partition node name '" + name + "'");
  }
  uint64_t v = 0;
  auto [ptr, ec] =
      std::from_chars(name.data() + 1, name.data() + name.size(), v);
  if (ec != std::errc() || ptr != name.data() + name.size() ||
      v > 0xFFFFFFFFull) {
    return Status::DataLoss("malformed partition node name '" + name + "'");
  }
  return static_cast<uint32_t>(v);
}

/// Writes the checksum/size/census tail of a manifest entry.
void WriteEntryTail(std::ostringstream* os, const PartitionEntry& entry,
                    bool census) {
  *os << " crc " << entry.crc << " bytes " << entry.bytes;
  if (census) {
    *os << " nodes " << entry.nodes << " edges " << entry.edges;
  }
}

Result<PartitionEntry> ParseEntryTail(Cursor* cursor, std::string file,
                                      bool census) {
  PartitionEntry entry;
  entry.file = std::move(file);
  GOOD_ASSIGN_OR_RETURN(uint64_t crc, ExpectNumber(cursor, "crc"));
  if (crc > 0xFFFFFFFFull) {
    return Status::InvalidArgument("manifest crc out of range");
  }
  entry.crc = static_cast<uint32_t>(crc);
  GOOD_ASSIGN_OR_RETURN(entry.bytes, ExpectNumber(cursor, "bytes"));
  if (census) {
    GOOD_ASSIGN_OR_RETURN(entry.nodes, ExpectNumber(cursor, "nodes"));
    GOOD_ASSIGN_OR_RETURN(entry.edges, ExpectNumber(cursor, "edges"));
  }
  return entry;
}

// ---------------------------------------------------------------------------
// Partition text parsing (no instance mutation: the loader needs all
// partitions' nodes before any edge can resolve its target)
// ---------------------------------------------------------------------------

struct ParsedNode {
  std::string name;
  Symbol label;
  bool has_value = false;
  std::string raw_value;
};

struct ParsedEdge {
  std::string source;
  Symbol label;
  std::string target;
};

struct ParsedPartition {
  Symbol cls;
  std::vector<ParsedNode> nodes;
  std::vector<ParsedEdge> edges;
};

Result<ParsedPartition> ParsePartitionText(const std::string& text) {
  GOOD_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Cursor cursor(std::move(tokens));
  ParsedPartition out;
  GOOD_RETURN_NOT_OK(cursor.Expect("partition"));
  GOOD_ASSIGN_OR_RETURN(std::string cls_name, cursor.Word());
  out.cls = Sym(cls_name);
  GOOD_RETURN_NOT_OK(cursor.Expect("{"));
  std::unordered_set<std::string> own_names;
  while (!cursor.AtEnd() && cursor.Peek().text != "}") {
    GOOD_ASSIGN_OR_RETURN(std::string kind, cursor.Word());
    if (kind == "node") {
      ParsedNode node;
      GOOD_ASSIGN_OR_RETURN(node.name, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(std::string label_word, cursor.Word());
      node.label = Sym(label_word);
      if (node.label != out.cls) {
        return Status::InvalidArgument("node '" + node.name +
                                       "' labeled '" + label_word +
                                       "' in partition of '" + cls_name +
                                       "'");
      }
      if (!own_names.insert(node.name).second) {
        return Status::InvalidArgument("duplicate node name '" + node.name +
                                       "' in partition of '" + cls_name +
                                       "'");
      }
      if (!cursor.AtEnd() && cursor.Peek().text == "=" &&
          !cursor.Peek().quoted) {
        GOOD_RETURN_NOT_OK(cursor.Expect("="));
        if (cursor.AtEnd() || !cursor.Peek().quoted) {
          return Status::InvalidArgument("expected quoted value after '='");
        }
        node.has_value = true;
        node.raw_value = cursor.Next().text;
      }
      out.nodes.push_back(std::move(node));
    } else if (kind == "edge") {
      ParsedEdge edge;
      GOOD_ASSIGN_OR_RETURN(edge.source, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(std::string label_word, cursor.Word());
      edge.label = Sym(label_word);
      GOOD_ASSIGN_OR_RETURN(edge.target, cursor.Word());
      // The edge's source is by definition a node of this class, so its
      // definition must precede it in this very file.
      if (!own_names.contains(edge.source)) {
        return Status::InvalidArgument("edge source '" + edge.source +
                                       "' undefined in partition of '" +
                                       cls_name + "'");
      }
      out.edges.push_back(std::move(edge));
    } else {
      return Status::InvalidArgument("unknown partition statement '" + kind +
                                     "'");
    }
    GOOD_RETURN_NOT_OK(cursor.Expect(";"));
  }
  GOOD_RETURN_NOT_OK(cursor.Expect("}"));
  return out;
}

/// Reads a manifest-referenced file and verifies it outside-in: exact
/// size, whole-file CRC, then the single intact framed record. Every
/// failure is kDataLoss — the caller translates it into quarantine or
/// a fallback to the previous manifest.
Result<std::string> ReadVerifiedRecord(FileEnv* env, const std::string& dir,
                                       const PartitionEntry& entry,
                                       const char* what) {
  const std::string path = dir + "/" + entry.file;
  auto bytes = env->ReadFileToString(path);
  if (!bytes.ok()) {
    return Status::DataLoss(std::string(what) + " file " + entry.file +
                            " unreadable: " + bytes.status().message());
  }
  if (bytes->size() != entry.bytes) {
    return Status::DataLoss(std::string(what) + " file " + entry.file +
                            " is " + std::to_string(bytes->size()) +
                            " bytes, manifest expects " +
                            std::to_string(entry.bytes));
  }
  if (Crc32(*bytes) != entry.crc) {
    return Status::DataLoss(std::string(what) + " file " + entry.file +
                            " fails its manifest checksum");
  }
  auto payload = ReadSingleRecord(*bytes);
  if (!payload.ok()) {
    return Status::DataLoss(std::string(what) + " file " + entry.file +
                            " corrupt: " + payload.status().message());
  }
  // Strip the header in place rather than copy a multi-MB payload.
  bytes->erase(0, kRecordHeaderSize);
  return std::move(*bytes);
}

}  // namespace

std::string PartitionFileName(uint64_t n) {
  return "part-" + std::to_string(n) + ".good";
}

std::string SchemeFileName(uint64_t n) {
  return "scheme-" + std::to_string(n) + ".good";
}

std::string_view PartitionStateToString(PartitionState state) {
  switch (state) {
    case PartitionState::kLoaded:
      return "loaded";
    case PartitionState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::string PartitionLoadResult::ToString() const {
  std::ostringstream os;
  os << "partition " << WriteName(class_name) << " (" << file << "): "
     << PartitionStateToString(state) << ", " << nodes << " nodes, " << edges
     << " edges";
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

std::string EncodeManifest(const Manifest& manifest) {
  std::ostringstream os;
  os << "manifest {\n";
  os << "  filenum " << manifest.file_number << ";\n";
  os << "  frontier " << manifest.node_frontier << ";\n";
  os << "  scheme " << Quote(manifest.scheme.file);
  WriteEntryTail(&os, manifest.scheme, /*census=*/false);
  os << ";\n";
  for (const auto& [cls, entry] : manifest.partitions) {
    os << "  partition " << WriteName(cls) << " " << Quote(entry.file);
    WriteEntryTail(&os, entry, /*census=*/true);
    os << ";\n";
  }
  os << "}\n";
  std::string payload;
  AppendFixed64(&payload, manifest.next_seq);
  payload += os.str();
  std::string framed;
  AppendRecordTo(&framed, payload);
  return framed;
}

Result<Manifest> DecodeManifest(std::string_view file_bytes) {
  GOOD_ASSIGN_OR_RETURN(std::string_view payload,
                        ReadSingleRecord(file_bytes));
  Manifest manifest;
  GOOD_ASSIGN_OR_RETURN(manifest.next_seq, ConsumeFixed64(&payload));
  GOOD_ASSIGN_OR_RETURN(auto tokens, Tokenize(payload));
  Cursor cursor(std::move(tokens));
  GOOD_RETURN_NOT_OK(cursor.Expect("manifest"));
  GOOD_RETURN_NOT_OK(cursor.Expect("{"));
  bool saw_scheme = false;
  while (!cursor.AtEnd() && cursor.Peek().text != "}") {
    GOOD_ASSIGN_OR_RETURN(std::string kind, cursor.Word());
    if (kind == "filenum") {
      GOOD_ASSIGN_OR_RETURN(std::string word, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(manifest.file_number, ParseU64(word));
    } else if (kind == "frontier") {
      GOOD_ASSIGN_OR_RETURN(std::string word, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(manifest.node_frontier, ParseU64(word));
    } else if (kind == "scheme") {
      GOOD_ASSIGN_OR_RETURN(std::string file, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(
          manifest.scheme,
          ParseEntryTail(&cursor, std::move(file), /*census=*/false));
      saw_scheme = true;
    } else if (kind == "partition") {
      GOOD_ASSIGN_OR_RETURN(std::string cls, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(std::string file, cursor.Word());
      GOOD_ASSIGN_OR_RETURN(
          PartitionEntry entry,
          ParseEntryTail(&cursor, std::move(file), /*census=*/true));
      if (!manifest.partitions.emplace(std::move(cls), std::move(entry))
               .second) {
        return Status::InvalidArgument("duplicate partition in manifest");
      }
    } else {
      return Status::InvalidArgument("unknown manifest statement '" + kind +
                                     "'");
    }
    GOOD_RETURN_NOT_OK(cursor.Expect(";"));
  }
  GOOD_RETURN_NOT_OK(cursor.Expect("}"));
  if (!saw_scheme) {
    return Status::InvalidArgument("manifest names no scheme file");
  }
  return manifest;
}

std::string EncodePartition(const schema::Scheme& scheme,
                            const graph::Instance& instance, Symbol cls,
                            uint64_t* node_count, uint64_t* edge_count) {
  (void)scheme;
  std::ostringstream os;
  os << "partition " << WriteName(SymName(cls)) << " {\n";
  std::vector<graph::Edge> edges;
  uint64_t nodes = 0;
  for (graph::NodeId node : instance.NodesWithLabel(cls)) {
    ++nodes;
    os << "  node n" << node.id << " " << WriteName(SymName(cls));
    if (instance.HasPrintValue(node)) {
      os << " = " << program::WriteValueLiteral(*instance.PrintValueOf(node));
    }
    os << ";\n";
    for (const auto& [label, target] : instance.OutEdges(node)) {
      edges.push_back(graph::Edge{node, label, target});
    }
  }
  std::sort(edges.begin(), edges.end());
  for (const graph::Edge& e : edges) {
    os << "  edge n" << e.source.id << " " << WriteName(SymName(e.label))
       << " n" << e.target.id << ";\n";
  }
  os << "}\n";
  if (node_count != nullptr) *node_count = nodes;
  if (edge_count != nullptr) *edge_count = edges.size();
  std::string framed;
  AppendRecordTo(&framed, os.str());
  return framed;
}

Result<LoadedCheckpoint> LoadCheckpoint(FileEnv* env, const std::string& dir,
                                        const Manifest& manifest,
                                        bool allow_quarantine) {
  LoadedCheckpoint out;
  out.next_seq = manifest.next_seq;

  // The scheme interprets everything else; its damage is total.
  GOOD_ASSIGN_OR_RETURN(
      out.scheme_text,
      ReadVerifiedRecord(env, dir, manifest.scheme, "scheme"));
  GOOD_ASSIGN_OR_RETURN(out.db.scheme, program::ParseScheme(out.scheme_text));

  // Read and parse every partition; damage quarantines (or, in strict
  // recovery, fails the load).
  std::vector<ParsedPartition> healthy;
  for (const auto& [cls_name, entry] : manifest.partitions) {
    PartitionLoadResult result;
    result.class_name = cls_name;
    result.file = entry.file;
    Result<ParsedPartition> parsed = [&]() -> Result<ParsedPartition> {
      GOOD_ASSIGN_OR_RETURN(std::string payload,
                            ReadVerifiedRecord(env, dir, entry, "partition"));
      GOOD_ASSIGN_OR_RETURN(ParsedPartition part,
                            ParsePartitionText(payload));
      if (SymName(part.cls) != cls_name) {
        return Status::DataLoss("partition file " + entry.file +
                                " holds class '" + SymName(part.cls) +
                                "', manifest expects '" + cls_name + "'");
      }
      return part;
    }();
    if (!parsed.ok()) {
      if (!allow_quarantine) {
        return Status::DataLoss("partition '" + cls_name +
                                "' unrecoverable: " +
                                parsed.status().message());
      }
      result.state = PartitionState::kQuarantined;
      result.detail = parsed.status().message();
      result.nodes = entry.nodes;
      result.edges = entry.edges;
      out.quarantined.push_back(Sym(cls_name));
      out.partitions.push_back(std::move(result));
      continue;
    }
    result.nodes = parsed->nodes.size();
    result.edges = parsed->edges.size();
    out.partitions.push_back(std::move(result));
    healthy.push_back(std::move(*parsed));
  }

  // Pass 1 — nodes, restored under their *original* ids in ascending
  // order (ids are never reused, so a checkpoint's id set is sparse
  // ascending and Instance::RestoreNodeAt can always honor it).
  // Identity matters beyond aesthetics: carried partition files name
  // nodes by the ids they had when written, so a load that renumbered
  // would silently divorce carried files from the ones the next
  // incremental checkpoint rewrites against the live numbering.
  struct PendingNode {
    uint32_t id = 0;
    const ParsedNode* node = nullptr;
  };
  std::vector<PendingNode> pending;
  for (const ParsedPartition& part : healthy) {
    for (const ParsedNode& node : part.nodes) {
      auto id = ParseNodeName(node.name);
      if (!id.ok()) return id.status();
      pending.push_back(PendingNode{*id, &node});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const PendingNode& a, const PendingNode& b) {
              return a.id < b.id;
            });
  std::unordered_map<std::string, graph::NodeId> names;
  names.reserve(pending.size());
  graph::Instance& instance = out.db.instance;
  for (size_t i = 0; i < pending.size(); ++i) {
    // Names are unique across all files of one checkpoint; a clash
    // means the manifest stitched together files from different
    // checkpoints.
    if (i > 0 && pending[i].id == pending[i - 1].id) {
      return Status::DataLoss("node name '" + pending[i].node->name +
                              "' defined by two partitions — manifest is "
                              "inconsistent");
    }
    const ParsedNode& node = *pending[i].node;
    Result<graph::NodeId> added = [&]() -> Result<graph::NodeId> {
      std::optional<Value> print;
      if (node.has_value) {
        GOOD_ASSIGN_OR_RETURN(ValueKind domain,
                              out.db.scheme.DomainOf(node.label));
        GOOD_ASSIGN_OR_RETURN(
            Value value, program::ParseValueLiteral(node.raw_value, domain));
        print = std::move(value);
      }
      return instance.RestoreNodeAt(out.db.scheme,
                                    graph::NodeId{pending[i].id},
                                    node.label, std::move(print));
    }();
    if (!added.ok()) {
      return Status::DataLoss("partition node '" + node.name +
                              "' rejected: " + added.status().message());
    }
    names.emplace(node.name, *added);
  }

  // Pass 2 — edges. A target missing because its class was quarantined
  // is expected damage fallout (dropped, counted); missing with nothing
  // quarantined means the checkpoint itself is inconsistent.
  for (const ParsedPartition& part : healthy) {
    for (const ParsedEdge& edge : part.edges) {
      auto sit = names.find(edge.source);
      if (sit == names.end()) {
        return Status::DataLoss("edge source '" + edge.source +
                                "' missing from a healthy partition");
      }
      auto tit = names.find(edge.target);
      if (tit == names.end()) {
        if (out.quarantined.empty()) {
          return Status::DataLoss("edge target '" + edge.target +
                                  "' defined by no partition — manifest is "
                                  "inconsistent");
        }
        ++out.dangling_edges_dropped;
        continue;
      }
      Status added = instance.AddEdge(out.db.scheme, sit->second, edge.label,
                                      tit->second);
      if (!added.ok()) {
        return Status::DataLoss("partition edge rejected: " +
                                added.message());
      }
    }
  }

  // Reserve the manifest's recorded allocation frontier: a quarantined
  // partition's ids are unreadable, but they all lie below it, so
  // padding up to it keeps ids minted by a degraded run from colliding
  // with the damaged file's contents when it is later healed.
  instance.ReserveNodeFrontier(manifest.node_frontier);

  // A freshly loaded checkpoint is clean by definition; WAL replay will
  // re-dirty exactly the classes mutated since it was taken.
  instance.ClearDirtyClasses();
  return out;
}

}  // namespace good::storage
