#include "storage/scrub.h"

#include <algorithm>

namespace good::storage {
namespace {

/// Deadline poll stride: cheap enough to be invisible, frequent enough
/// that a slice overshoots its budget by at most a few nodes.
constexpr size_t kPollStride = 64;

bool Contains(const std::vector<graph::NodeId>& list, graph::NodeId node) {
  return std::find(list.begin(), list.end(), node) != list.end();
}

}  // namespace

void Scrubber::Reset() {
  report_ = ScrubReport{};
  cursor_ = 0;
  in_edges_seen_ = 0;
  out_sum_census_.clear();
  in_sum_census_.clear();
}

void Scrubber::ScrubNode(graph::NodeId node) {
  const graph::Instance& g = *instance_;
  const schema::Scheme& s = *scheme_;
  const std::string name = "node #" + std::to_string(node.id);
  auto problem = [&](std::string text) {
    report_.problems.push_back(name + " " + std::move(text));
  };

  const Symbol label = g.LabelOf(node);
  const size_t problems_before = report_.problems.size();
  const size_t edges_before = report_.edges_scrubbed;

  // Scheme conformance of the node itself.
  if (!s.IsNodeLabel(label)) {
    problem("label '" + SymName(label) + "' is not a node label");
  } else if (s.IsPrintableLabel(label)) {
    if (g.HasPrintValue(node)) {
      const Value& value = *g.PrintValueOf(node);
      auto domain = s.DomainOf(label);
      if (!domain.ok()) {
        problem("printable label without a domain: " +
                domain.status().ToString());
      } else if (value.kind() != *domain) {
        problem("print value outside the domain of '" + SymName(label) + "'");
      }
      // Printable dedup: the (label, value) map must resolve to this
      // very node — a duplicate or a stale map entry both surface here.
      auto dedup = g.FindPrintable(label, value);
      if (!dedup.has_value()) {
        problem("missing from the printable dedup index");
      } else if (*dedup != node) {
        problem("printable dedup index resolves to node #" +
                std::to_string(dedup->id) + " instead");
      }
    }
  } else if (g.HasPrintValue(node)) {
    problem("is an object node but carries a print value");
  }

  // Outgoing edges: typing, uniqueness, and the mirror entry in the
  // target's in-group.
  for (const auto& [edge_label, target] : g.OutEdges(node)) {
    ++report_.edges_scrubbed;
    if (!g.HasNode(target)) {
      problem("has a '" + SymName(edge_label) + "' edge to dead node #" +
              std::to_string(target.id));
      continue;
    }
    const Symbol target_label = g.LabelOf(target);
    ++out_sum_census_[{label, edge_label}];
    ++in_sum_census_[{target_label, edge_label}];
    if (!s.HasTriple(label, edge_label, target_label)) {
      problem("edge '" + SymName(edge_label) +
              "' is not licensed by any scheme triple");
    }
    // The label's first target fixes the successor label and, for a
    // functional label, is the only target allowed.
    const graph::NodeId first = g.OutTargets(node, edge_label).front();
    if (target_label != g.LabelOf(first)) {
      problem("has '" + SymName(edge_label) +
              "' successors with unequal labels");
    }
    if (s.IsFunctionalEdgeLabel(edge_label) && target != first) {
      problem("has multiple functional '" + SymName(edge_label) + "' edges");
    }
    if (!Contains(g.InSources(target, edge_label), node)) {
      problem("'" + SymName(edge_label) + "' edge to node #" +
              std::to_string(target.id) +
              " missing from the target's in index");
    }
  }
  // Incoming edges: every recorded predecessor must know about us.
  for (const auto& [source, edge_label] : g.InEdges(node)) {
    ++in_edges_seen_;
    if (!g.HasNode(source)) {
      problem("has a '" + SymName(edge_label) + "' edge from dead node #" +
              std::to_string(source.id));
      continue;
    }
    if (!Contains(g.OutTargets(source, edge_label), node)) {
      problem("incoming '" + SymName(edge_label) + "' edge from node #" +
              std::to_string(source.id) +
              " missing from the source's out index");
    }
  }

  // Attribute this node's totals to its class — the snapshot-partition
  // unit — so a red pass names which partition to suspect.
  ClassScrubOutcome& outcome = report_.per_class[SymName(label)];
  ++outcome.nodes_scrubbed;
  outcome.edges_scrubbed += report_.edges_scrubbed - edges_before;
  outcome.problems += report_.problems.size() - problems_before;
}

Status Scrubber::Step(const ScrubOptions& options) {
  if (report_.complete) return Status::OK();
  const std::vector<graph::NodeId> nodes = instance_->AllNodes();
  auto it = std::lower_bound(
      nodes.begin(), nodes.end(), graph::NodeId{cursor_},
      [](graph::NodeId a, graph::NodeId b) { return a.id < b.id; });
  size_t scrubbed_this_call = 0;
  for (; it != nodes.end(); ++it) {
    if (options.deadline.armed() && scrubbed_this_call % kPollStride == 0) {
      Status cutoff = options.deadline.Check();
      if (!cutoff.ok()) {
        cursor_ = it->id;  // resume here next call
        return cutoff;
      }
    }
    if (options.max_nodes != 0 && scrubbed_this_call >= options.max_nodes) {
      cursor_ = it->id;
      return Status::OK();  // paused, report_.complete stays false
    }
    ScrubNode(*it);
    ++report_.nodes_scrubbed;
    ++scrubbed_this_call;
  }
  cursor_ = static_cast<uint32_t>(-1);

  // Whole-instance totals (exact when the pass ran without concurrent
  // mutation; see file comment).
  auto total_problem = [&](const std::string& what, size_t walked,
                           size_t reported) {
    if (walked != reported) {
      report_.problems.push_back(what + " disagrees: walked " +
                                 std::to_string(walked) +
                                 ", instance reports " +
                                 std::to_string(reported));
    }
  };
  total_problem("alive-node count", report_.nodes_scrubbed,
                instance_->num_nodes());
  total_problem("out-edge count", report_.edges_scrubbed,
                instance_->num_edges());
  total_problem("in-edge count", in_edges_seen_, instance_->num_edges());
  // One pass per label over the label index: every listed id is alive
  // under that label, and the list is as long as the walked census —
  // empty for a scheme label no walked node carries.
  std::map<std::string, size_t> walked;
  for (Symbol label : scheme_->object_labels()) walked[SymName(label)] = 0;
  for (Symbol label : scheme_->printable_labels()) walked[SymName(label)] = 0;
  for (const auto& [cls, outcome] : report_.per_class) {
    walked[cls] = outcome.nodes_scrubbed;
  }
  for (const auto& [cls, count] : walked) {
    const Symbol label = Sym(cls);
    const std::vector<graph::NodeId> listed =
        instance_->NodesWithLabel(label);
    for (graph::NodeId id : listed) {
      if (!instance_->HasNode(id) || instance_->LabelOf(id) != label) {
        report_.problems.push_back("label index for '" + SymName(label) +
                                   "' lists node #" + std::to_string(id.id) +
                                   ", which is dead or relabeled");
      }
    }
    total_problem("label index size for '" + cls + "'", count,
                  listed.size());
  }
  // The planner's degree sums against the walked edge census.
  for (const auto& [key, count] : out_sum_census_) {
    total_problem("out-degree sum of ('" + SymName(key.first) + "', '" +
                      SymName(key.second) + "')",
                  count, instance_->OutDegreeSum(key.first, key.second));
  }
  for (const auto& [key, count] : in_sum_census_) {
    total_problem("in-degree sum of ('" + SymName(key.first) + "', '" +
                      SymName(key.second) + "')",
                  count, instance_->InDegreeSum(key.first, key.second));
  }
  report_.complete = true;
  return Status::OK();
}

ScrubReport Scrub(const schema::Scheme& scheme,
                  const graph::Instance& instance,
                  const ScrubOptions& options) {
  Scrubber scrubber(&scheme, &instance);
  (void)scrubber.Step(options);
  return scrubber.report();
}

}  // namespace good::storage
