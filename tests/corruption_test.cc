/// Detector tests: damages each redundant structure of a
/// graph::Instance once — the in-group mirror of an out-group entry and
/// the reverse, the label index, the printable dedup index, and the
/// planner's degree-sum statistics — and requires Instance::Validate to
/// return kInternal and the Scrubber (storage/scrub.h) to report a
/// problem naming the damaged node or label.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/instance.h"
#include "schema/scheme.h"
#include "storage/scrub.h"

namespace good::graph {

/// Test-only access to Instance's private indexes. Each method damages
/// exactly one structure and leaves every other one intact.
class InstanceCorruptor {
 public:
  /// Drops `source` from `target`'s in-group: the out-group entry of
  /// (source, label, target) loses its mirror.
  static void EraseInMirror(Instance* g, NodeId source, Symbol label,
                            NodeId target) {
    Erase(&g->nodes_[target.id].in_by_label[label], source);
  }
  /// Drops `target` from `source`'s out-group: the in-group entry of
  /// (source, label, target) loses its mirror.
  static void EraseOutMirror(Instance* g, NodeId source, Symbol label,
                             NodeId target) {
    Erase(&g->nodes_[source.id].out_by_label[label], target);
  }
  /// Lists `node` under `label` in the label index.
  static void AddLabelIndexEntry(Instance* g, Symbol label, NodeId node) {
    g->label_index_[label].insert(node.id);
  }
  /// Unlists `node` from its label's index entry.
  static void EraseLabelIndexEntry(Instance* g, NodeId node) {
    g->label_index_[g->LabelOf(node)].erase(node.id);
  }
  /// Points the (label, value) dedup entry at `node`.
  static void RepointPrintable(Instance* g, Symbol label, const Value& value,
                               NodeId node) {
    g->printable_index_[label][value] = node.id;
  }
  /// Adds one phantom edge to the (source label, edge label) out-degree
  /// sum.
  static void DriftOutDegreeSum(Instance* g, Symbol source_label,
                                Symbol edge_label) {
    ++g->out_degree_sum_[Instance::StatsKey(edge_label, source_label)];
  }
  /// Adds one phantom edge to the (target label, edge label) in-degree
  /// sum.
  static void DriftInDegreeSum(Instance* g, Symbol target_label,
                               Symbol edge_label) {
    ++g->in_degree_sum_[Instance::StatsKey(edge_label, target_label)];
  }

 private:
  static void Erase(std::vector<NodeId>* list, NodeId node) {
    auto it = std::find(list->begin(), list->end(), node);
    ASSERT_NE(it, list->end());
    list->erase(it);
  }
};

namespace {

using schema::Scheme;

Scheme TestScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("Doc")).OrDie();
  s.AddObjectLabel(Sym("Tag")).OrDie();
  s.AddPrintableLabel(Sym("Str"), ValueKind::kString).OrDie();
  s.AddFunctionalEdgeLabel(Sym("title")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("refs")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("tags")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("title"), Sym("Str")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("refs"), Sym("Doc")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("tags"), Sym("Tag")).OrDie();
  return s;
}

std::string NodeName(NodeId node) { return "node #" + std::to_string(node.id); }

class InstanceCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = TestScheme();
    d1_ = *g_.AddObjectNode(scheme_, Sym("Doc"));
    d2_ = *g_.AddObjectNode(scheme_, Sym("Doc"));
    d3_ = *g_.AddObjectNode(scheme_, Sym("Doc"));
    tag_ = *g_.AddObjectNode(scheme_, Sym("Tag"));
    x_ = *g_.AddPrintableNode(scheme_, Sym("Str"), Value("x"));
    y_ = *g_.AddPrintableNode(scheme_, Sym("Str"), Value("y"));
    g_.AddEdge(scheme_, d1_, Sym("refs"), d2_).OrDie();
    g_.AddEdge(scheme_, d1_, Sym("refs"), d3_).OrDie();
    g_.AddEdge(scheme_, d2_, Sym("refs"), d3_).OrDie();
    g_.AddEdge(scheme_, d1_, Sym("title"), x_).OrDie();
    g_.AddEdge(scheme_, d2_, Sym("title"), y_).OrDie();
    g_.AddEdge(scheme_, d1_, Sym("tags"), tag_).OrDie();
    ASSERT_TRUE(g_.Validate(scheme_).ok());
    storage::ScrubReport report = storage::Scrub(scheme_, g_);
    ASSERT_TRUE(report.complete);
    ASSERT_TRUE(report.clean()) << report.problems[0];
  }

  /// Validate must answer kInternal, and one scrub problem must contain
  /// every needle (the damaged node's or label's name among them).
  void ExpectDetected(const std::vector<std::string>& needles) {
    Status validated = g_.Validate(scheme_);
    EXPECT_TRUE(validated.IsInternal()) << validated.ToString();
    storage::ScrubReport report = storage::Scrub(scheme_, g_);
    EXPECT_TRUE(report.complete);
    std::string all;
    bool named = false;
    for (const std::string& problem : report.problems) {
      all += problem + "\n";
      named |= std::all_of(needles.begin(), needles.end(),
                           [&](const std::string& needle) {
                             return problem.find(needle) != std::string::npos;
                           });
    }
    EXPECT_TRUE(named) << "no scrub problem names the damage; got:\n" << all;
  }

  Scheme scheme_;
  Instance g_;
  NodeId d1_, d2_, d3_, tag_, x_, y_;
};

TEST_F(InstanceCorruptionTest, OutEntryWithoutInMirror) {
  InstanceCorruptor::EraseInMirror(&g_, d1_, Sym("refs"), d2_);
  ExpectDetected({NodeName(d1_), "'refs'", "in index"});
}

TEST_F(InstanceCorruptionTest, InEntryWithoutOutMirror) {
  InstanceCorruptor::EraseOutMirror(&g_, d1_, Sym("refs"), d3_);
  ExpectDetected({NodeName(d3_), "'refs'", "out index"});
}

TEST_F(InstanceCorruptionTest, StaleLabelIndexEntry) {
  g_.RemoveNode(d3_).OrDie();
  InstanceCorruptor::AddLabelIndexEntry(&g_, Sym("Doc"), d3_);
  ExpectDetected({"label index", "'Doc'", NodeName(d3_)});
}

TEST_F(InstanceCorruptionTest, StaleLabelIndexEntryUnderEmptiedLabel) {
  g_.RemoveNode(tag_).OrDie();
  InstanceCorruptor::AddLabelIndexEntry(&g_, Sym("Tag"), tag_);
  ExpectDetected({"label index", "'Tag'", NodeName(tag_)});
}

TEST_F(InstanceCorruptionTest, MissingLabelIndexEntry) {
  InstanceCorruptor::EraseLabelIndexEntry(&g_, d2_);
  ExpectDetected({"label index", "'Doc'"});
}

TEST_F(InstanceCorruptionTest, StalePrintableIndexEntry) {
  InstanceCorruptor::RepointPrintable(&g_, Sym("Str"), Value("x"), y_);
  ExpectDetected({NodeName(x_), "dedup"});
}

TEST_F(InstanceCorruptionTest, DriftedOutDegreeSum) {
  InstanceCorruptor::DriftOutDegreeSum(&g_, Sym("Doc"), Sym("refs"));
  ExpectDetected({"out-degree sum", "'Doc'", "'refs'"});
}

TEST_F(InstanceCorruptionTest, DriftedInDegreeSum) {
  InstanceCorruptor::DriftInDegreeSum(&g_, Sym("Str"), Sym("title"));
  ExpectDetected({"in-degree sum", "'Str'", "'title'"});
}

}  // namespace
}  // namespace good::graph
