#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/instance.h"
#include "graph/undo_journal.h"
#include "schema/scheme.h"

namespace good::graph {
namespace {

using schema::Scheme;

Scheme TestScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("Doc")).OrDie();
  s.AddObjectLabel(Sym("Tag")).OrDie();
  s.AddPrintableLabel(Sym("Str"), ValueKind::kString).OrDie();
  s.AddPrintableLabel(Sym("Num"), ValueKind::kInt).OrDie();
  s.AddFunctionalEdgeLabel(Sym("title")).OrDie();
  s.AddFunctionalEdgeLabel(Sym("size")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("refs")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("tags")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("title"), Sym("Str")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("size"), Sym("Num")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("refs"), Sym("Doc")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("tags"), Sym("Tag")).OrDie();
  return s;
}

/// HasEdge must agree with AllEdges() membership on every (source,
/// label, target) combination over `nodes` and `labels`.
void ExpectHasEdgeMatchesAllEdges(const Instance& g,
                                  const std::vector<NodeId>& nodes,
                                  const std::vector<Symbol>& labels) {
  const std::vector<Edge> all = g.AllEdges();
  for (NodeId source : nodes) {
    for (Symbol label : labels) {
      for (NodeId target : nodes) {
        const Edge probe{source, label, target};
        EXPECT_EQ(g.HasEdge(source, label, target),
                  std::binary_search(all.begin(), all.end(), probe))
            << "#" << source.id << " -" << SymName(label) << "-> #"
            << target.id;
      }
    }
  }
}

TEST(InstanceTest, AddObjectNodeChecksLabel) {
  Scheme s = TestScheme();
  Instance g;
  auto doc = g.AddObjectNode(s, Sym("Doc"));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(g.HasNode(*doc));
  EXPECT_EQ(g.LabelOf(*doc), Sym("Doc"));
  EXPECT_FALSE(g.HasPrintValue(*doc));
  // Printable and unknown labels are rejected for object nodes.
  EXPECT_TRUE(g.AddObjectNode(s, Sym("Str")).status().IsInvalidArgument());
  EXPECT_TRUE(g.AddObjectNode(s, Sym("Nope")).status().IsInvalidArgument());
}

TEST(InstanceTest, PrintableNodesAreDeduplicated) {
  Scheme s = TestScheme();
  Instance g;
  auto a = g.AddPrintableNode(s, Sym("Str"), Value("x"));
  auto b = g.AddPrintableNode(s, Sym("Str"), Value("x"));
  auto c = g.AddPrintableNode(s, Sym("Str"), Value("y"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *b);  // Same (label, value) => same node.
  EXPECT_NE(*a, *c);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.FindPrintable(Sym("Str"), Value("x")), *a);
  EXPECT_EQ(g.FindPrintable(Sym("Str"), Value("z")), std::nullopt);
}

TEST(InstanceTest, PrintableDomainIsChecked) {
  Scheme s = TestScheme();
  Instance g;
  EXPECT_TRUE(g.AddPrintableNode(s, Sym("Num"), Value("not a number"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(g.AddPrintableNode(s, Sym("Doc"), Value("x"))
                  .status()
                  .IsNotFound());
}

TEST(InstanceTest, ValuelessPrintablesAreNotDeduplicated) {
  Scheme s = TestScheme();
  Instance g;
  auto a = g.AddValuelessPrintableNode(s, Sym("Str"));
  auto b = g.AddValuelessPrintableNode(s, Sym("Str"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(g.HasPrintValue(*a));
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceTest, EdgeRequiresSchemeTriple) {
  Scheme s = TestScheme();
  Instance g;
  NodeId doc = *g.AddObjectNode(s, Sym("Doc"));
  NodeId tag = *g.AddObjectNode(s, Sym("Tag"));
  // (Tag, refs, Doc) is not in P.
  EXPECT_TRUE(g.AddEdge(s, tag, Sym("refs"), doc).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("tags"), tag).ok());
  EXPECT_TRUE(g.HasEdge(doc, Sym("tags"), tag));
}

TEST(InstanceTest, FunctionalEdgeUniqueness) {
  Scheme s = TestScheme();
  Instance g;
  NodeId doc = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t1 = *g.AddPrintableNode(s, Sym("Str"), Value("a"));
  NodeId t2 = *g.AddPrintableNode(s, Sym("Str"), Value("b"));
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("title"), t1).ok());
  // Re-adding the same edge is an idempotent no-op.
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("title"), t1).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  // A second, different title is a functional conflict.
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("title"), t2).IsFailedPrecondition());
  EXPECT_EQ(g.FunctionalTarget(doc, Sym("title")), t1);
}

TEST(InstanceTest, MultivaluedEdgesAllowManyTargets) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  EXPECT_TRUE(g.AddEdge(s, a, Sym("refs"), b).ok());
  EXPECT_TRUE(g.AddEdge(s, a, Sym("refs"), c).ok());
  EXPECT_EQ(g.OutTargets(a, Sym("refs")).size(), 2u);
  EXPECT_EQ(g.InSources(b, Sym("refs")).size(), 1u);

  // HasEdge scans the shorter of the source's out-list and the target's
  // in-list. `in_hub` has a long in-list and a one-entry out-list,
  // `out_hub` the mirror; `c` carries a self-loop; out_hub -> in_hub is
  // absent although both of its lists are long.
  NodeId in_hub = *g.AddObjectNode(s, Sym("Doc"));
  NodeId out_hub = *g.AddObjectNode(s, Sym("Doc"));
  std::vector<NodeId> nodes = {a, b, c, in_hub, out_hub};
  for (int i = 0; i < 8; ++i) {
    NodeId spoke = *g.AddObjectNode(s, Sym("Doc"));
    g.AddEdge(s, spoke, Sym("refs"), in_hub).OrDie();
    g.AddEdge(s, out_hub, Sym("refs"), spoke).OrDie();
    nodes.push_back(spoke);
  }
  g.AddEdge(s, in_hub, Sym("refs"), a).OrDie();
  g.AddEdge(s, b, Sym("refs"), out_hub).OrDie();
  g.AddEdge(s, c, Sym("refs"), c).OrDie();
  EXPECT_TRUE(g.HasEdge(c, Sym("refs"), c));
  EXPECT_TRUE(g.HasEdge(in_hub, Sym("refs"), a));
  EXPECT_TRUE(g.HasEdge(nodes.back(), Sym("refs"), in_hub));
  EXPECT_TRUE(g.HasEdge(out_hub, Sym("refs"), nodes.back()));
  EXPECT_TRUE(g.HasEdge(b, Sym("refs"), out_hub));
  EXPECT_FALSE(g.HasEdge(out_hub, Sym("refs"), in_hub));
  EXPECT_FALSE(g.HasEdge(in_hub, Sym("refs"), out_hub));
  ExpectHasEdgeMatchesAllEdges(g, nodes, {Sym("refs"), Sym("tags")});
}

TEST(InstanceTest, RemoveNodeDetachesEdges) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), c).OrDie();
  g.AddEdge(s, c, Sym("refs"), b).OrDie();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.RemoveNode(b).ok());
  EXPECT_FALSE(g.HasNode(b));
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutTargets(a, Sym("refs")).empty());
  EXPECT_TRUE(g.Validate(s).ok());
  // Removing again is NotFound.
  EXPECT_TRUE(g.RemoveNode(b).IsNotFound());
}

TEST(InstanceTest, RemovedPrintableCanBeReadded) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddPrintableNode(s, Sym("Str"), Value("x"));
  g.RemoveNode(a).OrDie();
  auto b = g.AddPrintableNode(s, Sym("Str"), Value("x"));
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*b, a);
  EXPECT_TRUE(g.HasNode(*b));
}

TEST(InstanceTest, RemoveEdgeIsIdempotent) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  EXPECT_TRUE(g.RemoveEdge(a, Sym("refs"), b).ok());
  EXPECT_TRUE(g.RemoveEdge(a, Sym("refs"), b).ok());  // No-op.
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasEdge(a, Sym("refs"), b));
  ExpectHasEdgeMatchesAllEdges(g, {a, b}, {Sym("refs")});

  // Membership follows a journaled removal and its rollback.
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), b).OrDie();
  UndoJournal journal;
  g.AttachJournal(&journal);
  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  g.RemoveEdge(b, Sym("refs"), b).OrDie();
  EXPECT_FALSE(g.HasEdge(a, Sym("refs"), b));
  EXPECT_FALSE(g.HasEdge(b, Sym("refs"), b));
  ExpectHasEdgeMatchesAllEdges(g, {a, b}, {Sym("refs")});
  journal.Rollback(&g);
  g.DetachJournal();
  EXPECT_TRUE(g.HasEdge(a, Sym("refs"), b));
  EXPECT_TRUE(g.HasEdge(b, Sym("refs"), b));
  ExpectHasEdgeMatchesAllEdges(g, {a, b}, {Sym("refs")});
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceTest, LabelIndexTracksMutations) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  (void)b;
  EXPECT_EQ(g.CountNodesWithLabel(Sym("Doc")), 2u);
  g.RemoveNode(a).OrDie();
  EXPECT_EQ(g.CountNodesWithLabel(Sym("Doc")), 1u);
  EXPECT_EQ(g.NodesWithLabel(Sym("Tag")).size(), 0u);
}

TEST(InstanceTest, AllEdgesSortedAndComplete) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, b, Sym("refs"), a).OrDie();
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  auto edges = g.AllEdges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_LT(edges[0], edges[1]);
}

TEST(InstanceTest, CopyIsDeepSnapshot) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  Instance snapshot = g;
  g.RemoveNode(a).OrDie();
  EXPECT_TRUE(snapshot.HasNode(a));
  EXPECT_TRUE(snapshot.HasEdge(a, Sym("refs"), b));
  EXPECT_FALSE(g.HasNode(a));
}

TEST(InstanceTest, SuccessorLabelConsistency) {
  // With a union-typed functional edge (two triples sharing the edge
  // label), the per-node successor-label condition still holds because
  // the edge is functional; for a multivalued union edge, mixed labels
  // on one node must be rejected.
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  s.AddObjectLabel(Sym("B")).OrDie();
  s.AddObjectLabel(Sym("C")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("m")).OrDie();
  s.AddTriple(Sym("A"), Sym("m"), Sym("B")).OrDie();
  s.AddTriple(Sym("A"), Sym("m"), Sym("C")).OrDie();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("A"));
  NodeId b = *g.AddObjectNode(s, Sym("B"));
  NodeId b2 = *g.AddObjectNode(s, Sym("B"));
  NodeId c = *g.AddObjectNode(s, Sym("C"));
  EXPECT_TRUE(g.AddEdge(s, a, Sym("m"), b).ok());
  EXPECT_TRUE(g.AddEdge(s, a, Sym("m"), b2).ok());  // Same label: fine.
  EXPECT_TRUE(g.AddEdge(s, a, Sym("m"), c).IsFailedPrecondition());
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceTest, FingerprintIsLabelBasedNotIdBased) {
  Scheme s = TestScheme();
  Instance g1;
  NodeId a1 = *g1.AddObjectNode(s, Sym("Doc"));
  NodeId b1 = *g1.AddObjectNode(s, Sym("Doc"));
  g1.AddEdge(s, a1, Sym("refs"), b1).OrDie();

  Instance g2;
  // Create in a different order (different ids), same shape.
  NodeId x = *g2.AddObjectNode(s, Sym("Tag"));
  g2.RemoveNode(x).OrDie();
  NodeId b2 = *g2.AddObjectNode(s, Sym("Doc"));
  NodeId a2 = *g2.AddObjectNode(s, Sym("Doc"));
  g2.AddEdge(s, a2, Sym("refs"), b2).OrDie();

  EXPECT_EQ(g1.Fingerprint(), g2.Fingerprint());
}

TEST(InstanceTest, ValidateDetectsNothingOnHealthyGraph) {
  Scheme s = TestScheme();
  Instance g;
  NodeId d = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t = *g.AddPrintableNode(s, Sym("Str"), Value("hello"));
  g.AddEdge(s, d, Sym("title"), t).OrDie();
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceStatsTest, EdgeCountersTrackMutations) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t = *g.AddObjectNode(s, Sym("Tag"));
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 0u);
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), a).OrDie();
  g.AddEdge(s, a, Sym("tags"), t).OrDie();
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 2u);
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("tags")), 1u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), 2u);
  EXPECT_EQ(g.InDegreeSum(Sym("Doc"), Sym("refs")), 2u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("tags")), 1u);
  EXPECT_EQ(g.InDegreeSum(Sym("Tag"), Sym("tags")), 1u);
  EXPECT_DOUBLE_EQ(g.AvgOutFanout(Sym("Doc"), Sym("refs")), 1.0);
  EXPECT_DOUBLE_EQ(g.AvgInFanout(Sym("Tag"), Sym("tags")), 1.0);
  // Fanout over an empty label population is 0, not a division fault.
  EXPECT_DOUBLE_EQ(g.AvgOutFanout(Sym("Str"), Sym("refs")), 0.0);

  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 1u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), 1u);
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceStatsTest, NodeRemovalDecrementsEdgeStats) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), c).OrDie();
  g.AddEdge(s, c, Sym("refs"), b).OrDie();
  // Removing b detaches all three edges; the census counters must
  // follow the inline detachment path, not just RemoveEdge.
  g.RemoveNode(b).OrDie();
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 0u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), 0u);
  EXPECT_EQ(g.InDegreeSum(Sym("Doc"), Sym("refs")), 0u);
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceStatsTest, StatsEpochAdvancesOnEveryMutation) {
  Scheme s = TestScheme();
  Instance g;
  EXPECT_EQ(g.stats_epoch(), 0u);  // Never mutated.
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  uint64_t e1 = g.stats_epoch();
  EXPECT_GT(e1, 0u);
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  uint64_t e2 = g.stats_epoch();
  EXPECT_GT(e2, e1);
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  uint64_t e3 = g.stats_epoch();
  EXPECT_GT(e3, e2);
  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  uint64_t e4 = g.stats_epoch();
  EXPECT_GT(e4, e3);
  g.RemoveNode(b).OrDie();
  EXPECT_GT(g.stats_epoch(), e4);

  // Epochs are process-globally unique: an independently mutated
  // instance never lands on an epoch this one already used.
  Instance other;
  (void)*other.AddObjectNode(s, Sym("Doc"));
  EXPECT_NE(other.stats_epoch(), g.stats_epoch());
}

TEST(InstanceStatsTest, CopySharesEpochUntilMutated) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();

  // An unmutated copy has identical stats, so sharing the source epoch
  // is sound (and lets cached plans carry over).
  Instance copy = g;
  EXPECT_EQ(copy.stats_epoch(), g.stats_epoch());
  EXPECT_EQ(copy.CountEdgesWithLabel(Sym("refs")), 1u);

  // The first mutation of either side forks the epoch.
  copy.RemoveEdge(a, Sym("refs"), b).OrDie();
  EXPECT_NE(copy.stats_epoch(), g.stats_epoch());
  EXPECT_EQ(copy.CountEdgesWithLabel(Sym("refs")), 0u);
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 1u);
}

TEST(InstanceStatsTest, JournalRollbackRestoresCountersWithFreshEpoch) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();

  const size_t refs_before = g.CountEdgesWithLabel(Sym("refs"));
  const size_t out_before = g.OutDegreeSum(Sym("Doc"), Sym("refs"));
  const size_t in_before = g.InDegreeSum(Sym("Doc"), Sym("refs"));

  UndoJournal journal;
  g.AttachJournal(&journal);
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), c).OrDie();
  g.AddEdge(s, c, Sym("refs"), b).OrDie();
  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  g.RemoveNode(b).OrDie();
  const uint64_t mid_epoch = g.stats_epoch();

  journal.Rollback(&g);
  g.DetachJournal();

  // The counters are back where they started, but the epoch is fresh:
  // rollback is itself a mutation, so stale cached plans can't match.
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), refs_before);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), out_before);
  EXPECT_EQ(g.InDegreeSum(Sym("Doc"), Sym("refs")), in_before);
  EXPECT_GT(g.stats_epoch(), mid_epoch);
  EXPECT_TRUE(g.Validate(s).ok());
}

}  // namespace
}  // namespace good::graph
