#include <gtest/gtest.h>

#include "graph/instance.h"
#include "ops/operations.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"
#include "schema/scheme.h"

namespace good::ops {
namespace {

using graph::Instance;
using graph::NodeId;
using pattern::GraphBuilder;
using schema::Scheme;

Scheme DocScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("Doc")).OrDie();
  s.AddPrintableLabel(Sym("Str"), ValueKind::kString).OrDie();
  s.AddFunctionalEdgeLabel(Sym("title")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("refs")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("title"), Sym("Str")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("refs"), Sym("Doc")).OrDie();
  return s;
}

struct Db {
  Scheme scheme;
  Instance instance;
  NodeId d1, d2, d3;
};

Db MakeDb() {
  Db db;
  db.scheme = DocScheme();
  db.d1 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  db.d2 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  db.d3 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  NodeId t1 = *db.instance.AddPrintableNode(db.scheme, Sym("Str"), Value("a"));
  NodeId t2 = *db.instance.AddPrintableNode(db.scheme, Sym("Str"), Value("b"));
  db.instance.AddEdge(db.scheme, db.d1, Sym("title"), t1).OrDie();
  db.instance.AddEdge(db.scheme, db.d2, Sym("title"), t2).OrDie();
  db.instance.AddEdge(db.scheme, db.d1, Sym("refs"), db.d2).OrDie();
  db.instance.AddEdge(db.scheme, db.d1, Sym("refs"), db.d3).OrDie();
  db.instance.AddEdge(db.scheme, db.d2, Sym("refs"), db.d3).OrDie();
  return db;
}

// ---------------------------------------------------------------------------
// Node addition
// ---------------------------------------------------------------------------

TEST(NodeAdditionTest, TagsEveryMatchedNode) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 3u);
  EXPECT_EQ(stats.nodes_added, 3u);
  EXPECT_EQ(stats.edges_added, 3u);
  EXPECT_EQ(db.instance.CountNodesWithLabel(Sym("Tag")), 3u);
  // Scheme was minimally extended.
  EXPECT_TRUE(db.scheme.IsObjectLabel(Sym("Tag")));
  EXPECT_TRUE(db.scheme.IsFunctionalEdgeLabel(Sym("of")));
  EXPECT_TRUE(db.scheme.HasTriple(Sym("Tag"), Sym("of"), Sym("Doc")));
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(NodeAdditionTest, IsIdempotent) {
  // Figure 9's "if not exists" check: re-running the same NA adds
  // nothing because every matching is already served.
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  na.Apply(&db.scheme, &db.instance).OrDie();
  size_t nodes_before = db.instance.num_nodes();
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 0u);
  EXPECT_EQ(db.instance.num_nodes(), nodes_before);
}

TEST(NodeAdditionTest, DedupsByBoldEdgeTargets) {
  // Pattern with two nodes (x refs y), bold edge only to y: the number
  // of added nodes equals the number of distinct y-images, not the
  // number of matchings.
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  NodeAddition na(b.BuildOrDie(), Sym("Mark"), {{Sym("at"), y}});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 3u);   // (d1,d2), (d1,d3), (d2,d3).
  EXPECT_EQ(stats.nodes_added, 2u); // Distinct targets: d2, d3.
}

TEST(NodeAdditionTest, EmptyPatternAddsSingleton) {
  Db db = MakeDb();
  NodeAddition na(pattern::Pattern(), Sym("Root"), {});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 1u);
  EXPECT_EQ(stats.nodes_added, 1u);
  // Running again adds nothing (a Root node now exists).
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(db.instance.CountNodesWithLabel(Sym("Root")), 1u);
}

TEST(NodeAdditionTest, NoMatchingsAddsNothing) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("no such title"));
  b.Edge(doc, "title", t);
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 0u);
  EXPECT_EQ(stats.nodes_added, 0u);
  // The scheme is still extended (the result pattern must be a pattern
  // over the new scheme regardless of matchings).
  EXPECT_TRUE(db.scheme.IsObjectLabel(Sym("Tag")));
}

TEST(NodeAdditionTest, RejectsPrintableNewLabel) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Str"), {{Sym("of"), doc}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, RejectsMultivaluedBoldEdgeLabel) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("refs"), doc}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, RejectsDuplicateBoldLabels) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  NodeAddition na(b.BuildOrDie(), Sym("Tag"),
                  {{Sym("of"), x}, {Sym("of"), y}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, RejectsForeignPatternNode) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), NodeId{999}}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, ReusesPreexistingServingNodes) {
  // If an existing Tag node already has the required functional edge to
  // a matched target, that matching is considered served.
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  // Pre-extend the scheme and add one Tag serving d1.
  db.scheme.EnsureObjectLabel(Sym("Tag")).OrDie();
  db.scheme.EnsureFunctionalEdgeLabel(Sym("of")).OrDie();
  db.scheme.EnsureTriple(Sym("Tag"), Sym("of"), Sym("Doc")).OrDie();
  NodeId pre = *db.instance.AddObjectNode(db.scheme, Sym("Tag"));
  db.instance.AddEdge(db.scheme, pre, Sym("of"), db.d1).OrDie();
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 2u);  // Only d2 and d3 needed new tags.
}

// ---------------------------------------------------------------------------
// Edge addition
// ---------------------------------------------------------------------------

TEST(EdgeAdditionTest, AddsEdgePerMatching) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  // Add the inverse edge.
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{y, Sym("refd-by"), x, /*functional=*/false}});
  ApplyStats stats;
  ASSERT_TRUE(ea.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.edges_added, 3u);
  EXPECT_TRUE(db.instance.HasEdge(db.d2, Sym("refd-by"), db.d1));
  EXPECT_TRUE(db.instance.HasEdge(db.d3, Sym("refd-by"), db.d1));
  EXPECT_TRUE(db.instance.HasEdge(db.d3, Sym("refd-by"), db.d2));
  EXPECT_TRUE(db.scheme.IsMultivaluedEdgeLabel(Sym("refd-by")));
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(EdgeAdditionTest, IdempotentOnExistingEdges) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("refs"), y, /*functional=*/false}});
  ApplyStats stats;
  ASSERT_TRUE(ea.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.edges_added, 0u);  // All edges already present.
}

TEST(EdgeAdditionTest, FunctionalConflictIsRejectedAtomically) {
  // Adding a functional "primary" edge from every doc to every doc it
  // refs fails for d1 (two refs) — and must leave the instance
  // untouched (the paper's "result is not defined").
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("primary"), y, /*functional=*/true}});
  Instance before = db.instance;
  EXPECT_TRUE(ea.Apply(&db.scheme, &db.instance).IsFailedPrecondition());
  EXPECT_EQ(db.instance.Fingerprint(), before.Fingerprint());
}

TEST(EdgeAdditionTest, FunctionalConflictWithExistingEdge) {
  Db db = MakeDb();
  // d2 refs only d3, so "primary" from d2 alone would be fine — but d2
  // already carries a conflicting primary edge to d1.
  db.scheme.EnsureFunctionalEdgeLabel(Sym("primary")).OrDie();
  db.scheme.EnsureTriple(Sym("Doc"), Sym("primary"), Sym("Doc")).OrDie();
  db.instance.AddEdge(db.scheme, db.d2, Sym("primary"), db.d1).OrDie();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("b"));
  b.Edge(x, "title", t).Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("primary"), y, /*functional=*/true}});
  EXPECT_TRUE(ea.Apply(&db.scheme, &db.instance).IsFailedPrecondition());
}

TEST(EdgeAdditionTest, KindDisagreementIsRejected) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  // "refs" is registered multivalued; requesting functional is an error.
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("refs"), y, /*functional=*/true}});
  EXPECT_TRUE(ea.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Node deletion
// ---------------------------------------------------------------------------

TEST(NodeDeletionTest, DeletesAllMatchedNodes) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  // Delete every doc that refs something.
  NodeDeletion nd(b.BuildOrDie(), x);
  ApplyStats stats;
  ASSERT_TRUE(nd.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_deleted, 2u);  // d1 and d2.
  EXPECT_FALSE(db.instance.HasNode(db.d1));
  EXPECT_FALSE(db.instance.HasNode(db.d2));
  EXPECT_TRUE(db.instance.HasNode(db.d3));
  // Incident edges are gone; d3 is isolated.
  EXPECT_EQ(db.instance.InDegree(db.d3), 0u);
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(NodeDeletionTest, DeletingIsolatesNeighbours) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("a"));
  b.Edge(x, "title", t);
  NodeDeletion nd(b.BuildOrDie(), x);
  ASSERT_TRUE(nd.Apply(&db.scheme, &db.instance).ok());
  EXPECT_FALSE(db.instance.HasNode(db.d1));
  // The printable "a" node survives, now unreferenced.
  EXPECT_TRUE(db.instance.FindPrintable(Sym("Str"), Value("a")).has_value());
}

TEST(NodeDeletionTest, SelfLoopCountedOnceInEdgeStats) {
  // A self-loop appears in both the out- and in-edge lists of its node
  // but is one edge; edges_deleted must not double-count it.
  Scheme scheme = DocScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(scheme, Sym("Doc"));
  NodeId b = *g.AddObjectNode(scheme, Sym("Doc"));
  g.AddEdge(scheme, a, Sym("refs"), a).OrDie();
  g.AddEdge(scheme, a, Sym("refs"), b).OrDie();

  GraphBuilder pb(scheme);
  NodeId x = pb.Object("Doc");
  pb.Edge(x, "refs", x);  // Matches only the looped doc.
  NodeDeletion nd(pb.BuildOrDie(), x);
  ApplyStats stats;
  ASSERT_TRUE(nd.Apply(&scheme, &g, &stats).ok());
  EXPECT_EQ(stats.nodes_deleted, 1u);
  EXPECT_EQ(stats.edges_deleted, 2u);  // Loop once + the a->b edge.
  EXPECT_EQ(stats.match.matchings, 1u);
  EXPECT_FALSE(g.HasNode(a));
  EXPECT_TRUE(g.HasNode(b));
  EXPECT_TRUE(g.Validate(scheme).ok());
}

TEST(NodeDeletionTest, NoMatchNoChange) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("zzz"));
  b.Edge(x, "title", t);
  NodeDeletion nd(b.BuildOrDie(), x);
  Instance before = db.instance;
  ASSERT_TRUE(nd.Apply(&db.scheme, &db.instance).ok());
  EXPECT_EQ(db.instance.Fingerprint(), before.Fingerprint());
}

// ---------------------------------------------------------------------------
// Edge deletion
// ---------------------------------------------------------------------------

TEST(EdgeDeletionTest, DeletesMatchedEdges) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeDeletion ed(b.BuildOrDie(), {EdgeRef{x, Sym("refs"), y}});
  ApplyStats stats;
  ASSERT_TRUE(ed.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.edges_deleted, 3u);
  EXPECT_EQ(db.instance.num_edges(), 2u);  // Only the two titles remain.
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(EdgeDeletionTest, RequiresEdgeInsidePattern) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  // No edge drawn in the pattern.
  EdgeDeletion ed(b.BuildOrDie(), {EdgeRef{x, Sym("refs"), y}});
  EXPECT_TRUE(ed.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(EdgeDeletionTest, SelectiveDeletion) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("a"));
  b.Edge(x, "title", t).Edge(x, "refs", y);
  EdgeDeletion ed(b.BuildOrDie(), {EdgeRef{x, Sym("refs"), y}});
  ASSERT_TRUE(ed.Apply(&db.scheme, &db.instance).ok());
  // Only d1's refs edges were removed (it is the only doc titled "a").
  EXPECT_FALSE(db.instance.HasEdge(db.d1, Sym("refs"), db.d2));
  EXPECT_FALSE(db.instance.HasEdge(db.d1, Sym("refs"), db.d3));
  EXPECT_TRUE(db.instance.HasEdge(db.d2, Sym("refs"), db.d3));
}

// ---------------------------------------------------------------------------
// Abstraction
// ---------------------------------------------------------------------------

TEST(AbstractionTest, GroupsByEqualSuccessorSets) {
  Db db = MakeDb();
  // refs sets: d1 -> {d2, d3}, d2 -> {d3}, d3 -> {}.
  // Add d4 with refs {d3} so d2 and d4 group together.
  NodeId d4 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  db.instance.AddEdge(db.scheme, d4, Sym("refs"), db.d3).OrDie();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 3u);  // {d1}, {d2,d4}, {d3}.
  EXPECT_EQ(stats.edges_added, 4u);
  // Find the group containing d2; it must also contain d4 and nothing
  // else.
  bool found = false;
  for (NodeId group : db.instance.NodesWithLabel(Sym("Group"))) {
    auto members = db.instance.OutTargets(group, Sym("member"));
    if (std::find(members.begin(), members.end(), db.d2) != members.end()) {
      found = true;
      EXPECT_EQ(members.size(), 2u);
      EXPECT_NE(std::find(members.begin(), members.end(), d4), members.end());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(AbstractionTest, IsIdempotent) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ab.Apply(&db.scheme, &db.instance).OrDie();
  size_t nodes = db.instance.num_nodes();
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 0u);
  EXPECT_EQ(db.instance.num_nodes(), nodes);
}

TEST(AbstractionTest, EmptySuccessorSetsGroupTogether) {
  Db db = MakeDb();
  // d3 has no refs; add d4 also without refs: they form one group.
  NodeId d4 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  (void)d4;
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 3u);  // {d1}, {d2}, {d3, d4}.
}

TEST(AbstractionTest, GroupingEdgeMustBeMultivalued) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("title"));
  EXPECT_TRUE(ab.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(AbstractionTest, RestrictedToMatchedNodes) {
  Db db = MakeDb();
  // Only docs titled "a" (just d1) are abstracted.
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("a"));
  b.Edge(doc, "title", t);
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 1u);
  EXPECT_EQ(stats.edges_added, 1u);
}

// ---------------------------------------------------------------------------
// Determinism up to new-object choice (Section 3)
// ---------------------------------------------------------------------------

TEST(DeterminismTest, TwoRunsAreIsomorphic) {
  Db db1 = MakeDb();
  Db db2 = MakeDb();
  // Perturb db2's id space without changing its shape.
  NodeId junk = *db2.instance.AddObjectNode(db2.scheme, Sym("Doc"));
  db2.instance.RemoveNode(junk).OrDie();

  GraphBuilder b1(db1.scheme);
  NodeId doc1 = b1.Object("Doc");
  NodeAddition na1(b1.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc1}});
  na1.Apply(&db1.scheme, &db1.instance).OrDie();

  GraphBuilder b2(db2.scheme);
  NodeId doc2 = b2.Object("Doc");
  NodeAddition na2(b2.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc2}});
  na2.Apply(&db2.scheme, &db2.instance).OrDie();

  EXPECT_EQ(db1.instance.Fingerprint(), db2.instance.Fingerprint());
}

}  // namespace
}  // namespace good::ops
