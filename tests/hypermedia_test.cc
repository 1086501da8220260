/// Figure-by-figure reproduction tests for the paper's running example
/// (Figures 1-19). Each test builds the Figure 2/3 instance, applies the
/// figure's operation, and asserts the paper's described outcome.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/instance.h"
#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "pattern/matcher.h"

namespace good::hypermedia {
namespace {

using graph::Instance;
using graph::NodeId;
using schema::Scheme;

class HyperMediaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = BuildScheme().ValueOrDie();
    auto built = BuildInstance(scheme_).ValueOrDie();
    instance_ = std::move(built.instance);
    nodes_ = built.nodes;
  }

  Scheme scheme_;
  Instance instance_;
  InstanceNodes nodes_;
};

// --- Figure 1: the scheme. ---

TEST_F(HyperMediaTest, Fig1SchemeCensus) {
  EXPECT_EQ(scheme_.object_labels().size(), 8u);
  EXPECT_EQ(scheme_.printable_labels().size(), 6u);
  EXPECT_EQ(scheme_.functional_edge_labels().size(), 14u);
  EXPECT_EQ(scheme_.multivalued_edge_labels().size(), 2u);
  EXPECT_EQ(scheme_.num_triples(), 23u);
  const Labels& l = Labels::Get();
  EXPECT_TRUE(scheme_.HasTriple(l.info, l.links_to, l.info));
  EXPECT_TRUE(scheme_.HasTriple(l.comment, l.is, l.string));
  EXPECT_TRUE(scheme_.HasTriple(l.comment, l.is, l.number));
  EXPECT_TRUE(scheme_.HasTriple(l.graphics, l.data_edge, l.bitmap));
  // isa markings per Section 4.2.
  EXPECT_TRUE(scheme_.IsIsaTriple(l.data, l.isa, l.info));
  auto closure = scheme_.SuperclassClosure(l.sound);
  // Sound -> Data -> Info.
  EXPECT_EQ(closure.size(), 3u);
}

// --- Figures 2-3: the instance. ---

TEST_F(HyperMediaTest, Fig2InstanceValidatesAndCensus) {
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
  const Labels& l = Labels::Get();
  // 9 document infos + 4 inner data-infos (Figure 3).
  EXPECT_EQ(instance_.CountNodesWithLabel(l.info), 13u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.version), 1u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.reference), 1u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.comment), 1u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.data), 4u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.sound), 1u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.text), 2u);
  EXPECT_EQ(instance_.CountNodesWithLabel(l.graphics), 1u);
}

TEST_F(HyperMediaTest, Fig2PrintableDedupJan12SharedSevenTimes) {
  // The paper notes the printable "Jan 12, 1990" is drawn seven times
  // but is really ONE node with seven incoming edges.
  const Labels& l = Labels::Get();
  auto jan12 = instance_.FindPrintable(l.date, Value(Date{1990, 1, 12}));
  ASSERT_TRUE(jan12.has_value());
  EXPECT_EQ(instance_.InDegree(*jan12), 7u);
}

TEST_F(HyperMediaTest, Fig2DoorsHasNoComment) {
  // Incomplete information: The Doors deliberately has no comment.
  const Labels& l = Labels::Get();
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.doors, l.comment_edge),
            std::nullopt);
  // Music History does have one, and it "is" a string by Jones.
  auto c = instance_.FunctionalTarget(nodes_.music_history, l.comment_edge);
  ASSERT_TRUE(c.has_value());
  auto is = instance_.FunctionalTarget(*c, l.is);
  ASSERT_TRUE(is.has_value());
  EXPECT_EQ(*instance_.PrintValueOf(*is), Value("Author: Jones"));
}

TEST_F(HyperMediaTest, Fig2VersionStructure) {
  const Labels& l = Labels::Get();
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.version, l.new_edge),
            nodes_.rock_new);
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.version, l.old_edge),
            nodes_.rock_old);
  // Both versions keep the Doors link.
  EXPECT_TRUE(instance_.HasEdge(nodes_.rock_new, l.links_to, nodes_.doors));
  EXPECT_TRUE(instance_.HasEdge(nodes_.rock_old, l.links_to, nodes_.doors));
}

TEST_F(HyperMediaTest, Fig2ReferenceStructure) {
  const Labels& l = Labels::Get();
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.reference, l.isa),
            nodes_.beatles);
  EXPECT_TRUE(instance_.HasEdge(nodes_.reference, l.in, nodes_.jazz));
}

// --- Figures 4-5: pattern and matchings. ---

TEST_F(HyperMediaTest, Fig4PatternHasExactlyTwoMatchings) {
  auto fig4 = Fig4Pattern(scheme_).ValueOrDie();
  auto matchings = pattern::FindMatchings(fig4.pattern, instance_);
  ASSERT_EQ(matchings.size(), 2u);
  // Both map the upper node to the new Rock info; the lower node maps
  // to The Doors in one matching (Figure 5) and to Pinkfloyd in the
  // other.
  std::set<NodeId> lower_images;
  for (const auto& m : matchings) {
    EXPECT_EQ(m.At(fig4.upper_info), nodes_.rock_new);
    lower_images.insert(m.At(fig4.lower_info));
  }
  EXPECT_EQ(lower_images, (std::set<NodeId>{nodes_.doors, nodes_.pinkfloyd}));
}

// --- Figures 6-7: node addition. ---

TEST_F(HyperMediaTest, Fig6NodeAdditionTagsDoorsAndPinkfloyd) {
  auto na = Fig6NodeAddition(scheme_).ValueOrDie();
  ops::ApplyStats stats;
  ASSERT_TRUE(na.Apply(&scheme_, &instance_, &stats).ok());
  EXPECT_EQ(stats.matchings, 2u);
  EXPECT_EQ(stats.nodes_added, 2u);
  EXPECT_EQ(stats.edges_added, 2u);
  // Figure 7: a Rock tag with a tagged-to edge on each of the two nodes.
  auto tags = instance_.NodesWithLabel(Sym("Rock"));
  ASSERT_EQ(tags.size(), 2u);
  std::set<NodeId> tagged;
  for (NodeId tag : tags) {
    auto t = instance_.FunctionalTarget(tag, Sym("tagged-to"));
    ASSERT_TRUE(t.has_value());
    tagged.insert(*t);
  }
  EXPECT_EQ(tagged, (std::set<NodeId>{nodes_.doors, nodes_.pinkfloyd}));
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
}

TEST_F(HyperMediaTest, Fig7ResultIsomorphicAcrossRuns) {
  // Determinism up to new-object choice: apply Figure 6 to two copies
  // and compare up to isomorphism.
  Scheme s2 = scheme_;
  auto built2 = BuildInstance(s2).ValueOrDie();
  auto na1 = Fig6NodeAddition(scheme_).ValueOrDie();
  auto na2 = Fig6NodeAddition(s2).ValueOrDie();
  na1.Apply(&scheme_, &instance_).OrDie();
  na2.Apply(&s2, &built2.instance).OrDie();
  EXPECT_TRUE(graph::IsIsomorphic(instance_, built2.instance));
}

// --- Figure 8: aggregate node addition. ---

TEST_F(HyperMediaTest, Fig8HasFourMatchingsAndFourPairs) {
  auto na = Fig8NodeAddition(scheme_).ValueOrDie();
  ops::ApplyStats stats;
  ASSERT_TRUE(na.Apply(&scheme_, &instance_, &stats).ok());
  // The paper: "there are four matchings of the source pattern".
  EXPECT_EQ(stats.matchings, 4u);
  // Pairs: (Jan14,Jan12) via doors, (Jan14,Jan14) via pinkfloyd,
  // (Jan12,Jan12) via doors and via beatles — the last two bindings
  // coincide on (parent,child), so only 3 distinct pairs are created.
  EXPECT_EQ(stats.nodes_added, 3u);
  EXPECT_EQ(instance_.CountNodesWithLabel(Sym("Pair")), 3u);
  std::set<std::pair<Value, Value>> pairs;
  for (NodeId pair : instance_.NodesWithLabel(Sym("Pair"))) {
    auto p = instance_.FunctionalTarget(pair, Sym("parent"));
    auto c = instance_.FunctionalTarget(pair, Sym("child"));
    ASSERT_TRUE(p.has_value() && c.has_value());
    pairs.emplace(*instance_.PrintValueOf(*p), *instance_.PrintValueOf(*c));
  }
  Value jan12(Date{1990, 1, 12});
  Value jan14(Date{1990, 1, 14});
  EXPECT_TRUE(pairs.contains({jan14, jan12}));
  EXPECT_TRUE(pairs.contains({jan14, jan14}));
  EXPECT_TRUE(pairs.contains({jan12, jan12}));
}

// --- Figures 10-11: edge addition. ---

TEST_F(HyperMediaTest, Fig10AddsDataCreationEdges) {
  auto ea = Fig10EdgeAddition(scheme_).ValueOrDie();
  ops::ApplyStats stats;
  ASSERT_TRUE(ea.Apply(&scheme_, &instance_, &stats).ok());
  EXPECT_EQ(stats.matchings, 2u);
  EXPECT_EQ(stats.edges_added, 2u);
  // Figure 11: both Pinkfloyd data nodes now carry data-creation ->
  // Jan 14, 1990.
  const Labels& l = Labels::Get();
  auto jan14 = instance_.FindPrintable(l.date, Value(Date{1990, 1, 14}));
  ASSERT_TRUE(jan14.has_value());
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.pf_data_sound,
                                       Sym("data-creation")),
            jan14);
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.pf_data_text,
                                       Sym("data-creation")),
            jan14);
  // The Doors data nodes are untouched.
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.dr_data_text,
                                       Sym("data-creation")),
            std::nullopt);
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
}

// --- Figures 12-13: building a set object. ---

TEST_F(HyperMediaTest, Fig12And13BuildTheCreatedSet) {
  auto na = Fig12NodeAddition(scheme_).ValueOrDie();
  ops::ApplyStats na_stats;
  ASSERT_TRUE(na.Apply(&scheme_, &instance_, &na_stats).ok());
  EXPECT_EQ(na_stats.matchings, 1u);  // The empty matching.
  EXPECT_EQ(na_stats.nodes_added, 1u);

  auto ea = Fig13EdgeAddition(scheme_).ValueOrDie();
  ops::ApplyStats ea_stats;
  ASSERT_TRUE(ea.Apply(&scheme_, &instance_, &ea_stats).ok());
  // Infos created Jan 14: rock_new and pinkfloyd.
  EXPECT_EQ(ea_stats.edges_added, 2u);
  auto sets = instance_.NodesWithLabel(Sym("Created Jan 14, 1990"));
  ASSERT_EQ(sets.size(), 1u);
  auto members = instance_.OutTargets(sets[0], Sym("contains"));
  EXPECT_EQ(std::set<NodeId>(members.begin(), members.end()),
            (std::set<NodeId>{nodes_.rock_new, nodes_.pinkfloyd}));
}

// --- Figures 14-15: node deletion. ---

TEST_F(HyperMediaTest, Fig14DeletesClassicalMusicIsolatingMozart) {
  auto nd = Fig14NodeDeletion(scheme_).ValueOrDie();
  ops::ApplyStats stats;
  ASSERT_TRUE(nd.Apply(&scheme_, &instance_, &stats).ok());
  EXPECT_EQ(stats.nodes_deleted, 1u);
  EXPECT_FALSE(instance_.HasNode(nodes_.classical));
  // Figure 15: Mozart became isolated (no edges in either direction
  // towards objects; its own outgoing name/created edges remain).
  const Labels& l = Labels::Get();
  EXPECT_EQ(instance_.InDegree(nodes_.mozart), 0u);
  EXPECT_TRUE(instance_.HasNode(nodes_.mozart));
  // Music History no longer links to the deleted node.
  auto links = instance_.OutTargets(nodes_.music_history, l.links_to);
  EXPECT_EQ(links.size(), 2u);
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
}

// --- Figure 16: update as edge deletion + edge addition. ---

TEST_F(HyperMediaTest, Fig16UpdatesTheModifiedDate) {
  const Labels& l = Labels::Get();
  auto ed = Fig16EdgeDeletion(scheme_).ValueOrDie();
  ops::ApplyStats ed_stats;
  ASSERT_TRUE(ed.Apply(&scheme_, &instance_, &ed_stats).ok());
  EXPECT_EQ(ed_stats.edges_deleted, 1u);
  EXPECT_EQ(instance_.FunctionalTarget(nodes_.music_history, l.modified),
            std::nullopt);

  auto ea = Fig16EdgeAddition(scheme_).ValueOrDie();
  ASSERT_TRUE(ea.Apply(&scheme_, &instance_).ok());
  auto target = instance_.FunctionalTarget(nodes_.music_history, l.modified);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*instance_.PrintValueOf(*target), Value(Date{1990, 1, 16}));
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
}

TEST_F(HyperMediaTest, Fig16AdditionWithoutDeletionIsInconsistent) {
  // Updating without first deleting the old edge trips the functional
  // consistency check (two modified dates for one node).
  auto ea = Fig16EdgeAddition(scheme_).ValueOrDie();
  EXPECT_TRUE(ea.Apply(&scheme_, &instance_).IsFailedPrecondition());
}

// --- Figures 17-19: abstraction. ---

TEST_F(HyperMediaTest, Fig18AbstractionGroupsVersionedInfos) {
  Instance versions = BuildVersionInstance(scheme_).ValueOrDie();
  auto fig18 = Fig18Abstraction(scheme_).ValueOrDie();
  ops::ApplyStats stats;
  ASSERT_TRUE(fig18.tag_new.Apply(&scheme_, &versions, &stats).ok());
  ASSERT_TRUE(fig18.tag_old.Apply(&scheme_, &versions, &stats).ok());
  // Five chained infos are tagged: i1 (new of v1) .. i5 (old of v4).
  EXPECT_EQ(versions.CountNodesWithLabel(Sym("Interested")), 5u);

  stats = {};
  ASSERT_TRUE(fig18.abstraction.Apply(&scheme_, &versions, &stats).ok());
  // Figure 19: classes {i1, i2} (links {x,y}), {i3, i4} ({y}), {i5}
  // ({y,z}).
  EXPECT_EQ(stats.nodes_added, 3u);
  EXPECT_EQ(stats.edges_added, 5u);
  std::multiset<size_t> class_sizes;
  for (NodeId group : versions.NodesWithLabel(Sym("Same-Info"))) {
    class_sizes.insert(versions.OutTargets(group, Sym("contains")).size());
  }
  EXPECT_EQ(class_sizes, (std::multiset<size_t>{1, 2, 2}));
  EXPECT_TRUE(versions.Validate(scheme_).ok());
}

}  // namespace
}  // namespace good::hypermedia
