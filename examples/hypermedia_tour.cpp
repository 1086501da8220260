// The full paper walkthrough: builds the Figure 1 scheme and Figure 2/3
// hyper-media instance and replays every operation figure (4-19),
// printing what the paper says should happen and what the engine did.
//
//   ./build/examples/hypermedia_tour

#include <cstdio>

#include "hypermedia/hypermedia.h"
#include "pattern/matcher.h"
#include "program/dot.h"

using good::Sym;
using good::hypermedia::Labels;

namespace hm = good::hypermedia;

namespace {

void Banner(const char* figure, const char* what) {
  std::printf("\n=== %s — %s ===\n", figure, what);
}

}  // namespace

int main() {
  auto scheme = hm::BuildScheme().ValueOrDie();
  Banner("Figure 1", "the hyper-media object base scheme");
  std::printf("%s\n", scheme.ToString().c_str());

  auto built = hm::BuildInstance(scheme).ValueOrDie();
  auto& instance = built.instance;
  auto& nodes = built.nodes;
  Banner("Figures 2-3", "the hyper-media instance");
  std::printf("nodes=%zu edges=%zu (validates: %s)\n", instance.num_nodes(),
              instance.num_edges(),
              instance.Validate(scheme).ok() ? "yes" : "NO");

  Banner("Figures 4-5", "pattern matching");
  auto fig4 = hm::Fig4Pattern(scheme).ValueOrDie();
  auto matchings = good::pattern::FindMatchings(fig4.pattern, instance);
  std::printf("the Rock/Jan-14 pattern has %zu matchings (paper: 2)\n",
              matchings.size());

  Banner("Figures 6-7", "node addition tags the linked documents");
  auto na6 = hm::Fig6NodeAddition(scheme).ValueOrDie();
  good::ops::ApplyStats stats;
  na6.Apply(&scheme, &instance, &stats).OrDie();
  std::printf("matchings=%zu, Rock tags added=%zu (paper: 2)\n",
              stats.matchings, stats.nodes_added);

  Banner("Figure 8", "node addition derives date aggregates");
  stats = {};
  hm::Fig8NodeAddition(scheme).ValueOrDie().Apply(&scheme, &instance,
                                                  &stats).OrDie();
  std::printf("matchings=%zu (paper: 4), distinct Pair objects=%zu\n",
              stats.matchings, stats.nodes_added);

  Banner("Figures 10-11", "edge addition attaches data-creation dates");
  stats = {};
  hm::Fig10EdgeAddition(scheme).ValueOrDie().Apply(&scheme, &instance,
                                                   &stats).OrDie();
  std::printf("data-creation edges added=%zu (paper: 2)\n",
              stats.edges_added);

  Banner("Figures 12-13", "building the set of Jan-14 documents");
  hm::Fig12NodeAddition(scheme).ValueOrDie().Apply(&scheme, &instance)
      .OrDie();
  stats = {};
  hm::Fig13EdgeAddition(scheme).ValueOrDie().Apply(&scheme, &instance,
                                                   &stats).OrDie();
  std::printf("contains edges added=%zu (paper: 2 — rock_new, pinkfloyd)\n",
              stats.edges_added);

  Banner("Figures 14-15", "node deletion removes Classical Music");
  stats = {};
  hm::Fig14NodeDeletion(scheme).ValueOrDie().Apply(&scheme, &instance,
                                                   &stats).OrDie();
  std::printf("nodes deleted=%zu; Mozart now isolated: %s\n",
              stats.nodes_deleted,
              instance.InDegree(nodes.mozart) == 0 ? "yes" : "no");

  Banner("Figure 16", "update = edge deletion + edge addition");
  hm::Fig16EdgeDeletion(scheme).ValueOrDie().Apply(&scheme, &instance)
      .OrDie();
  hm::Fig16EdgeAddition(scheme).ValueOrDie().Apply(&scheme, &instance)
      .OrDie();
  auto modified = instance.FunctionalTarget(nodes.music_history,
                                            Labels::Get().modified);
  std::printf("Music History modified = %s (paper: Jan 16, 1990)\n",
              instance.PrintValueOf(*modified)->ToString().c_str());

  Banner("Figures 17-19", "abstraction groups equal link-sets");
  auto versions = hm::BuildVersionInstance(scheme).ValueOrDie();
  auto fig18 = hm::Fig18Abstraction(scheme).ValueOrDie();
  fig18.tag_new.Apply(&scheme, &versions).OrDie();
  fig18.tag_old.Apply(&scheme, &versions).OrDie();
  stats = {};
  fig18.abstraction.Apply(&scheme, &versions, &stats).OrDie();
  std::printf("Same-Info groups created=%zu over %zu matchings\n",
              stats.nodes_added, stats.matchings);
  for (auto group : versions.NodesWithLabel(Sym("Same-Info"))) {
    std::printf("  group #%u contains %zu infos\n", group.id,
                versions.OutTargets(group, Sym("contains")).size());
  }

  std::printf("\nAll figures replayed. Render the final Figure-7 era "
              "instance with GraphViz:\n"
              "  ./build/examples/hypermedia_tour | tail -n +%d | dot -Tpng\n",
              0);
  return 0;
}
