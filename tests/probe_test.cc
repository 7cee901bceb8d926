// Containment-probe tests for FixIndex::Probe, the B+-tree range scan over
// (label, λ_max, λ_min) keys: for random twig probes under both sound_probe
// settings, the candidates must equal a brute-force containment filter over
// every indexed entry — same entries, same order — including bounds that
// sit exactly on indexed eigenvalues (ε = 0), and hand-written twigs on a
// larger XMark corpus. Plus the snapshot contract: probes racing COW
// commits each see exactly one committed generation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus.h"
#include "core/feature.h"
#include "core/fix_index.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "query/compile.h"
#include "query/xpath_parser.h"

namespace fix {
namespace {

enum class Gen { kTcmd, kDblp, kXMark, kTreebank };

const char* GenName(Gen g) {
  switch (g) {
    case Gen::kTcmd: return "tcmd";
    case Gen::kDblp: return "dblp";
    case Gen::kXMark: return "xmark";
    case Gen::kTreebank: return "treebank";
  }
  return "?";
}

// Small deterministic corpora — the generators are seeded, so these double
// as the "seeded random corpora" of the brute-force property.
void MakeCorpus(Gen g, Corpus* corpus) {
  switch (g) {
    case Gen::kTcmd: {
      TcmdOptions o;
      o.num_docs = 60;
      GenerateTcmd(corpus, o);
      break;
    }
    case Gen::kDblp: {
      DblpOptions o;
      o.num_publications = 120;
      GenerateDblp(corpus, o);
      break;
    }
    case Gen::kXMark: {
      XMarkOptions o;
      o.num_items = 24;
      o.num_people = 24;
      o.num_open_auctions = 24;
      o.num_closed_auctions = 24;
      o.num_categories = 12;
      GenerateXMark(corpus, o);
      break;
    }
    case Gen::kTreebank: {
      TreebankOptions o;
      o.num_sentences = 60;
      GenerateTreebank(corpus, o);
      break;
    }
  }
}

// Byte-exact fingerprint of a candidate list, in result order.
std::string Fingerprint(const std::vector<FixIndex::Candidate>& candidates) {
  std::string out;
  for (const FixIndex::Candidate& c : candidates) {
    out += EncodeFeatureKey(c.key);
    char buf[16];
    std::memcpy(buf, &c.ref.doc_id, 4);
    std::memcpy(buf + 4, &c.ref.node_id, 4);
    std::memcpy(buf + 8, &c.clustered_offset, 8);
    out.append(buf, sizeof(buf));
  }
  return out;
}

std::string TempDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/fix_probe_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Every entry of the published generation, in key order.
std::vector<FixIndex::Candidate> AllEntries(FixIndex* index) {
  std::vector<FixIndex::Candidate> out;
  auto it = index->btree()->SeekFirst();
  EXPECT_TRUE(it.ok());
  while (it.ok() && it->Valid()) {
    IndexValue v = DecodeIndexValue(it->value());
    out.push_back({DecodeFeatureKey(it->key()), v.ref, v.clustered_offset});
    EXPECT_TRUE(it->Next().ok());
  }
  return out;
}

// The containment test of Section 4 with slack ε, applied row by row to
// every entry: the entry's range must contain the probe's, and under the
// paper's probe with λ₂ enabled its λ₂ must reach the probe's too.
std::vector<FixIndex::Candidate> BruteForce(
    const std::vector<FixIndex::Candidate>& entries, const FeatureKey& probe,
    const IndexOptions& options, bool use_root_label) {
  const double eps = options.epsilon;
  const bool filter_l2 = options.use_lambda2 && !options.sound_probe;
  std::vector<FixIndex::Candidate> out;
  for (const FixIndex::Candidate& e : entries) {
    if (use_root_label && e.key.root_label != probe.root_label) continue;
    if (e.key.lambda_max < probe.lambda_max - eps) continue;
    if (e.key.lambda_min > probe.lambda_min + eps) continue;
    if (filter_l2 && e.key.lambda2 < probe.lambda2 - eps) continue;
    out.push_back(e);
  }
  return out;
}

// The probe property: over every dataset generator, with λ₂ filtering on,
// under both sound_probe settings, and with both root-label modes, Probe
// returns exactly the brute-force candidates for seeded random twig probes.
TEST(ProbeTest, RandomProbesMatchBruteForce) {
  for (Gen g : {Gen::kTcmd, Gen::kDblp, Gen::kXMark, Gen::kTreebank}) {
    for (bool sound : {false, true}) {
      Corpus corpus;
      MakeCorpus(g, &corpus);
      std::string dir = TempDir(std::string(GenName(g)) +
                                (sound ? "_sound" : "_paper"));
      IndexOptions options;
      options.depth_limit = g == Gen::kTcmd ? 0 : 4;
      options.use_lambda2 = true;
      options.sound_probe = sound;
      options.path = dir + "/p.fix";
      auto index = FixIndex::Build(&corpus, options, nullptr);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      const std::vector<FixIndex::Candidate> entries = AllEntries(&*index);
      ASSERT_EQ(entries.size(), index->num_entries());

      QueryGenOptions qopts;
      qopts.seed = 4242 + static_cast<uint64_t>(g);
      qopts.max_depth = options.depth_limit > 0 ? options.depth_limit : 5;
      qopts.rooted = g == Gen::kTcmd;
      auto queries = GenerateRandomQueries(corpus, 120, qopts);
      ASSERT_FALSE(queries.empty());

      uint64_t nonempty = 0;
      uint64_t pruned = 0;
      for (const TwigQuery& q : queries) {
        auto parts = DecomposeAtDescendantEdges(q);
        auto features = index->QueryFeatures(parts[0]);
        ASSERT_TRUE(features.ok());
        for (bool use_root_label : {true, false}) {
          auto got = index->Probe(parts[0], use_root_label);
          ASSERT_TRUE(got.ok());
          EXPECT_TRUE(got->covered);
          const auto want =
              BruteForce(entries, *features, options, use_root_label);
          ASSERT_EQ(Fingerprint(got->candidates), Fingerprint(want))
              << GenName(g) << " sound=" << sound
              << " root_label=" << use_root_label
              << " query=" << q.ToString();
          if (use_root_label) {
            nonempty += !want.empty();
          } else {
            // Without the label the scan has no seek: it reads every row.
            EXPECT_EQ(got->entries_scanned, entries.size());
          }
          pruned += want.size() < entries.size();
        }
      }
      // The property is vacuous if every probe came back empty, or if no
      // probe filtered anything out. (TCMD's documents all share one root
      // label and shape, so its whole-document probes prune nothing.)
      EXPECT_GT(nonempty, 0u) << GenName(g);
      if (g != Gen::kTcmd) {
        EXPECT_GT(pruned, 0u) << GenName(g);
      }
    }
  }
}

// ε-boundary equality: with ε = 0 the filter bounds are the probe's own
// eigenvalues, and every single-label probe has the features of an indexed
// single-element pattern exactly, so entries sit ON the bounds. The
// comparisons are inclusive, and an off-by-one (> for >=) would lose them.
TEST(ProbeTest, ExactBoundaryMatchesBruteForce) {
  for (bool sound : {false, true}) {
    Corpus corpus;
    MakeCorpus(Gen::kXMark, &corpus);
    std::string dir = TempDir(sound ? "boundary_sound" : "boundary_paper");
    IndexOptions options;
    options.depth_limit = 4;
    options.use_lambda2 = true;
    options.sound_probe = sound;
    options.epsilon = 0;
    options.path = dir + "/b.fix";
    auto index = FixIndex::Build(&corpus, options, nullptr);
    ASSERT_TRUE(index.ok());
    const std::vector<FixIndex::Candidate> entries = AllEntries(&*index);
    ASSERT_GT(entries.size(), 100u);

    std::vector<TwigQuery> queries;
    std::set<LabelId> labels;
    for (const FixIndex::Candidate& e : entries) labels.insert(e.key.root_label);
    for (LabelId label : labels) {
      auto parsed = ParseXPath("//" + corpus.labels()->Name(label));
      ASSERT_TRUE(parsed.ok());
      queries.push_back(std::move(parsed).value());
    }
    QueryGenOptions qopts;
    qopts.seed = 77;
    qopts.max_depth = options.depth_limit;
    for (TwigQuery& q : GenerateRandomQueries(corpus, 60, qopts)) {
      queries.push_back(std::move(q));
    }

    uint64_t on_bound = 0;
    for (TwigQuery& q : queries) {
      q.ResolveLabels(corpus.labels());
      auto parts = DecomposeAtDescendantEdges(q);
      auto features = index->QueryFeatures(parts[0]);
      ASSERT_TRUE(features.ok());
      auto got = index->Probe(parts[0]);
      ASSERT_TRUE(got.ok());
      const auto want = BruteForce(entries, *features, options, true);
      ASSERT_EQ(Fingerprint(got->candidates), Fingerprint(want))
          << "sound=" << sound << " query=" << q.ToString();
      for (const FixIndex::Candidate& c : got->candidates) {
        on_bound += c.key.lambda_max == features->lambda_max;
      }
    }
    EXPECT_GT(on_bound, 0u) << "no entry sat on a bound; sound=" << sound;
  }
}

// The probe is a dominance query in the (λ_max, λ_min) plane of one root
// label: λ_max at or above the probe's, λ_min at or below it. On a larger
// XMark corpus, single-label and small-twig probes rooted at labels of
// very different frequencies must return exactly the brute-force rows.
TEST(SpatialTest, DominanceQueryMatchesBruteForce) {
  Corpus corpus;
  XMarkOptions gen;
  gen.num_items = 48;
  gen.num_people = 48;
  gen.num_open_auctions = 48;
  gen.num_closed_auctions = 48;
  gen.num_categories = 24;
  GenerateXMark(&corpus, gen);
  const char* queries[] = {
      "//item",         "//item/name",         "//item[location]/description",
      "//open_auction", "//open_auction[initial]/bidder",
      "//listitem",     "//listitem/text",     "//mail[from][to]/text",
      "//description",  "//description/parlist/listitem",
      "//person",       "//person[emailaddress]/address/city"};
  for (bool sound : {false, true}) {
    std::string dir = TempDir(sound ? "dominance_sound" : "dominance_paper");
    IndexOptions options;
    options.depth_limit = 4;
    options.use_lambda2 = true;
    options.sound_probe = sound;
    options.path = dir + "/d.fix";
    auto index = FixIndex::Build(&corpus, options, nullptr);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const std::vector<FixIndex::Candidate> entries = AllEntries(&*index);

    uint64_t nonempty = 0;
    for (const char* xpath : queries) {
      auto parsed = ParseXPath(xpath);
      ASSERT_TRUE(parsed.ok()) << xpath;
      TwigQuery q = std::move(parsed).value();
      q.ResolveLabels(corpus.labels());
      auto features = index->QueryFeatures(q);
      ASSERT_TRUE(features.ok()) << xpath;
      ASSERT_NE(features->root_label, kInvalidLabel) << xpath;
      auto got = index->Probe(q);
      ASSERT_TRUE(got.ok()) << xpath;
      const auto want = BruteForce(entries, *features, options, true);
      EXPECT_EQ(Fingerprint(got->candidates), Fingerprint(want))
          << xpath << " sound=" << sound;
      nonempty += !want.empty();
    }
    EXPECT_GT(nonempty, 0u) << "sound=" << sound;
  }
}

// Snapshot discipline under COW commits: every probe pins the generation
// published when it started, so probes racing the writer each answer from
// exactly one committed generation, and an iterator pinned before the
// commits keeps walking the old entries after them.
TEST(ProbeTest, PinnedSnapshotStableAcrossCommits) {
  Corpus corpus;
  MakeCorpus(Gen::kDblp, &corpus);
  std::string dir = TempDir("snapshot");
  IndexOptions options;
  options.depth_limit = 4;
  options.path = dir + "/s.fix";
  auto built = FixIndex::Build(&corpus, options, nullptr);
  ASSERT_TRUE(built.ok());
  FixIndex index = std::move(built).value();

  const uint64_t pinned_entries = index.num_entries();
  auto pinned = index.btree()->SeekFirst();
  ASSERT_TRUE(pinned.ok());

  auto parsed = ParseXPath("//inproceedings/author");
  ASSERT_TRUE(parsed.ok());
  TwigQuery q = std::move(parsed).value();
  q.ResolveLabels(corpus.labels());
  auto Count = [&]() -> uint64_t {
    auto r = index.Probe(q);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->candidates.size() : 0;
  };
  // Candidate counts of every generation the readers may observe.
  std::set<uint64_t> published = {Count()};

  // Readers probe while the writer commits; generations only move forward,
  // so each reader's counts never decrease.
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> regressions{0};
  std::vector<std::set<uint64_t>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last = 0;
      while (!stop.load()) {
        auto r = index.Probe(q);
        if (!r.ok()) {
          regressions.fetch_add(1);
          continue;
        }
        const uint64_t n = r->candidates.size();
        if (n < last) regressions.fetch_add(1);
        last = n;
        seen[t].insert(n);
      }
    });
  }
  constexpr int kCommits = 6;
  for (int i = 0; i < kCommits; ++i) {
    auto id = corpus.AddXml(
        "<dblp><inproceedings><author>Snap " + std::to_string(i) +
        "</author><title>T</title></inproceedings></dblp>");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(index.InsertDocument(*id).ok());
    published.insert(Count());
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(regressions.load(), 0);
  for (const std::set<uint64_t>& s : seen) {
    for (uint64_t n : s) EXPECT_EQ(published.count(n), 1u) << n;
  }
  EXPECT_GT(*published.rbegin(), *published.begin());

  // The iterator pinned before the commits still walks the old generation.
  uint64_t walked = 0;
  while (pinned->Valid()) {
    ++walked;
    ASSERT_TRUE(pinned->Next().ok());
  }
  EXPECT_EQ(walked, pinned_entries);
  EXPECT_GT(index.num_entries(), pinned_entries);

  // And the probe still matches the brute force on the newest generation.
  auto features = index.QueryFeatures(q);
  ASSERT_TRUE(features.ok());
  auto got = index.Probe(q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Fingerprint(got->candidates),
            Fingerprint(BruteForce(AllEntries(&index), *features, options,
                                   true)));
  EXPECT_FALSE(got->candidates.empty());
}

}  // namespace
}  // namespace fix
