// perfbench_driver: one run of one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload dblp-read|dblp-write --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//                    [--span-file PATH]
//
// One single-threaded client runs a closed loop over an operation sequence
// fixed by the seed, through the program's public facades only:
// ShardedDatabase in process, and fixd with its FixdClient over loopback.
// Every answer is compared, outside its timed interval, with the oracle in
// oracle.h; a wrong, degraded or failed answer is a failed operation. The
// last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones untraced, per-layer ones traced). The lines
// before it give the per-operation counts, the sample count behind each
// percentile and, traced, the per-layer self-time table.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/corpus.h"
#include "core/index_options.h"
#include "core/sharded_database.h"
#include "datagen/datasets.h"
#include "datagen/query_gen.h"
#include "oracle.h"
#include "server/client.h"
#include "server/fixd_server.h"
#include "spans.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool remote;          ///< reads go to an in-process fixd over loopback
  bool write_steps;     ///< timed phase is insert + reads per step
  int tail_inserts;     ///< inserts after a read phase
};

constexpr Workload kWorkloads[] = {
    {"dblp-read", false, false, 48},
    {"dblp-write", true, true, 0},
};

/// The paper's depth limit for DBLP (Section 6.1).
constexpr int kDepthLimit = 6;
/// GenerateRandomQueries twigs in the query mix: with the four named
/// queries an odd count, so the pooled median falls inside one query's
/// samples instead of on the edge between two.
constexpr int kRandomQueries = 13;
/// Set-ups per run; setup_s and build_s are their medians.
constexpr int kSetups = 5;

/// Figure 6's DBLP queries: the named queries whose result counts each
/// inserted document raises by a number known when it is built.
const std::vector<std::string> kNamed = {
    "//inproceedings/title/i", "//dblp/inproceedings/author",
    "//inproceedings[url]/title[sub][i]", "//article[number]/author"};

constexpr int kShapes = 8;

/// Share of --seconds a read workload spends reading. The insert tail
/// that follows is a fixed number of inserts, so every run of a workload
/// commits the same documents into an index of the same size.
constexpr double kReadShare = 0.75;

// --- inserted documents ------------------------------------------------------

const char* const kWords[] = {
    "index",  "spectral", "twig",   "query",  "pattern", "feature",
    "xml",    "graph",    "tree",   "bisim",  "eigen",   "value",
    "store",  "path",     "join",   "prune",  "refine",  "matrix",
    "node",   "edge",     "label",  "schema", "stream",  "cache"};

std::string Words(fix::Rng* rng, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += kWords[rng->Uniform(std::size(kWords))];
  }
  return out;
}

struct InsertDoc {
  std::string xml;
  std::vector<uint64_t> adds;  ///< results added to each named query
};

/// A DBLP publication in its own <dblp> document. The shape (a fixed set
/// of eight, each used once per block of eight inserts) fixes the
/// structure; the seed fixes the order of the shapes and the text.
InsertDoc MakeDblpDoc(int shape, fix::Rng* rng) {
  struct Shape {
    bool inproc;
    int authors;
    bool i, sub, url, number;
  };
  static constexpr Shape kTable[kShapes] = {
      {true, 2, true, true, true, false},  {true, 1, true, false, true, false},
      {true, 3, false, true, false, false}, {true, 2, true, true, false, false},
      {false, 2, false, false, false, true}, {false, 1, true, false, true, false},
      {false, 3, false, false, true, true},  {false, 1, false, false, false, true}};
  const Shape& s = kTable[shape];
  std::string x = "<dblp>";
  x += s.inproc ? "<inproceedings>" : "<article>";
  for (int a = 0; a < s.authors; ++a) {
    x += "<author>" + Words(rng, 2) + "</author>";
  }
  x += "<title>" + Words(rng, 6);
  if (s.i) x += "<i>" + Words(rng, 1) + "</i>";
  if (s.sub) x += "<sub>" + Words(rng, 1) + "</sub>";
  x += "</title>";
  if (s.inproc) {
    x += "<booktitle>" + Words(rng, 1) + " Conference</booktitle>";
  } else {
    x += "<journal>" + Words(rng, 1) + " Journal</journal><volume>" +
         std::to_string(1 + rng->Uniform(40)) + "</volume>";
    if (s.number) {
      x += "<number>" + std::to_string(1 + rng->Uniform(12)) + "</number>";
    }
  }
  x += "<pages>" + std::to_string(rng->Uniform(500)) + "-" +
       std::to_string(500 + rng->Uniform(100)) + "</pages><year>" +
       std::to_string(1990 + rng->Uniform(16)) + "</year>";
  if (s.url) x += "<url>db/" + Words(rng, 1) + "</url>";
  x += s.inproc ? "</inproceedings>" : "</article>";
  x += "</dblp>";
  InsertDoc d;
  d.xml = std::move(x);
  d.adds = {
      static_cast<uint64_t>(s.inproc && s.i),
      static_cast<uint64_t>(s.inproc ? s.authors : 0),
      static_cast<uint64_t>(s.inproc && s.url && s.sub && s.i),
      static_cast<uint64_t>(!s.inproc && s.number ? s.authors : 0)};
  return d;
}

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Samples strictly above the nearest-rank p-th percentile.
size_t SamplesBeyond(size_t n, double p) {
  return n - static_cast<size_t>(std::ceil(p / 100.0 * n));
}

uint64_t TreeBytes(const std::string& dir, const std::string& prefix = "") {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (!prefix.empty() &&
        it->path().filename().string().rfind(prefix, 0) != 0) {
      continue;
    }
    total += it->file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Counter values and histogram sums/counts of the process-wide registry.
using Values = std::map<std::string, double>;

Values RegistryValues() {
  Values out;
  for (const fix::MetricSnapshot& m :
       fix::MetricsRegistry::Instance().Snapshot()) {
    if (m.type == fix::MetricType::kCounter) {
      out[m.name] = static_cast<double>(m.counter);
    } else if (m.type == fix::MetricType::kHistogram) {
      out[m.name + ".sum"] = static_cast<double>(m.hist.sum);
      out[m.name + ".count"] = static_cast<double>(m.hist.count);
    }
  }
  return out;
}

void AddDelta(const Values& before, const Values& after, Values* acc) {
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    (*acc)[name] += v - (it == before.end() ? 0 : it->second);
  }
}

double Get(const Values& v, const std::string& name) {
  auto it = v.find(name);
  return it == v.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- the run -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string span_file;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w), args_(args), rec_(args.trace) {}

  ~Bench() { Teardown(); }

  int Run();

 private:
  void GenerateInputs();
  bool SetupOnce(const std::string& dir, double* setup_s, double* build_s);
  void Teardown();
  void ReadPhase();
  void WriteSteps();
  void InsertTail();
  void FinalCheck();
  /// One line per query: timed samples, median latency, final answer size.
  void PrintQueryStats();

  /// One timed query through the workload's facade; verifies the answer
  /// against the oracle afterwards. `timed` selects whether its latency
  /// counts towards the read metrics.
  void Read(size_t q, const char* kind, bool timed);
  /// One timed insert of the next document; checks the generation.
  void Insert();
  bool CheckAnswer(size_t q, std::vector<fix::NodeRef> got);
  void Fail(const char* kind, const std::string& why);
  std::vector<size_t> Permutation(size_t n);

  std::string Metrics(bool per_layer);

  const Workload& w_;
  Args args_;
  SpanRecorder rec_;
  SpanRecorder off_{false};  ///< for untimed checks in a traced run

  // Inputs.
  fix::Corpus corpus_;
  uint64_t base_xml_bytes_ = 0;
  std::vector<std::string> xpaths_;  ///< named first
  size_t num_named_ = 0;
  std::vector<OraclePattern> patterns_;
  std::vector<std::vector<fix::NodeRef>> expected_;
  std::vector<uint64_t> named_count_;
  fix::Rng order_rng_{0};
  fix::Rng doc_rng_{0};
  std::vector<int> shape_order_;
  uint64_t inserted_xml_bytes_ = 0;

  // The system under test.
  std::string dbdir_;
  fix::IndexOptions index_options_;
  std::unique_ptr<fix::ShardedDatabase> sdb_;
  std::unique_ptr<fix::server::Server> server_;
  std::unique_ptr<fix::server::FixdClient> client_;
  uint64_t generation_ = 0;  ///< the index generation last checked

  // Measurements.
  std::vector<double> setup_s_, build_s_;
  uint64_t index_bytes_ = 0;
  fix::BuildStats build_stats_;
  std::vector<double> read_ms_, insert_ms_;
  std::vector<size_t> read_q_;
  std::map<std::string, OpCount> ops_;
  std::vector<std::string> failures_;

  // Traced-run accounting.
  Values setup_delta_, read_delta_, insert_delta_;
  struct ReadStats {
    double lookup_ms = 0, refine_ms = 0;
    double entries = 0, candidates = 0, results = 0, nodes = 0, random = 0;
  } rs_;
  double insert_bisim_vertices_ = 0;
};

std::vector<size_t> Bench::Permutation(size_t n) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[order_rng_.Uniform(i)]);
  return p;
}

void Bench::Fail(const char* kind, const std::string& why) {
  ++ops_[kind].failed;
  if (failures_.size() < 20) failures_.push_back(std::string(kind) + ": " + why);
}

void Bench::GenerateInputs() {
  // The base corpus and the random twigs are the generators' defaults and
  // do not change with the seed: the sound probe's pruning on DBLP depends
  // on the corpus the generator draws (//inproceedings/title/i took 1.2 ms
  // on one generator seed and 11 ms on another), which would swamp every
  // change worth catching. The seed draws the operation order and the
  // inserted documents.
  const uint64_t seed = args_.seed;
  fix::GenerateDblp(&corpus_, fix::DblpOptions{});
  const fix::LabelTable& base_labels = std::as_const(corpus_).labels();
  for (uint32_t d = 0; d < corpus_.num_docs(); ++d) {
    base_xml_bytes_ += fix::SerializeXml(corpus_.doc(d), base_labels).size();
  }
  xpaths_ = kNamed;
  num_named_ = xpaths_.size();
  for (const fix::TwigQuery& q : fix::GenerateRandomQueries(
           corpus_, kRandomQueries, fix::QueryGenOptions{})) {
    const std::string text = q.ToString();
    if (std::find(xpaths_.begin(), xpaths_.end(), text) == xpaths_.end()) {
      xpaths_.push_back(text);
    }
  }
  for (const std::string& x : xpaths_) {
    std::optional<OraclePattern> p = ParseOraclePattern(x);
    if (!p) {
      std::fprintf(stderr, "oracle cannot parse query %s\n", x.c_str());
      std::exit(2);
    }
    patterns_.push_back(std::move(*p));
  }
  expected_.resize(xpaths_.size());
  for (size_t q = 0; q < xpaths_.size(); ++q) {
    for (uint32_t d = 0; d < corpus_.num_docs(); ++d) {
      EvaluateOracle(patterns_[q], corpus_.doc(d), base_labels, d,
                     &expected_[q]);
    }
  }
  for (size_t q = 0; q < num_named_; ++q) {
    named_count_.push_back(expected_[q].size());
  }
  order_rng_.Reseed(seed * 1000003 + 7);
  doc_rng_.Reseed(seed * 1000003 + 11);

  index_options_.depth_limit = kDepthLimit;
  index_options_.sound_probe = true;
}

bool Bench::SetupOnce(const std::string& dir, double* setup_s,
                      double* build_s) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  fix::ShardedOptions so;  // one shard
  so.index = index_options_;

  ++ops_["setup"].attempted;
  const Clock::time_point t0 = Clock::now();
  auto sdb = fix::ShardedDatabase::Partition(corpus_, dir, so);
  if (!sdb.ok()) {
    Fail("setup", sdb.status().ToString());
    return false;
  }
  sdb_ = std::move(sdb).value();
  fix::BuildStats bs;
  const Clock::time_point b0 = Clock::now();
  fix::Status built = sdb_->BuildIndexes("main", &bs);
  const Clock::time_point b1 = Clock::now();
  if (!built.ok()) {
    Fail("setup", built.ToString());
    return false;
  }
  if (w_.remote) {
    fix::server::ServerOptions opts;
    opts.index = "main";
    opts.index_options = index_options_;
    server_ = std::make_unique<fix::server::Server>(sdb_.get(), opts);
    fix::Status started = server_->Start();
    if (!started.ok()) {
      Fail("setup", started.ToString());
      return false;
    }
    auto client = fix::server::FixdClient::Connect("127.0.0.1", server_->port());
    if (!client.ok() || !(*client)->Ping().ok()) {
      Fail("setup", "cannot reach fixd");
      return false;
    }
    client_ = std::move(client).value();
  }
  const Clock::time_point t1 = Clock::now();
  *setup_s = std::chrono::duration<double>(t1 - t0).count();
  *build_s = std::chrono::duration<double>(b1 - b0).count();
  build_stats_ = bs;
  index_bytes_ = TreeBytes(dir, "main.fix");
  return true;
}

void Bench::Teardown() {
  client_.reset();
  if (server_) {
    (void)server_->Stop();
    server_.reset();
  }
  sdb_.reset();
}

bool Bench::CheckAnswer(size_t q, std::vector<fix::NodeRef> got) {
  auto less = [](const fix::NodeRef& a, const fix::NodeRef& b) {
    return a.doc_id != b.doc_id ? a.doc_id < b.doc_id : a.node_id < b.node_id;
  };
  std::sort(got.begin(), got.end(), less);
  return got == expected_[q];
}

void Bench::Read(size_t q, const char* kind, bool timed) {
  ++ops_[kind].attempted;
  const std::string& xpath = xpaths_[q];
  std::vector<fix::NodeRef> got;
  bool degraded = false;
  std::string error;
  double ms = 0;
  const bool traced = rec_.enabled() && timed;
  SpanRecorder& rec = traced ? rec_ : off_;
  Values before;
  if (traced) before = RegistryValues();
  rec.BeginOp();
  if (!w_.remote) {
    fix::Result<fix::ExecStats> r = fix::Status::Internal("not run");
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan root(&rec, "read");
      if (traced) {
        ScopedSpan c(&rec, "query.compile");
        (void)sdb_->Compile(xpath);
      }
      ScopedSpan exec(&rec, "core.scatter");
      r = sdb_->Query("main", xpath, &got);
      if (traced && r.ok()) {
        rec_.AddDerived(exec.id(), "core.lookup", r->lookup_ms);
        rec_.AddDerived(exec.id(), "query.refine", r->refine_ms);
      }
    }
    ms = MsBetween(t0, Clock::now());
    if (!r.ok()) {
      error = r.status().ToString();
    } else {
      degraded = r->degraded;
      if (traced) {
        rs_.lookup_ms += r->lookup_ms;
        rs_.refine_ms += r->refine_ms;
        rs_.entries += static_cast<double>(r->entries_scanned);
        rs_.candidates += static_cast<double>(r->candidates);
        rs_.results += static_cast<double>(r->result_count);
        rs_.nodes += static_cast<double>(r->nodes_visited);
        rs_.random += static_cast<double>(r->random_reads);
      }
    }
  } else {
    fix::Result<fix::wire::QueryOutcome> r = fix::Status::Internal("not run");
    uint32_t rt_id = 0;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan root(&rec, "read");
      if (traced) {
        ScopedSpan c(&rec, "query.compile");
        (void)sdb_->Compile(xpath);
      }
      ScopedSpan rt(&rec, "server.roundtrip");
      rt_id = rt.id();
      r = client_->Query("main", xpath);
    }
    ms = MsBetween(t0, Clock::now());
    if (!r.ok()) {
      error = r.status().ToString();
    } else if (r->code != fix::wire::Code::kOk) {
      error = r->error;
    } else {
      degraded = r->degraded;
      got.reserve(r->results.size());
      for (const fix::wire::WireNodeRef& n : r->results) {
        got.push_back(fix::NodeRef{n.doc_id, n.node_id});
      }
      if (traced) {
        rs_.candidates += static_cast<double>(r->candidates);
        rs_.results += static_cast<double>(r->result_count);
      }
    }
    if (traced) {
      Values after = RegistryValues();
      Values d;
      AddDelta(before, after, &d);
      const uint32_t req = rec_.AddDerived(
          rt_id, "server.request", Get(d, "fixd.request.latency_us.sum") / 1e3);

      // The three histograms hold whole microseconds each, so the leg's
      // lookup + refine can exceed the fan-out's time by a rounding step;
      // scale them to it then, leaving core.scatter the uncovered rest.
      const double fan_ms = Get(d, "fix.shard.fanout_us.sum") / 1e3;
      const double lookup_ms = Get(d, "fix.query.lookup_us.sum") / 1e3;
      const double refine_ms = Get(d, "fix.query.refine_us.sum") / 1e3;
      const double scale =
          lookup_ms + refine_ms > fan_ms ? fan_ms / (lookup_ms + refine_ms) : 1;
      const uint32_t fan = rec_.AddDerived(req, "core.scatter", fan_ms);
      rec_.AddDerived(fan, "core.lookup", lookup_ms * scale);
      rec_.AddDerived(fan, "query.refine", refine_ms * scale);
    }
  }
  if (traced) {
    AddDelta(before, RegistryValues(), &read_delta_);
  }
  if (timed) {
    read_ms_.push_back(ms);
    read_q_.push_back(q);
  }

  if (!error.empty()) {
    Fail(kind, xpath + ": " + error);
  } else if (degraded) {
    Fail(kind, xpath + ": degraded answer");
  } else if (!CheckAnswer(q, std::move(got))) {
    Fail(kind, xpath + ": answer differs from the oracle");
  } else if (q < num_named_ &&
             expected_[q].size() != named_count_[q]) {
    Fail(kind, xpath + ": result count differs from the inserted counts");
  }
}

void Bench::Insert() {
  ++ops_["insert"].attempted;
  if (shape_order_.empty()) {
    for (size_t i : Permutation(kShapes)) {
      shape_order_.push_back(static_cast<int>(i));
    }
  }
  const InsertDoc doc = MakeDblpDoc(shape_order_.back(), &doc_rng_);
  shape_order_.pop_back();
  const uint32_t want_id = static_cast<uint32_t>(sdb_->num_docs());
  fix::Database* shard = sdb_->shard_db(0);
  const bool traced = rec_.enabled();
  Values before;
  if (traced) before = RegistryValues();

  rec_.BeginOp();
  uint32_t got_id = UINT32_MAX;
  std::string error;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan root(&rec_, "insert");
    if (!traced) {
      auto r = sdb_->InsertXml("main", doc.xml);
      if (r.ok()) got_id = *r; else error = r.status().ToString();
    } else {
      // InsertXml's own sequence, split at its one internal boundary so
      // the commit can be timed: the corpus append (parse, route, save,
      // manifest) and then FixIndex::InsertDocument on the shard's index.
      {
        ScopedSpan a(&rec_, "core.corpus_append");
        auto r = sdb_->InsertXml("", doc.xml);
        if (r.ok()) got_id = *r; else error = r.status().ToString();
      }
      if (error.empty()) {
        ScopedSpan c(&rec_, "core.commit");
        fix::FixIndex* idx = shard->index("main");
        fix::BuildStats bs;
        fix::Status s =
            idx == nullptr
                ? fix::Status::NotFound("no index main")
                : idx->InsertDocument(
                      static_cast<uint32_t>(shard->corpus()->num_docs() - 1),
                      &bs);
        if (!s.ok()) error = s.ToString();
        insert_bisim_vertices_ += static_cast<double>(bs.bisim_vertices);
      }
    }
  }
  insert_ms_.push_back(MsBetween(t0, Clock::now()));
  inserted_xml_bytes_ += doc.xml.size();

  if (traced) {
    // The parse replayed on the side: InsertXml parses inside its corpus
    // append, which no public call splits further.
    {
      ScopedSpan p(&rec_, "xml.parse");
      fix::LabelTable scratch;
      (void)fix::ParseXml(doc.xml, &scratch);
    }
    AddDelta(before, RegistryValues(), &insert_delta_);
  }

  if (!error.empty()) {
    Fail("insert", error);
    return;
  }
  if (got_id != want_id) {
    Fail("insert", "doc id " + std::to_string(got_id) + ", expected " +
                       std::to_string(want_id));
    return;
  }
  fix::FixIndex* idx = shard->index("main");
  const uint64_t generation = idx == nullptr ? 0 : idx->generation();
  if (generation != generation_ + 1) {
    Fail("insert", "generation " + std::to_string(generation) +
                       ", expected " + std::to_string(generation_ + 1));
  }
  generation_ = generation;

  // Oracle: the counts known by construction, and every query's answer on
  // the new document evaluated by the independent evaluator.
  for (size_t q = 0; q < num_named_; ++q) named_count_[q] += doc.adds[q];
  fix::LabelTable labels;
  auto parsed = fix::ParseXml(doc.xml, &labels);
  if (!parsed.ok()) {
    Fail("insert", "oracle cannot parse the inserted document");
    return;
  }
  for (size_t q = 0; q < xpaths_.size(); ++q) {
    EvaluateOracle(patterns_[q], *parsed, labels, got_id, &expected_[q]);
  }
}

void Bench::PrintQueryStats() {
  std::map<size_t, std::vector<double>> per;
  for (size_t k = 0; k < read_q_.size(); ++k) {
    per[read_q_[k]].push_back(read_ms_[k]);
  }
  for (const auto& [q, v] : per) {
    std::printf("query %2zu n=%4zu p50_ms=%8.3f results=%7zu %s\n", q,
                v.size(), Median(v), expected_[q].size(), xpaths_[q].c_str());
  }
}

/// Operations per second of operation time.
double Rate(const std::vector<double>& ms) {
  double total = 0;
  for (double v : ms) total += v;
  return Ratio(static_cast<double>(ms.size()), total / 1e3);
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void Bench::ReadPhase() {
  const Clock::time_point end = Deadline(args_.seconds * kReadShare);
  // Whole rounds: every query once per round, in a seeded order.
  do {
    for (size_t q : Permutation(xpaths_.size())) Read(q, "read", true);
  } while (Clock::now() < end);
}

void Bench::WriteSteps() {
  const Clock::time_point end = Deadline(args_.seconds);
  // Whole blocks of eight steps, so every block inserts each shape once.
  // A step reads the named queries, whose counts the insert raised by a
  // known number, and the next random twig of a seeded rotation.
  std::vector<size_t> rotation;
  do {
    for (int step = 0; step < kShapes; ++step) {
      Insert();
      for (size_t q : Permutation(num_named_)) Read(q, "read", true);
      if (rotation.empty()) {
        for (size_t q : Permutation(xpaths_.size() - num_named_)) {
          rotation.push_back(num_named_ + q);
        }
      }
      Read(rotation.back(), "read", true);
      rotation.pop_back();
    }
  } while (Clock::now() < end);
}

void Bench::InsertTail() {
  for (int i = 0; i < w_.tail_inserts; ++i) Insert();
}

void Bench::FinalCheck() {
  // Untimed: every query once more against the final state, so the random
  // twigs are checked on the inserted documents too.
  for (size_t q = 0; q < xpaths_.size(); ++q) Read(q, "check", false);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Bench::Metrics(bool per_layer) {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
  auto put = [&](const char* name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  if (!per_layer) {
    put("setup_s", Median(setup_s_), "s");
    put("build_s", Median(build_s_), "s");
    put("index_bytes", static_cast<double>(index_bytes_), "B");
    put("store_bytes_per_input_byte",
        Ratio(static_cast<double>(TreeBytes(dbdir_)),
              static_cast<double>(base_xml_bytes_ + inserted_xml_bytes_)),
        "ratio");
    put("peak_rss_mb", PeakRssMb(), "MiB");
    put("read_qps", Rate(read_ms_), "1/s");
    put("read_p50_ms", Median(read_ms_), "ms");
    put("insert_per_s", Rate(insert_ms_), "1/s");
    put("insert_p50_ms", Median(insert_ms_), "ms");
  } else {
    const double reads = static_cast<double>(read_ms_.size());
    const double inserts = static_cast<double>(insert_ms_.size());
    std::map<std::string, double> self = rec_.SelfTimeMs();
    auto self_ms = [&](const char* n) {
      auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    const Values& r = read_delta_;
    const Values& i = insert_delta_;
    // The traced read compiles once itself, so every Query finds its plan
    // cached: one hit per read is the replay's own and is left out.
    const double hits = Get(r, "fix.query.plan_cache.hits") - reads;
    const double misses = Get(r, "fix.query.plan_cache.misses");
    const bool remote = w_.remote;
    put("query.compile_us", Ratio(self_ms("query.compile"), reads) * 1e3, "us");
    put("query.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
    put("query.refine_ms",
        Ratio(remote ? Get(r, "fix.query.refine_us.sum") / 1e3 : rs_.refine_ms,
              reads),
        "ms");
    put("query.nodes_visited_per_query",
        Ratio(remote ? Get(r, "fix.query.nodes_visited.total") : rs_.nodes,
              reads),
        "count");
    put("query.random_reads_per_query",
        Ratio(remote ? Get(r, "fix.query.random_reads.total") : rs_.random,
              reads),
        "count");
    put("core.lookup_ms",
        Ratio(remote ? Get(r, "fix.query.lookup_us.sum") / 1e3 : rs_.lookup_ms,
              reads),
        "ms");
    put("core.entries_scanned_per_query",
        Ratio(remote ? Get(r, "fix.query.entries_scanned.total") : rs_.entries,
              reads),
        "count");
    put("core.candidates_per_query", Ratio(rs_.candidates, reads), "count");
    put("core.results_per_candidate", Ratio(rs_.results, rs_.candidates),
        "ratio");
    put("core.scatter_ms", Ratio(self_ms("core.scatter"), reads), "ms");
    put("core.commit_ms", Ratio(self_ms("core.commit"), inserts), "ms");
    put("core.spatial_rebuilds_per_insert",
        Ratio(Get(i, "fix.index.spatial.rebuilds"), inserts), "count");
    put("core.index_entries", static_cast<double>(build_stats_.entries),
        "count");
    put("spectral.eigensolves_per_insert",
        Ratio(Get(i, "fix.spectral.eigensolve.count"), inserts), "count");
    const double sh = Get(setup_delta_, "fix.spectral.cache.hits") +
                      Get(i, "fix.spectral.cache.hits");
    const double sm = Get(setup_delta_, "fix.spectral.cache.misses") +
                      Get(i, "fix.spectral.cache.misses");
    put("spectral.cache_hit_ratio", Ratio(sh, sh + sm), "ratio");
    put("graph.bisim_vertices_per_insert",
        Ratio(insert_bisim_vertices_, inserts), "count");
    put("xml.parse_ms_per_insert", Ratio(self_ms("xml.parse"), inserts), "ms");
    put("storage.pool_hit_ratio",
        Ratio(Get(r, "fix.bufferpool.hits"),
              Get(r, "fix.bufferpool.hits") + Get(r, "fix.bufferpool.misses")),
        "ratio");
    put("storage.page_reads_per_query",
        Ratio(Get(r, "fix.pageio.reads"), reads), "count");
    put("storage.pages_written_per_insert",
        Ratio(Get(i, "fix.pageio.writes"), inserts), "count");
    put("storage.bytes_written_per_inserted_byte",
        Ratio(Get(i, "fix.pageio.write_bytes"),
              static_cast<double>(inserted_xml_bytes_)),
        "ratio");
    put("storage.fsyncs_per_insert",
        Ratio(Get(i, "fix.pageio.fsyncs"), inserts), "count");
    put("storage.wal_appends_per_insert",
        Ratio(Get(i, "fix.wal.appends"), inserts), "count");
    put("server.request_ms", Ratio(self_ms("server.request"), reads), "ms");
    put("server.wire_ms", Ratio(self_ms("server.roundtrip"), reads), "ms");
    put("read.unattributed_ms", Ratio(self_ms("read"), reads), "ms");
    put("insert.unattributed_ms", Ratio(self_ms("insert"), inserts), "ms");
  }
  std::string out = "{";
  for (size_t k = 0; k < m.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + m[k].first + "\": {\"value\": " + Num(m[k].second.first) +
           ", \"unit\": \"" + m[k].second.second + "\"}";
  }
  return out + "}";
}

int Bench::Run() {
  if (w_.remote) {
    // Confine the process to one CPU before any thread starts, so fixd's
    // threads inherit it. On a VM whose vCPUs each run about half the
    // time, a wakeup that crosses vCPUs waits for the host to schedule the
    // target, and a wire request crosses three threads. The in-process
    // workload runs on one thread and stays unpinned.
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        (void)sched_setaffinity(0, sizeof(one), &one);
        break;
      }
    }
  }
  const Clock::time_point start = Clock::now();
  auto phase = [&](const char* what) {
    std::fprintf(stderr, "phase %-10s done at %7.2f s\n", what,
                 MsBetween(start, Clock::now()) / 1e3);
  };
  GenerateInputs();
  phase("inputs");
  dbdir_ = args_.workdir + "/db";
  for (int k = 0; k < kSetups; ++k) {
    const bool last = k + 1 == kSetups;
    Values before;
    if (last && rec_.enabled()) before = RegistryValues();
    double setup_s = 0, build_s = 0;
    if (!SetupOnce(last ? dbdir_ : args_.workdir + "/setup",
                   &setup_s, &build_s)) {
      break;
    }
    setup_s_.push_back(setup_s);
    build_s_.push_back(build_s);
    if (last) {
      if (rec_.enabled()) AddDelta(before, RegistryValues(), &setup_delta_);
    } else {
      Teardown();
      fs::remove_all(args_.workdir + "/setup");
    }
  }
  if (failures_.empty()) {
    fix::FixIndex* idx = sdb_->shard_db(0)->index("main");
    generation_ = idx == nullptr ? 0 : idx->generation();
    phase("setups");
    if (w_.write_steps) {
      WriteSteps();
    } else {
      ReadPhase();
      phase("reads");
      InsertTail();
    }
    phase("timed");
    FinalCheck();
    phase("check");
    PrintQueryStats();
  }
  const std::string metrics = Metrics(rec_.enabled());
  const std::string traced_e2e = rec_.enabled() ? Metrics(false) : "";
  Teardown();

  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, c] : ops_) {
    attempted += c.attempted;
    failed += c.failed;
    std::printf("ops %-7s attempted=%llu failed=%llu\n", kind.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  std::printf("samples read_p50_ms=%zu insert_p50_ms=%zu setup_s=%zu "
              "(read p99 would have %zu beyond it, insert p95 %zu)\n",
              read_ms_.size(), insert_ms_.size(), setup_s_.size(),
              SamplesBeyond(read_ms_.size(), 99),
              SamplesBeyond(insert_ms_.size(), 95));
  for (const std::string& f : failures_) {
    std::printf("FAILED %s\n", f.c_str());
  }
  if (rec_.enabled()) {
    std::printf("%-22s %12s %10s\n", "span (self time)", "total_ms", "ms/op");
    const double reads = static_cast<double>(read_ms_.size());
    const double inserts = static_cast<double>(insert_ms_.size());
    for (const auto& [name, ms] : rec_.SelfTimeMs()) {
      const bool insert_side = name == "insert" || name == "core.commit" ||
                               name == "core.corpus_append" ||
                               name == "xml.parse";
      std::printf("%-22s %12.3f %10.4f\n", name.c_str(), ms,
                  Ratio(ms, insert_side ? inserts : reads));
    }
    std::printf("client-seen read total %.3f ms, insert total %.3f ms\n",
                rec_.RootTotalMs("read"), rec_.RootTotalMs("insert"));
    std::printf("traced end-to-end: %s\n", traced_e2e.c_str());
    if (!args_.span_file.empty() && !rec_.WriteJsonLines(args_.span_file)) {
      std::fprintf(stderr, "cannot write %s\n", args_.span_file.c_str());
    }
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--span-file PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--workdir") {
      args.workdir = v;
    } else if (k == "--span-file") {
      args.span_file = v;
    } else {
      return Usage();
    }
  }
  if (args.workdir.empty() || args.seconds <= 0) return Usage();
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      int rc = 0;
      {
        Bench bench(w, args);
        rc = bench.Run();
      }
      std::error_code ec;
      std::filesystem::remove_all(args.workdir + "/db", ec);
      return rc;
    }
  }
  return Usage();
}
