// lap_e2e — end-to-end benchmark harness (see README.md beside this file).
//
//   lap_e2e --workload <name> --seed <n> --seconds <s> [--scale <f>]
//           [--trace-out <chrome.json>]
//
// Runs one named workload in this process and prints one JSON document of
// raw measurements on stdout; run.py derives the metrics and checks the
// outputs.  Every host timing is taken here, from the outside, around the
// public entry points of each layer — nothing inside src/ is instrumented.
//
// Without --trace-out: builds the input trace (generate, then a .lapt
// encode/decode round trip), runs the untimed reference or warm-up
// simulations, then repeats the workload's grid pass after pass until
// --seconds of host time are spent, timing more input builds after each.
//
// With --trace-out: after the same untimed warm-up, rounds of plain runs
// and runs with CounterRegistry and SpanCollector attached (plus
// write_explain), interleaved point by point until --seconds are spent,
// then standalone replays of the workload's read requests through the
// predictors and of its demand block stream through BufferPool.  The
// per-layer table goes into the "layers" member; the harness's own spans go
// to the Chrome trace.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/block_store.hpp"
#include "check/golden.hpp"
#include "core/is_ppm.hpp"
#include "core/oba.hpp"
#include "driver/explain.hpp"
#include "driver/simulation.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "trace/charisma_gen.hpp"
#include "trace/io/binary_io.hpp"
#include "trace/sprite_gen.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace lap;
using Clock = std::chrono::steady_clock;

#ifdef __clang__
constexpr const char* kCompiler = "clang++ " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

struct Point {
  AlgorithmSpec algorithm;
  Bytes cache_per_node = 0;

  [[nodiscard]] std::string name() const {
    return algorithm.name() + "@" + std::to_string(cache_per_node / 1_MiB) +
           "MB";
  }
};

struct Workload {
  std::string name;
  bool sprite = false;  // Sprite on NOW, else CHARISMA on PM
  FsKind fs = FsKind::kXfs;
  double scale = 1.0;  // generator scale
  std::vector<Point> grid;
  int shards = 1;        // > 1: sharded runs, checked against sequential
  bool explain = false;  // spans + counters + write_explain on every run
};

// Scales sized so one pass over a grid takes 1.5-2.5 s of host time, i.e.
// ~10 passes to take medians over in a 25 s run.  The CHARISMA workloads
// share one scale, hence one input, so the points they share must agree.
constexpr double kCharismaScale = 0.25;
constexpr double kSpriteScale = 0.3;

// Input builds before the first pass and after each pass (or round);
// setup_s sums each build phase's median over all of them.  A CHARISMA
// build takes ~1.2 ms, and on a shared VM the host has slow spells of 0.5-
// 1.5 s at ~1.5x the cost: builds timed back to back land wholly inside or
// outside one, so they are spread over the run like the passes are.
constexpr int kSetupRepsPerPass = 5;

Point point(const std::string& algorithm, Bytes mb) {
  return Point{AlgorithmSpec::parse(algorithm), mb * 1_MiB};
}

Workload find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.scale = kCharismaScale;
  if (name == "charisma-xfs-aggr") {
    w.grid = {point("Ln_Agr_OBA", 1), point("Ln_Agr_IS_PPM:3", 1),
              point("NP", 4)};
  } else if (name == "sprite-pafs-fig6") {
    w.sprite = true;
    w.fs = FsKind::kPafs;
    w.scale = kSpriteScale;
    for (const AlgorithmSpec& a : AlgorithmSpec::paper_set()) {
      for (const Bytes mb : {1, 2, 4, 8, 16}) {
        w.grid.push_back(Point{a, mb * 1_MiB});
      }
    }
  } else if (name == "charisma-xfs-shard2") {
    w.grid = {point("Ln_Agr_OBA", 4), point("NP", 4)};
    w.shards = 2;
  } else if (name == "charisma-xfs-explain") {
    w.grid = {point("Ln_Agr_OBA", 1)};
    w.explain = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// The harness's own spans: one per call into a layer's public entry point,
// kept in memory and written as Chrome trace JSON at the end.  Disabled, a
// scope costs two clock reads.
class HostSpans {
 public:
  HostSpans(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  /// Runs `fn` inside a span and returns its host seconds.
  template <typename Fn>
  double time(const char* layer, const std::string& name, int run, Fn&& fn) {
    std::size_t id = 0;
    const auto t0 = Clock::now();
    if (enabled_) {
      id = spans_.size();
      spans_.push_back(Span{name, layer, t0, t0,
                            open_.empty() ? -1 : static_cast<long>(open_.back()),
                            run});
      open_.push_back(id);
    }
    fn();
    const auto t1 = Clock::now();
    if (enabled_) {
      spans_[id].end = t1;
      open_.pop_back();
    }
    return seconds_between(t0, t1);
  }

  void write_chrome(std::ostream& os) const {
    JsonWriter w(os);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.member("name", s.name);
      w.member("cat", s.layer);
      w.member("ph", "X");
      w.member("pid", std::int64_t{1});
      w.member("tid", std::int64_t{1});
      w.member("ts", seconds_between(origin_, s.start) * 1e6);
      w.member("dur", seconds_between(s.start, s.end) * 1e6);
      w.key("args");
      w.begin_object();
      w.member("id", static_cast<std::int64_t>(i));
      w.member("parent", static_cast<std::int64_t>(s.parent));
      w.member("run", static_cast<std::int64_t>(s.run));
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    Clock::time_point start;
    Clock::time_point end;
    long parent;
    int run;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

struct SetupSample {
  double generate_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
};

struct Input {
  Trace trace;  // the decoded trace: what every simulation replays
  std::vector<SetupSample> samples;
  std::uint64_t lapt_bytes = 0;
  bool roundtrip_ok = true;
};

MachineConfig machine_for(const Workload& w) {
  return w.sprite ? MachineConfig::now() : MachineConfig::pm();
}

// The seeded part of the input: a permutation of the nodes the processes
// run on and of the file identities.  The workload keeps its structure
// (same applications, requests and think times) while every id the
// simulator hashes, places on a disk or assigns a manager by changes.
void relabel(Trace& trace, std::uint64_t seed, std::uint32_t nodes) {
  Rng rng(seed);
  const auto shuffled = [&rng](std::vector<std::uint32_t> ids) {
    for (std::size_t i = ids.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(ids[i - 1], ids[j]);
    }
    return ids;
  };
  std::vector<std::uint32_t> node_ids(std::max(nodes, trace.node_span()));
  for (std::uint32_t n = 0; n < node_ids.size(); ++n) node_ids[n] = n;
  const std::vector<std::uint32_t> node_of = shuffled(node_ids);

  std::vector<std::uint32_t> file_ids;
  for (const FileInfo& f : trace.files) file_ids.push_back(raw(f.id));
  const std::vector<std::uint32_t> new_ids = shuffled(file_ids);
  std::map<std::uint32_t, std::uint32_t> file_of;
  for (std::size_t i = 0; i < file_ids.size(); ++i) {
    file_of.emplace(file_ids[i], new_ids[i]);
  }
  for (FileInfo& f : trace.files) f.id = FileId{file_of.at(raw(f.id))};
  std::sort(trace.files.begin(), trace.files.end(),
            [](const FileInfo& a, const FileInfo& b) { return a.id < b.id; });
  for (ProcessTrace& p : trace.processes) {
    p.node = NodeId{node_of[raw(p.node)]};
    for (TraceRecord& r : p.records) r.file = FileId{file_of.at(raw(r.file))};
  }
}

// Builds the workload's input `reps` times: generate (from the generator's
// own default seed), relabel by `seed`, encode to .lapt in memory, decode.
// Adds one sample per build to `in`.  The simulator only ever sees the
// first build's decoded trace.
void build_input(Input& in, const Workload& w, std::uint64_t seed,
                 double scale, int reps, HostSpans& spans) {
  for (int i = 0; i < reps; ++i) {
    SetupSample s;
    Trace generated;
    s.generate_s = spans.time("trace", "generate", 0, [&] {
      if (w.sprite) {
        SpriteParams p;
        p.scale = w.scale * scale;
        generated = generate_sprite(p);
      } else {
        CharismaParams p;
        p.scale = w.scale * scale;
        generated = generate_charisma(p);
      }
      relabel(generated, seed, machine_for(w).nodes);
    });
    std::ostringstream encoded;
    s.encode_s = spans.time("trace", "save_binary_trace", 0,
                            [&] { save_binary_trace(encoded, generated); });
    std::istringstream wire(encoded.str());
    Trace decoded;
    s.decode_s = spans.time("trace", "load_binary_trace", 0,
                            [&] { decoded = load_binary_trace(wire); });
    in.lapt_bytes = encoded.str().size();
    in.roundtrip_ok = in.roundtrip_ok && decoded == generated;
    in.samples.push_back(s);
    if (in.samples.size() == 1) in.trace = std::move(decoded);
  }
}

RunConfig config_for(const Workload& w, const Point& p, int shards) {
  RunConfig cfg;
  cfg.machine = machine_for(w);
  cfg.fs = w.fs;
  cfg.cache_per_node = p.cache_per_node;
  cfg.algorithm = p.algorithm;
  cfg.shards = shards;
  return cfg;
}

struct Sim {
  std::string point;
  std::string role;  // warmup | reference | timed | plain | traced
  int pass = 0;
  int shards = 1;
  double host_s = 0.0;     // the whole timed call (incl. explain render)
  double explain_s = 0.0;  // write_explain share of host_s
  RunResult result;
  bool obs = false;  // counters + spans attached: span_totals is valid
  SpanCollector::Totals span_totals;
  std::uint64_t spans = 0;
};

// Per-layer accumulation over the traced pass.
struct LayerTotals {
  std::map<std::string, double> probes;  // summed probe/counter values
  Histogram disk_queue{1e-3, 1e5, 96};
  Histogram disk_service{1e-3, 1e5, 96};
  Histogram net_wait{1e-3, 1e5, 96};
  Histogram net_wire{1e-3, 1e5, 96};
};

void absorb(LayerTotals& t, CounterRegistry& reg) {
  for (const char* g :
       {"net.messages", "net.transfers", "net.bytes_moved",
        "disk.reads", "disk.writes", "disk.prefetch_reads",
        "disk.busy_seconds", "cache.evictions", "prefetch.issued",
        "prefetch.arrived", "prefetch.used", "prefetch.wasted",
        "prefetch.degree_raises"}) {
    t.probes[g] += reg.gauge(g).value();
  }
  for (const char* c :
       {"span.demand.hit_local", "span.demand.hit_remote",
        "span.demand.hit_inflight", "span.demand.miss"}) {
    t.probes[c] += static_cast<double>(reg.counter(c).value());
  }
  t.disk_queue.merge(reg.histogram("span.prefetch.queue_ms").histogram());
  t.disk_queue.merge(reg.histogram("span.demand.queue_ms").histogram());
  t.disk_service.merge(reg.histogram("span.prefetch.disk_ms").histogram());
  t.disk_service.merge(reg.histogram("span.demand.disk_ms").histogram());
  t.net_wait.merge(reg.histogram("span.prefetch.net_wait_ms").histogram());
  t.net_wire.merge(reg.histogram("span.prefetch.net_ms").histogram());
  t.net_wire.merge(reg.histogram("span.demand.net_ms").histogram());
}

class Harness {
 public:
  Harness(Workload w, const Flags& flags)
      : w_(std::move(w)),
        seed_(static_cast<std::uint64_t>(flags.get_int("seed", 0))),
        seconds_(flags.get_double("seconds", 25.0)),
        scale_(flags.get_double("scale", 1.0)),
        trace_out_(flags.get_opt("trace-out")),
        spans_(trace_out_.has_value(), Clock::now()) {}

  void run(std::ostream& out) {
    build_more_inputs();
    if (trace_out_) {
      run_traced();
    } else {
      run_timed();
    }
    write(out);
  }

 private:
  void build_more_inputs() {
    build_input(input_, w_, seed_, scale_, kSetupRepsPerPass, spans_);
  }

  // One simulation of `p`; `obs` attaches counters + spans and renders the
  // explain report, as `trace_tool explain --json` does.
  Sim simulate(const Point& p, const std::string& role, int pass, int shards,
               bool obs, LayerTotals* layers = nullptr) {
    Sim s;
    s.point = p.name();
    s.role = role;
    s.pass = pass;
    s.shards = shards;
    s.obs = obs;
    RunConfig cfg = config_for(w_, p, shards);
    CounterRegistry reg;
    SpanCollector collector;
    if (obs) {
      cfg.counters = &reg;
      cfg.spans = &collector;
    }
    const int run = static_cast<int>(sims_.size()) + 1;
    s.host_s = spans_.time("driver", "run_simulation " + s.point, run, [&] {
      s.result = run_simulation(input_.trace, cfg);
      if (obs) {
        std::ostringstream report;
        ExplainOptions opts;
        opts.json = true;
        s.explain_s = spans_.time("obs", "write_explain", run, [&] {
          write_explain(report, collector, s.result, opts);
        });
      }
    });
    if (obs) {
      s.span_totals = collector.totals();
      s.spans = collector.spans().size();
      if (layers != nullptr) absorb(*layers, reg);
    }
    sims_.push_back(s);
    return s;
  }

  void warm_up() {
    if (w_.shards > 1 || w_.explain) {
      // Sequential/untraced references double as the warm-up.
      for (const Point& p : w_.grid) simulate(p, "reference", 0, 1, false);
    } else {
      // Untimed warm-up: the grid's last point, its cheapest (NP@4MB in
      // charisma-xfs-aggr; every Sprite point is small).
      simulate(w_.grid.back(), "warmup", 0, 1, false);
    }
  }

  // Calls `pass_fn(pass)` for pass = 1, 2, ... until the next pass would
  // end past --seconds of host time; at least one pass runs.
  template <typename Fn>
  void repeat_passes(Fn&& pass_fn) {
    const auto start = Clock::now();
    double longest = 0.0;
    for (int pass = 1;; ++pass) {
      const auto t0 = Clock::now();
      pass_fn(pass);
      const auto t1 = Clock::now();
      longest = std::max(longest, seconds_between(t0, t1));
      if (seconds_between(start, t1) + longest > seconds_) break;
    }
  }

  void run_timed() {
    warm_up();
    repeat_passes([&](int pass) {
      for (const Point& p : w_.grid) {
        simulate(p, "timed", pass, w_.shards, w_.explain);
      }
      build_more_inputs();
    });
  }

  // Each round runs, point by point, a plain run, its sequential reference
  // (sharded workloads) and a traced run, so that every ratio compares runs
  // taken side by side on a warm process.  Host times are per-point medians
  // over the rounds; counts come from the first round, as every round
  // produces the same ones.
  void run_traced() {
    warm_up();
    struct Times {
      std::vector<double> plain, reference, traced, explain;
    };
    std::map<std::string, Times> times;
    LayerTotals t;
    double spans = 0.0;
    double events = 0.0;
    double sim_seconds = 0.0;
    double fallback = 0.0;
    double writes_per_block = 0.0;
    double avg_write_ms = 0.0;
    double read_p95_ms = 0.0;
    repeat_passes([&](int round) {
      for (const Point& p : w_.grid) {
        Times& pt = times[p.name()];
        pt.plain.push_back(
            simulate(p, "plain", round, w_.shards, false).host_s);
        if (w_.shards > 1) {
          pt.reference.push_back(
              simulate(p, "reference", round, 1, false).host_s);
        }
        const Sim s = simulate(p, "traced", round, w_.shards, true,
                               round == 1 ? &t : nullptr);
        pt.traced.push_back(s.host_s - s.explain_s);
        pt.explain.push_back(s.explain_s);
        if (round > 1) continue;
        spans += static_cast<double>(s.spans);
        events += static_cast<double>(s.result.events);
        sim_seconds += s.result.sim_duration.seconds();
        fallback += static_cast<double>(s.result.prefetch_fallback);
        writes_per_block += s.result.writes_per_block;
        avg_write_ms += s.result.avg_write_ms;
        read_p95_ms += s.result.read_p95_ms;
      }
      build_more_inputs();
    });
    double plain_s = 0.0;
    double plain_max = 0.0;
    double sequential_s = 0.0;
    double traced_s = 0.0;  // explain rendering excluded
    double explain_s = 0.0;
    for (const auto& [point, pt] : times) {
      plain_s += median(pt.plain);
      plain_max = std::max(plain_max, median(pt.plain));
      sequential_s += w_.shards > 1 ? median(pt.reference) : median(pt.plain);
      traced_s += median(pt.traced);
      explain_s += median(pt.explain);
    }
    rounds_ = static_cast<int>(times.begin()->second.plain.size());
    const double n = static_cast<double>(w_.grid.size());
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    auto& P = t.probes;
    const double hits = P["span.demand.hit_local"] +
                        P["span.demand.hit_remote"] +
                        P["span.demand.hit_inflight"];
    layers_ = {
        {"trace.generate_s", median_of(&SetupSample::generate_s)},
        {"trace.lapt_encode_s", median_of(&SetupSample::encode_s)},
        {"trace.lapt_decode_s", median_of(&SetupSample::decode_s)},
        {"trace.lapt_bytes", static_cast<double>(input_.lapt_bytes)},
        {"trace.records", static_cast<double>(input_.trace.total_records())},
        {"driver.runs", n},
        {"driver.run_s.max", plain_max},
        {"sim.events", events},
        {"sim.sim_seconds", sim_seconds},
        {"sim.host_ns_per_event", ratio(plain_s * 1e9, events)},
        {"sim.shard_slowdown", ratio(plain_s, sequential_s)},
        {"core.prefetch_issued", P["prefetch.issued"]},
        {"core.prefetch_arrived", P["prefetch.arrived"]},
        {"core.prefetch_used", P["prefetch.used"]},
        {"core.prefetch_wasted", P["prefetch.wasted"]},
        {"core.accuracy", ratio(P["prefetch.used"], P["prefetch.arrived"])},
        {"core.fallback_fraction", ratio(fallback, P["prefetch.issued"])},
        {"core.degree_raises", P["prefetch.degree_raises"]},
        {"core.predictor_ns_per_req", replay_predictors()},
        {"cache.hits_local", P["span.demand.hit_local"]},
        {"cache.hits_remote", P["span.demand.hit_remote"]},
        {"cache.hits_inflight", P["span.demand.hit_inflight"]},
        {"cache.misses", P["span.demand.miss"]},
        {"cache.hit_ratio", ratio(hits, hits + P["span.demand.miss"])},
        {"cache.evictions", P["cache.evictions"]},
        {"cache.pool_ns_per_access", replay_pool()},
        {"disk.reads", P["disk.reads"]},
        {"disk.writes", P["disk.writes"]},
        {"disk.prefetch_reads", P["disk.prefetch_reads"]},
        {"disk.busy_s", P["disk.busy_seconds"]},
        {"disk.queue_ms.p50", t.disk_queue.quantile(0.50)},
        {"disk.queue_ms.p95", t.disk_queue.quantile(0.95)},
        {"disk.service_ms.p50", t.disk_service.quantile(0.50)},
        {"net.messages", P["net.messages"]},
        {"net.transfers", P["net.transfers"]},
        {"net.bytes_moved", P["net.bytes_moved"]},
        {"net.wait_ms.p95", t.net_wait.quantile(0.95)},
        {"net.wire_ms.p50", t.net_wire.quantile(0.50)},
        {"fs.writes_per_block", writes_per_block / n},
        {"fs.avg_write_ms", avg_write_ms / n},
        {"fs.read_p95_ms", read_p95_ms / n},
        {"obs.span_overhead", ratio(traced_s, plain_s)},
        {"obs.spans", spans},
        {"obs.explain_render_s", explain_s},
        {"bench.trace_overhead", ratio(traced_s + explain_s, plain_s)},
    };
    std::ofstream os(*trace_out_);
    if (!os) throw std::runtime_error("cannot open " + *trace_out_);
    spans_.write_chrome(os);
  }

  double median_of(double SetupSample::*field) const {
    std::vector<double> v;
    for (const SetupSample& s : input_.samples) v.push_back(s.*field);
    return median(std::move(v));
  }

  // Every read of the input as a block range [first, last), process by
  // process, as the file systems compute it.
  struct Read {
    std::size_t proc = 0;
    NodeId node{};
    FileId file{};
    Bytes first = 0;
    Bytes last = 0;
  };

  std::vector<Read> reads() const {
    const Trace& tr = input_.trace;
    const Bytes bs = tr.block_size;
    std::vector<Read> out;
    for (std::size_t i = 0; i < tr.processes.size(); ++i) {
      const ProcessTrace& p = tr.processes[i];
      for (const TraceRecord& r : p.records) {
        if (r.op != TraceOp::kRead || r.length == 0) continue;
        out.push_back(Read{i, p.node, r.file, r.offset / bs,
                           (r.offset + r.length + bs - 1) / bs});
      }
    }
    return out;
  }

  // Every read request through IS_PPM:3 (one graph per file, shared by its
  // streams, as in PAFS) and OBA, one predictor pair per (process, file)
  // stream: observe, then predict the next request.
  double replay_predictors() {
    const std::vector<Read> rs = reads();
    std::map<FileId, IsPpmGraph> graphs;  // node-based: stable addresses
    std::map<std::pair<std::size_t, FileId>, std::size_t> stream_of;
    std::vector<IsPpmPredictor> ppm;
    std::vector<std::size_t> stream(rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const auto [it, fresh] =
          stream_of.emplace(std::pair{rs[i].proc, rs[i].file}, ppm.size());
      if (fresh) ppm.emplace_back(graphs.try_emplace(rs[i].file, 3).first->second);
      stream[i] = it->second;
    }
    std::vector<ObaPredictor> oba(ppm.size());
    std::uint64_t predicted = 0;
    const double s = spans_.time("core", "predictor_replay", 0, [&] {
      for (std::size_t i = 0; i < rs.size(); ++i) {
        const auto first = static_cast<std::int64_t>(rs[i].first);
        const auto blocks = static_cast<std::uint32_t>(rs[i].last - rs[i].first);
        IsPpmPredictor& p = ppm[stream[i]];
        p.on_request(first, blocks, i + 1);
        if (const auto next = p.predict_next()) predicted += next->nblocks;
        oba[stream[i]].on_request(first, blocks);
        if (oba[stream[i]].predict_next()) ++predicted;
      }
    });
    replay_predicted_ = predicted;
    return rs.empty() ? 0.0 : s * 1e9 / static_cast<double>(rs.size());
  }

  // The demand block stream through BufferPool::find/touch/insert at the
  // grid's smallest cache: one pool per node under xFS, one cluster-wide
  // pool under PAFS.
  double replay_pool() {
    Bytes cache = w_.grid.front().cache_per_node;
    for (const Point& p : w_.grid) cache = std::min(cache, p.cache_per_node);
    const std::uint32_t nodes =
        std::max(machine_for(w_).nodes, input_.trace.node_span());
    const std::size_t per_node =
        std::max<Bytes>(1, cache / input_.trace.block_size);
    const bool shared = w_.fs == FsKind::kPafs;
    std::deque<BufferPool> pools;
    for (std::uint32_t i = 0; i < (shared ? 1 : nodes); ++i) {
      pools.emplace_back(shared ? per_node * nodes : per_node);
    }
    std::vector<std::pair<BufferPool*, BlockKey>> accesses;
    for (const Read& r : reads()) {
      BufferPool* pool = &pools[shared ? 0 : raw(r.node)];
      for (Bytes b = r.first; b < r.last; ++b) {
        accesses.emplace_back(pool,
                              BlockKey{r.file, static_cast<std::uint32_t>(b)});
      }
    }
    std::uint64_t hits = 0;
    const double s = spans_.time("cache", "buffer_pool_replay", 0, [&] {
      for (const auto& [pool, key] : accesses) {
        if (pool->find(key) != nullptr) {
          pool->touch(key);
          ++hits;
        } else {
          CacheEntry e;
          e.key = key;
          (void)pool->insert(e);
        }
      }
    });
    replay_hits_ = hits;
    return accesses.empty() ? 0.0
                            : s * 1e9 / static_cast<double>(accesses.size());
  }

  void write(std::ostream& os) const {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonWriter w(os);
    w.begin_object();
    w.member("workload", w_.name);
    w.member("seed", seed_);
    w.member("scale", w_.scale * scale_);
    w.member("shards", static_cast<std::int64_t>(w_.shards));
    w.key("host");
    w.begin_object();
    w.member("compiler", kCompiler);
    w.member("build_type", LAP_E2E_BUILD_TYPE);
    w.end_object();
    w.member("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    w.member("roundtrip_ok", input_.roundtrip_ok);
    w.member("lapt_bytes", input_.lapt_bytes);
    w.member("records", input_.trace.total_records());
    w.key("setup");
    w.begin_array();
    for (const SetupSample& s : input_.samples) {
      w.begin_object();
      w.member("generate_s", s.generate_s);
      w.member("encode_s", s.encode_s);
      w.member("decode_s", s.decode_s);
      w.end_object();
    }
    w.end_array();
    w.key("sims");
    w.begin_array();
    for (const Sim& s : sims_) {
      const RunResult& r = s.result;
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(hash_run_result(r)));
      w.begin_object();
      w.member("point", s.point);
      w.member("role", s.role);
      w.member("pass", static_cast<std::int64_t>(s.pass));
      w.member("shards", static_cast<std::int64_t>(s.shards));
      w.member("host_s", s.host_s);
      w.member("fingerprint", hex);
      w.member("events", r.events);
      w.member("avg_read_ms", r.avg_read_ms);
      w.member("disk_accesses", r.disk_accesses);
      w.member("prefetch_arrived", r.prefetch_arrived);
      w.member("prefetch_used", r.prefetch_used);
      w.member("prefetch_wasted", r.prefetch_wasted);
      if (s.obs) {
        w.key("span_totals");
        w.begin_object();
        w.member("arrived", s.span_totals.arrived);
        w.member("used", s.span_totals.used);
        w.member("wasted", s.span_totals.wasted);
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    if (trace_out_) {
      w.key("layers");
      w.begin_object();
      for (const auto& [name, value] : layers_) w.member(name, value);
      w.end_object();
      w.member("rounds", static_cast<std::int64_t>(rounds_));
      w.member("replay_predicted", replay_predicted_);
      w.member("replay_hits", replay_hits_);
    }
    w.end_object();
    os << "\n";
  }

  Workload w_;
  std::uint64_t seed_;
  double seconds_;
  double scale_;
  std::optional<std::string> trace_out_;
  HostSpans spans_;
  Input input_;
  std::vector<Sim> sims_;
  std::vector<std::pair<std::string, double>> layers_;
  int rounds_ = 0;
  std::uint64_t replay_predicted_ = 0;
  std::uint64_t replay_hits_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    Harness h(find_workload(flags.get("workload", "")), flags);
    h.run(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lap_e2e: " << e.what() << "\n";
    return 1;
  }
}
