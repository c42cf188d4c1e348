/**
 * @file
 * hmgbench — host-time measurements of the simulator through its public
 * API (trace::workloads::make, Simulator(cfg), Simulator::run). Each
 * mode is one process and prints one JSON object on stdout; run.py
 * turns those into the benchmark's metrics.
 *
 *   hmgbench warm  --workload W --seed N --root DIR --seconds S
 *       one untimed warm run, then timed runs back to back for S seconds
 *   hmgbench cold  --workload W --seed N --root DIR
 *       the first run of a fresh process, plus the process's peak RSS
 *   hmgbench trace --workload W --seed N --root DIR --spans FILE
 *       untraced and traced runs, the full stat map, timed layer
 *       replays, and (for partitioned cells) a serial run of the cell;
 *       spans are kept in memory and written to FILE at exit
 *   hmgbench check --workload W --seed N --root DIR
 *       one run under the runtime coherence checker; a violation aborts
 *
 * Every run's output is reduced to a digest of the exact bit pattern of
 * each (name, value) in its StatRecorder, plus cycles and memOps. That
 * full digest is the correctness check of serial cells. Threaded
 * time-window cells promise only delay-only relaxation (DESIGN.md §10):
 * cross-LP effects fold in wall-clock order, so their timing stats may
 * differ between runs, and their check digest covers only the outputs
 * the trace alone fixes (kTraceDetermined).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/topology.hh"
#include "core/directory.hh"
#include "gpu/simulator.hh"
#include "mem/address_map.hh"
#include "mem/page_table.hh"
#include "noc/message.hh"
#include "noc/network.hh"
#include "sim/engine.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One benchmark cell: a suite trace on a machine shape. */
struct Workload
{
    const char *name;
    const char *trace;    //!< trace::workloads key
    double scale;
    const char *topology; //!< repo-relative topology file, or nullptr
    std::uint32_t lpJobs;
};

constexpr Workload kWorkloads[] = {
    {"mst-hmg", "mst", 1.0, nullptr, 1},
    {"lstm-hmg", "lstm", 1.0, nullptr, 1},
    {"bfs-scaleout-lp4", "bfs", 0.5,
     "examples/topologies/scaleout_8x8x4.json", 4},
};

struct Args
{
    std::string mode;
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    std::string root = ".";
    double seconds = 10;
    std::string spans;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "hmgbench: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: hmgbench warm|cold|trace|check --workload W "
            "[--seed N] [--root DIR] [--seconds S] [--spans FILE]");
    Args a;
    a.mode = argv[1];
    if (a.mode != "warm" && a.mode != "cold" && a.mode != "trace" &&
        a.mode != "check")
        die("unknown mode '" + a.mode + "'");
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            die(flag + " wants a value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            for (const auto &w : kWorkloads)
                if (v == w.name)
                    a.workload = &w;
            if (!a.workload)
                die("unknown workload '" + v + "'");
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--root") {
            a.root = v;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--spans") {
            a.spans = v;
        } else {
            die("unknown flag '" + flag + "'");
        }
    }
    if (!a.workload)
        die("--workload is required");
    return a;
}

hmg::SystemConfig
configFor(const Workload &w, const std::string &root)
{
    hmg::SystemConfig cfg;
    cfg.protocol = hmg::Protocol::Hmg;
    if (w.topology)
        hmg::Topology::loadFile(root + "/" + w.topology).applyTo(cfg);
    cfg.lpJobs = w.lpJobs;
    return cfg;
}

// ---- output digest ----------------------------------------------------

std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Stats that the trace fixes whatever the event timing. */
constexpr const char *kTraceDetermined[] = {
    "sm_total.ops",   "sm_total.loads",    "sm_total.stores",
    "sm_total.atomics", "sm_total.l1.loads", "mem.pages_placed",
};

/** Mix one stat's name and the exact bits of its value into `h`. */
std::uint64_t
mixStat(std::uint64_t h, const std::string &name, double value)
{
    h = fnv1a(h, name.c_str(), name.size() + 1);
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return fnv1a(h, &bits, sizeof bits);
}

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Every stat's name and exact value bits, then cycles and memOps. */
std::string
fullDigest(const hmg::SimResult &r)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &[name, value] : r.stats.all())
        h = mixStat(h, name, value);
    const std::uint64_t tail[2] = {r.cycles, r.memOps};
    return hex(fnv1a(h, tail, sizeof tail));
}

/** The kTraceDetermined stats' exact value bits, then memOps. */
std::string
traceDeterminedDigest(const hmg::SimResult &r)
{
    std::uint64_t h = kFnvBasis;
    for (const char *name : kTraceDetermined)
        h = mixStat(h, name, r.stats.get(name));
    return hex(fnv1a(h, &r.memOps, sizeof r.memOps));
}

// ---- spans --------------------------------------------------------------

/** In-memory span log, written out once at exit. */
class SpanLog
{
  public:
    static constexpr int kNoParent = -1;

    int
    open(const char *name, int parent, std::uint64_t run)
    {
        spans_.push_back({name, now(), 0, parent, run});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            die("cannot write spans to " + path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                         "\"end_ns\": %lld, \"parent\": %d, \"run\": %llu}\n",
                         i, s.name, static_cast<long long>(s.start),
                         static_cast<long long>(s.end), s.parent,
                         static_cast<unsigned long long>(s.run));
        }
        std::fclose(f);
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        int parent;
        std::uint64_t run;
    };

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, int parent, std::uint64_t run)
        : log_(log), id_(log ? log->open(name, parent, run) : -1)
    {
    }
    ~SpanScope() { close(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

    void
    close()
    {
        if (log_)
            log_->close(id_);
        log_ = nullptr;
    }

  private:
    SpanLog *log_;
    int id_;
};

// ---- one simulation -----------------------------------------------------

/** Threaded time windows: results may vary with wall-clock interleaving. */
bool
timeWindow(const hmg::SystemConfig &cfg)
{
    return cfg.lpJobs > 1 && !cfg.lpDeterministic;
}

struct Sample
{
    double makeS = 0;
    double buildS = 0;
    double runS = 0;
    double reportS = 0;
    std::uint64_t memOps = 0;      //!< ops the SMs executed (sm_total.ops)
    std::uint64_t traceMemOps = 0; //!< ops in the trace
    hmg::Tick cycles = 0;
    std::string digest;     //!< the correctness check
    std::string fullDigest; //!< every stat, cycles and memOps
    hmg::StatRecorder stats;
};

/** make -> Simulator(cfg) -> run -> a second, timed reportStats. */
Sample
runOnce(const hmg::SystemConfig &cfg, const Workload &w, std::uint64_t seed,
        SpanLog *spans = nullptr, std::uint64_t run = 0,
        const char *run_span = "sim.run")
{
    Sample s;
    SpanScope root(spans, "bench.run", SpanLog::kNoParent, run);
    const auto t0 = Clock::now();
    hmg::trace::Trace trace;
    {
        SpanScope sp(spans, "trace.make", root.id(), run);
        trace = hmg::trace::workloads::make(w.trace, w.scale, seed);
    }
    const auto t1 = Clock::now();
    hmg::SimResult res;
    {
        SpanScope build(spans, "gpu.build", root.id(), run);
        hmg::Simulator sim(cfg);
        build.close();
        const auto t2 = Clock::now();
        {
            SpanScope sp(spans, run_span, root.id(), run);
            res = sim.run(trace);
        }
        const auto t3 = Clock::now();
        hmg::StatRecorder again;
        {
            SpanScope sp(spans, "stats.report", root.id(), run);
            sim.system().reportStats(again);
        }
        const auto t4 = Clock::now();
        s.buildS = secondsBetween(t1, t2);
        s.runS = secondsBetween(t2, t3);
        s.reportS = secondsBetween(t3, t4);
    }
    s.makeS = secondsBetween(t0, t1);
    s.memOps = static_cast<std::uint64_t>(res.stats.get("sm_total.ops"));
    s.traceMemOps = trace.memOps();
    s.cycles = res.cycles;
    s.fullDigest = fullDigest(res);
    s.digest = timeWindow(cfg) ? traceDeterminedDigest(res) : s.fullDigest;
    s.stats = std::move(res.stats);
    return s;
}

// ---- JSON output --------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

template <typename T, typename F>
std::string
array(const std::vector<T> &xs, F &&fmt)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out += (i ? ", " : "") + fmt(xs[i]);
    return out + "]";
}

/** Accumulates the timed samples of one process. */
struct SampleSet
{
    std::vector<double> make, build, run, report;
    std::vector<std::string> digests;
    std::vector<std::string> fullDigests;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t memOps = 0;
    std::uint64_t traceMemOps = 0;
    std::uint64_t events = 0;
    hmg::Tick cycles = 0;

    void
    add(const Sample &s)
    {
        make.push_back(s.makeS);
        build.push_back(s.buildS);
        run.push_back(s.runS);
        report.push_back(s.reportS);
        digests.push_back(s.digest);
        fullDigests.push_back(s.fullDigest);
        memOps = s.memOps;
        traceMemOps = s.traceMemOps;
        events = static_cast<std::uint64_t>(s.stats.get("engine.events"));
        cycles = s.cycles;
        if (s.memOps != s.traceMemOps)
            errors.push_back("sm_total.ops " + std::to_string(s.memOps) +
                             " != trace.memOps() " +
                             std::to_string(s.traceMemOps));
    }

    /** Run `fn` once, counting an exception as a failed attempt. */
    void
    attempt(const std::function<Sample()> &fn)
    {
        ++attempted;
        try {
            add(fn());
        } catch (const std::exception &e) {
            errors.push_back(e.what());
        }
    }

    std::string
    json() const
    {
        auto d = [](double v) { return num(v); };
        return "\"attempted\": " + std::to_string(attempted) +
               ", \"memops\": " + std::to_string(memOps) +
               ", \"trace_memops\": " + std::to_string(traceMemOps) +
               ", \"events\": " + std::to_string(events) +
               ", \"cycles\": " + std::to_string(cycles) +
               ", \"make_s\": " + array(make, d) +
               ", \"build_s\": " + array(build, d) +
               ", \"run_s\": " + array(run, d) +
               ", \"report_s\": " + array(report, d) +
               ", \"digests\": " + array(digests, quoted) +
               ", \"full_digests\": " + array(fullDigests, quoted) +
               ", \"errors\": " + array(errors, [](const std::string &e) {
                   std::string q;
                   for (char c : e)
                       q += (c == '"' || c == '\\' || c < ' ') ? '?' : c;
                   return quoted(q);
               });
    }
};

// ---- layer replays ------------------------------------------------------

struct LineOp
{
    hmg::MemOpType type;
    hmg::Addr line;
    bool acquire;
    std::uint32_t cta; //!< index of the CTA within its kernel
    std::uint32_t ctas;
};

/** The trace's memory operations in program order, per kernel/CTA/warp. */
std::vector<LineOp>
lineStream(const hmg::trace::Trace &t, std::uint32_t line_bytes)
{
    std::vector<LineOp> ops;
    const hmg::Addr mask = ~static_cast<hmg::Addr>(line_bytes - 1);
    for (const auto &k : t.kernels)
        for (std::size_t c = 0; c < k.ctas.size(); ++c)
            for (const auto &w : k.ctas[c].warps)
                for (const auto &op : w.ops)
                    ops.push_back({op.type, op.addr & mask, op.acq,
                                   static_cast<std::uint32_t>(c),
                                   static_cast<std::uint32_t>(
                                       k.ctas.size())});
    return ops;
}

bool
isAccess(const LineOp &op)
{
    return op.type == hmg::MemOpType::Load ||
           op.type == hmg::MemOpType::Store ||
           op.type == hmg::MemOpType::Atomic;
}

struct Replay
{
    double seconds = 0;
    std::uint64_t work = 0; //!< events, messages, accesses or lookups
};

/** Engine::schedule/run: `events` self-rescheduling events, 256 pending. */
Replay
replayEngine(std::uint64_t events, std::uint64_t seed)
{
    struct Chain
    {
        hmg::Engine *e;
        std::uint64_t *budget;
        std::uint64_t *lcg;

        void
        operator()() const
        {
            if (*budget == 0)
                return;
            --*budget;
            *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
            e->schedule((*lcg >> 33) % 797 + 1, Chain(*this));
        }
    };
    hmg::Engine e;
    std::uint64_t budget = events;
    std::uint64_t lcg = seed;
    for (hmg::Tick i = 0; i < 256 && budget > 0; ++i) {
        --budget;
        e.schedule(i % 97 + 1, Chain{&e, &budget, &lcg});
    }
    const auto t0 = Clock::now();
    e.run();
    return {secondsBetween(t0, Clock::now()), e.eventsExecuted()};
}

/**
 * A standalone Network fed the run's per-type message counts between
 * seeded random endpoints, injected evenly over the run's cycles.
 */
Replay
replayNetwork(const hmg::SystemConfig &run_cfg, const hmg::StatRecorder &st,
              hmg::Tick cycles, std::uint64_t seed)
{
    hmg::SystemConfig cfg = run_cfg;
    cfg.lpJobs = 1;
    std::mt19937_64 rng(seed);
    struct Inject
    {
        hmg::GpmId src, dst;
        hmg::MsgType type;
        hmg::Addr addr;
    };
    std::vector<Inject> plan;
    const std::uint32_t gpms = cfg.totalGpms();
    for (std::size_t t = 0; t < hmg::kNumMsgTypes; ++t) {
        const auto type = static_cast<hmg::MsgType>(t);
        const auto n = static_cast<std::uint64_t>(
            st.get(std::string("noc.") + hmg::toString(type) + ".msgs"));
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto src = static_cast<hmg::GpmId>(rng() % gpms);
            auto dst = static_cast<hmg::GpmId>(rng() % (gpms - 1));
            if (dst >= src)
                ++dst;
            plan.push_back({src, dst, type,
                            (rng() % (1u << 24)) * cfg.cacheLineBytes});
        }
    }
    std::shuffle(plan.begin(), plan.end(), rng);

    hmg::Engine e;
    hmg::Network net(e, cfg);
    std::uint64_t arrived = 0;
    const std::uint64_t n = plan.size();
    for (std::uint64_t i = 0; i < n; ++i) {
        e.scheduleAt(i * cycles / std::max<std::uint64_t>(n, 1),
                     [&net, &plan, &arrived, i]() {
                         const Inject &p = plan[i];
                         hmg::Message m;
                         m.src = p.src;
                         m.dst = p.dst;
                         m.type = p.type;
                         m.addr = p.addr;
                         m.onArrival = [&arrived]() { ++arrived; };
                         net.inject(std::move(m));
                     });
    }
    const auto t0 = Clock::now();
    e.run();
    const double secs = secondsBetween(t0, Clock::now());
    if (arrived != n || net.messagesDelivered() != n)
        die("network replay delivered " + std::to_string(arrived) + " of " +
            std::to_string(n) + " messages");
    return {secs, n};
}

/** The line stream through an L2-geometry Cache; acquires flush it. */
Replay
replayCache(const hmg::SystemConfig &cfg, const std::vector<LineOp> &ops)
{
    hmg::Cache l2(cfg.l2BytesPerGpm(), cfg.l2Ways, cfg.cacheLineBytes,
                  /*write_allocate=*/true);
    hmg::Version version = 0;
    std::uint64_t accesses = 0;
    const auto t0 = Clock::now();
    for (const auto &op : ops) {
        if (op.acquire || op.type == hmg::MemOpType::AcqFence)
            l2.invalidateAll();
        if (op.type == hmg::MemOpType::Load) {
            if (!l2.load(op.line).hit)
                l2.fill(op.line, version);
            ++accesses;
        } else if (op.type == hmg::MemOpType::Store ||
                   op.type == hmg::MemOpType::Atomic) {
            l2.store(op.line, ++version);
            ++accesses;
        }
    }
    return {secondsBetween(t0, Clock::now()), accesses};
}

/** Directory::find, then allocate on a miss, over the line stream. */
Replay
replayDirectory(const hmg::SystemConfig &cfg, const std::vector<LineOp> &ops)
{
    hmg::Directory dir(cfg.dirEntriesPerGpm, cfg.dirWays,
                       cfg.cacheLineBytes * cfg.dirLinesPerEntry);
    const auto t0 = Clock::now();
    for (const auto &op : ops)
        if (isAccess(op) && !dir.find(op.line))
            dir.allocate(op.line);
    return {secondsBetween(t0, Clock::now()), dir.lookups()};
}

/**
 * First-touch page placement and home lookups over the line stream;
 * CTAs are spread over GPMs contiguously, as the CTA scheduler does.
 */
Replay
replayMemory(const hmg::SystemConfig &cfg, const std::vector<LineOp> &ops)
{
    hmg::PageTable pages(cfg);
    hmg::AddressMap amap(cfg, pages);
    const std::uint32_t gpms = cfg.totalGpms();
    std::uint64_t accesses = 0;
    const auto t0 = Clock::now();
    for (const auto &op : ops) {
        if (!isAccess(op))
            continue;
        const auto gpm = static_cast<hmg::GpmId>(
            std::uint64_t{op.cta} * gpms / op.ctas);
        pages.touch(op.line, gpm);
        amap.gpuHome(cfg.gpuOf(gpm), op.line);
        ++accesses;
    }
    return {secondsBetween(t0, Clock::now()), accesses};
}

/** Median-of-`reps` replay, each inside its own span. */
Replay
timedReplay(SpanLog &spans, int parent, const char *name, int reps,
            const std::function<Replay()> &fn)
{
    std::vector<Replay> rs;
    for (int i = 0; i < reps; ++i) {
        SpanScope sp(&spans, name, parent, static_cast<std::uint64_t>(i));
        rs.push_back(fn());
    }
    std::sort(rs.begin(), rs.end(), [](const Replay &a, const Replay &b) {
        return a.seconds < b.seconds;
    });
    return rs[rs.size() / 2];
}

std::string
replayJson(const Replay &r)
{
    return "{\"seconds\": " + num(r.seconds) +
           ", \"work\": " + std::to_string(r.work) + "}";
}

// ---- modes --------------------------------------------------------------

int
warmMode(const Args &a, const hmg::SystemConfig &cfg)
{
    runOnce(cfg, *a.workload, a.seed); // untimed warm-up
    SampleSet set;
    const auto t0 = Clock::now();
    while (set.attempted < 5 ||
           secondsBetween(t0, Clock::now()) < a.seconds)
        set.attempt([&]() { return runOnce(cfg, *a.workload, a.seed); });
    std::printf("{\"mode\": \"warm\", %s}\n", set.json().c_str());
    return 0;
}

int
coldMode(const Args &a, const hmg::SystemConfig &cfg)
{
    SampleSet set;
    set.attempt([&]() { return runOnce(cfg, *a.workload, a.seed); });
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"mode\": \"cold\", \"peak_rss_kb\": %ld, %s}\n",
                ru.ru_maxrss, set.json().c_str());
    return 0;
}

/** A violation panics, so finishing at all means none was found. */
int
checkMode(const Args &a, hmg::SystemConfig cfg)
{
    cfg.checkCoherence = true;
    runOnce(cfg, *a.workload, a.seed);
    std::printf("{\"mode\": \"check\", \"violations\": 0}\n");
    return 0;
}

int
traceMode(const Args &a, const hmg::SystemConfig &cfg)
{
    const Workload &w = *a.workload;
    SpanLog spans;
    runOnce(cfg, w, a.seed); // untimed warm-up

    // Untraced and traced runs alternate, so both see the same host.
    SampleSet untraced, traced;
    hmg::StatRecorder stats; // of the last traced run
    for (std::uint64_t i = 1; i <= 3; ++i) {
        untraced.attempt([&]() { return runOnce(cfg, w, a.seed); });
        traced.attempt([&]() {
            Sample s = runOnce(cfg, w, a.seed, &spans, i);
            stats = s.stats;
            return s;
        });
    }

    SampleSet serial;
    if (cfg.lpJobs > 1) {
        hmg::SystemConfig scfg = cfg;
        scfg.lpJobs = 1;
        for (std::uint64_t i = 1; i <= 3; ++i)
            serial.attempt([&]() {
                return runOnce(scfg, w, a.seed, &spans, 100 + i,
                               "sim.run.serial");
            });
    }

    const hmg::trace::Trace trace =
        hmg::trace::workloads::make(w.trace, w.scale, a.seed);
    const std::vector<LineOp> ops = lineStream(trace, cfg.cacheLineBytes);
    const auto events =
        static_cast<std::uint64_t>(stats.get("engine.events"));
    SpanScope root(&spans, "layer.replay", SpanLog::kNoParent, 0);
    const Replay eng = timedReplay(spans, root.id(), "sim.replay", 3, [&]() {
        return replayEngine(events, a.seed);
    });
    const Replay noc = timedReplay(spans, root.id(), "noc.replay", 3, [&]() {
        return replayNetwork(cfg, stats, traced.cycles, a.seed);
    });
    const Replay cache =
        timedReplay(spans, root.id(), "cache.replay", 3,
                    [&]() { return replayCache(cfg, ops); });
    const Replay dir =
        timedReplay(spans, root.id(), "core.replay", 3,
                    [&]() { return replayDirectory(cfg, ops); });
    const Replay mem = timedReplay(spans, root.id(), "mem.replay", 3,
                                   [&]() { return replayMemory(cfg, ops); });
    root.close();

    std::string stat_map = "{";
    for (const auto &[name, value] : stats.all())
        stat_map += (stat_map.size() > 1 ? ", " : "") + quoted(name) + ": " +
                    num(value);
    stat_map += "}";

    std::printf("{\"mode\": \"trace\", \"untraced\": {%s}, \"traced\": {%s}, "
                "\"serial\": {%s}, \"replay\": {\"sim\": %s, \"noc\": %s, "
                "\"cache\": %s, \"core\": %s, \"mem\": %s}, \"stats\": %s}\n",
                untraced.json().c_str(), traced.json().c_str(),
                serial.json().c_str(), replayJson(eng).c_str(),
                replayJson(noc).c_str(), replayJson(cache).c_str(),
                replayJson(dir).c_str(), replayJson(mem).c_str(),
                stat_map.c_str());
    if (!a.spans.empty())
        spans.write(a.spans);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const hmg::SystemConfig cfg = configFor(*a.workload, a.root);
    if (a.mode == "warm")
        return warmMode(a, cfg);
    if (a.mode == "cold")
        return coldMode(a, cfg);
    if (a.mode == "check")
        return checkMode(a, cfg);
    return traceMode(a, cfg);
}
